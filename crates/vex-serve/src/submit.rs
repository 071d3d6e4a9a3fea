//! The client side of the sweep service: submits a spec, polls until
//! every point is terminal, fetches the results and reassembles a
//! [`SweepOutcome`] indistinguishable from an in-process run. A
//! submission the server answers entirely from its cache skips the poll,
//! and results come back in batches of `FETCH_CHUNK` keys per `FETCH`.
//!
//! The client expands the spec *locally* to derive the point keys it will
//! poll and fetch — the keys are content-addressed, so the client and
//! server independently agree on the identity of every point without
//! exchanging anything but the spec text.

use crate::proto::{read_frame, split_message, split_sections, write_frame};
use std::net::TcpStream;
use std::time::Duration;
use vex_experiments::runner::ProgramLoader;
use vex_experiments::{
    spec_point_keys, JournalEntry, PointError, PointFailure, PointResult, SweepOutcome,
};
use vex_spec::SweepSpec;

/// Keys per `FETCH` request. A result payload is ≈600 bytes, so a reply
/// stays ≈150 KiB, far below [`MAX_FRAME`](crate::proto::MAX_FRAME), and
/// the paper's 144-point grid comes back in one round trip. Unit tests
/// use a small chunk so a short spec spans several requests.
const FETCH_CHUNK: usize = if cfg!(test) { 2 } else { 256 };

/// What [`submit`] brings back: the reassembled outcome plus the server's
/// accounting of how much work the submission actually caused.
pub struct Submission {
    /// Results and errors, in spec expansion order — byte-identical JSON
    /// to an uninterrupted in-process sweep of the same spec.
    pub outcome: SweepOutcome,
    /// Points in the spec.
    pub total: usize,
    /// Points served straight from the content-addressed cache.
    pub cached: usize,
    /// Points newly scheduled by this submission (0 on a resubmission of
    /// a completed sweep: the cache answers everything).
    pub enqueued: usize,
}

/// Submits `spec_text` to the server at `addr` and blocks until every
/// point is terminal, polling every `poll_ms` milliseconds.
pub fn submit(
    addr: &str,
    spec_text: &str,
    loader: Option<ProgramLoader<'_>>,
    poll_ms: u64,
) -> Result<Submission, String> {
    let spec = SweepSpec::parse(spec_text).map_err(|e| format!("bad spec: {e}"))?;
    let points = spec_point_keys(&spec, loader)?;

    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    stream.set_nodelay(true).ok();

    let reply = request(&mut stream, &format!("SUBMIT\n{spec_text}"))?;
    let (total, cached, enqueued) = parse_submit_reply(split_message(&reply).0)?;
    if total != points.len() {
        return Err(format!(
            "server expanded {total} points, client expanded {} — spec disagreement",
            points.len()
        ));
    }

    // Poll until every key is terminal. Every cached point already is.
    let keys: Vec<u64> = points.iter().map(|(_, key)| *key).collect();
    if cached < total {
        let poll_msg = format!("POLL\n{}", key_lines(&keys));
        loop {
            let reply = request(&mut stream, &poll_msg)?;
            let word = reply.split(' ').next().unwrap_or("");
            match word {
                "READY" => break,
                "PENDING" => std::thread::sleep(Duration::from_millis(poll_ms)),
                _ => return Err(format!("unexpected reply to POLL: `{reply}`")),
            }
        }
    }

    let mut fetched = Vec::with_capacity(keys.len());
    for chunk in keys.chunks(FETCH_CHUNK) {
        let reply = request(&mut stream, &format!("FETCH\n{}", key_lines(chunk)))?;
        fetched.extend(parse_fetch_reply(&reply, chunk)?);
    }

    // Assemble in expansion order so the outcome is byte-identical to an
    // in-process run.
    let mut results: Vec<PointResult> = Vec::with_capacity(points.len());
    let mut errors: Vec<PointError> = Vec::new();
    for ((run, key), fetched) in points.into_iter().zip(fetched) {
        match fetched {
            Fetched::Entry(entry) => results.push(PointResult {
                run,
                stats: entry.stats,
                stop: entry.stop,
                wall_secs: entry.wall_secs,
                key,
                resumed: false,
                attempts: 1,
            }),
            Fetched::Failed { attempts, msg } => errors.push(PointError {
                key,
                label: run.label(),
                attempts,
                cause: PointFailure::Failed(msg),
            }),
            Fetched::Pending | Fetched::Unknown => {
                return Err(format!(
                    "point {key:016x} is {fetched:?} after the server reported READY"
                ))
            }
        }
    }

    Ok(Submission {
        outcome: SweepOutcome {
            spec,
            points: results,
            errors,
        },
        total,
        cached,
        enqueued,
    })
}

/// Decodes the head of the server's reply to `SUBMIT` into
/// `(total, cached, newly enqueued)`; any other reply is an `Err`.
fn parse_submit_reply(head: &str) -> Result<(usize, usize, usize), String> {
    let mut parts = head.split(' ');
    match parts.next().unwrap_or("") {
        "ACCEPTED" => {
            let mut next = || {
                parts
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or_else(|| format!("malformed ACCEPTED reply `{head}`"))
            };
            Ok((next()?, next()?, next()?))
        }
        "DRAINING" => Err("server is draining; not accepting new submissions".to_string()),
        "ERROR" => Err(format!(
            "server rejected the spec: {}",
            head.strip_prefix("ERROR ").unwrap_or("no reason given")
        )),
        other => Err(format!("unexpected reply to SUBMIT: `{other}`")),
    }
}

/// A `POLL` or `FETCH` body: one hex key per line.
fn key_lines(keys: &[u64]) -> String {
    keys.iter().map(|key| format!("{key:016x}\n")).collect()
}

/// One point's answer in a `FETCH` reply.
#[derive(Debug, PartialEq)]
pub(crate) enum Fetched {
    /// The point's journaled result.
    Entry(JournalEntry),
    /// The point failed for good.
    Failed { attempts: u32, msg: String },
    /// Known to the server but not terminal yet.
    Pending,
    /// Never submitted to this server.
    Unknown,
}

/// Decodes a `FETCHED` reply to a request for `keys`: one answer per key,
/// in request order. An entry filed under another key is an `Err`.
pub(crate) fn parse_fetch_reply(reply: &str, keys: &[u64]) -> Result<Vec<Fetched>, String> {
    let (head, body) = split_message(reply);
    let count = head
        .strip_prefix("FETCHED ")
        .and_then(|n| n.parse::<usize>().ok())
        .ok_or_else(|| format!("unexpected reply to FETCH: `{head}`"))?;
    let sections = split_sections(body)?;
    if count != keys.len() || sections.len() != keys.len() {
        return Err(format!(
            "asked for {} point(s), the server answered {count} in {} section(s)",
            keys.len(),
            sections.len()
        ));
    }
    keys.iter()
        .zip(sections)
        .map(|(&key, section)| {
            let (head, body) = split_message(section);
            let mut parts = head.split(' ');
            Ok(match parts.next().unwrap_or("") {
                "ENTRY" => {
                    let entry = JournalEntry::from_payload(body)?;
                    if entry.key != key {
                        return Err(format!(
                            "server returned entry {:016x} for point {key:016x}",
                            entry.key
                        ));
                    }
                    Fetched::Entry(entry)
                }
                "FAILED" => Fetched::Failed {
                    attempts: parts.next().and_then(|v| v.parse().ok()).unwrap_or(0),
                    msg: body.trim_end().to_string(),
                },
                "PENDING" => Fetched::Pending,
                "UNKNOWN" => Fetched::Unknown,
                other => return Err(format!("point {key:016x}: unexpected answer `{other}`")),
            })
        })
        .collect()
}

/// One request/reply exchange.
fn request(stream: &mut TcpStream, text: &str) -> Result<String, String> {
    write_frame(stream, text).map_err(|e| format!("cannot send to the server: {e}"))?;
    read_frame(stream)
        .map_err(|e| format!("cannot read from the server: {e}"))?
        .ok_or_else(|| "server closed the connection".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serve, ServeConfig};
    use vex_experiments::SweepRunner;

    /// A spec served from a journal an in-process sweep wrote comes back
    /// byte-identical although its keys span several `FETCH` requests,
    /// and a fully cached submission logs nothing.
    #[test]
    fn multi_chunk_fetch_reassembles_byte_identically() {
        const SPEC: &str = "name = \"chunks\"\ninst_limit = 2000\ntimeslice = 500\n\
                            techniques = [\"CSMT\", \"SMT\", \"CCSI AS\"]\nthreads = [2]\n\
                            mixes = [\"llll\"]\n";
        let dir = std::env::temp_dir().join(format!("vexs_chunks_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("j.vexj").display().to_string();
        let spec = SweepSpec::parse(SPEC).unwrap();
        let reference = SweepRunner::new(&spec)
            .workers(2)
            .journal(&journal)
            .deterministic_wall(true)
            .run()
            .unwrap();
        assert!(reference.points.len() > FETCH_CHUNK);

        let port_file = dir.join("port").display().to_string();
        let cfg = ServeConfig {
            journal: Some(journal.clone()),
            resume: true,
            port_file: Some(port_file.clone()),
            ..ServeConfig::default()
        };
        let server = std::thread::spawn(move || serve(&cfg, None));
        let addr = loop {
            match std::fs::read_to_string(&port_file) {
                Ok(a) if !a.is_empty() => break a,
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        let subs = format!("{journal}.subs");
        let log_before = std::fs::read(&subs).unwrap();

        let sub = submit(&addr, SPEC, None, 10).unwrap();
        assert_eq!((sub.total, sub.cached, sub.enqueued), (3, 3, 0));
        assert_eq!(sub.outcome.to_json(), reference.to_json());
        assert_eq!(std::fs::read(&subs).unwrap(), log_before);

        let mut stream = TcpStream::connect(&addr).unwrap();
        assert_eq!(request(&mut stream, "DRAIN").unwrap(), "OK");
        server.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submit_replies_decode_without_panicking() {
        assert_eq!(parse_submit_reply("ACCEPTED 16 4 12"), Ok((16, 4, 12)));
        assert_eq!(
            parse_submit_reply("ERROR bad spec: oops"),
            Err("server rejected the spec: bad spec: oops".to_string())
        );
        // A bare `ERROR` frame (no reason) must be an `Err`, not a panic.
        let mut buf = Vec::new();
        write_frame(&mut buf, "ERROR").unwrap();
        let reply = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(
            parse_submit_reply(split_message(&reply).0),
            Err("server rejected the spec: no reason given".to_string())
        );
        for bad in ["", "DRAINING", "ACCEPTED", "ACCEPTED 1 x 2", "WHAT"] {
            assert!(parse_submit_reply(bad).is_err(), "{bad:?}");
        }
    }
}
