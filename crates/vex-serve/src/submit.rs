//! The client side of the sweep service: submits a spec, polls until
//! every point is terminal, fetches the results and reassembles a
//! [`SweepOutcome`] indistinguishable from an in-process run.
//!
//! The client expands the spec *locally* to derive the point keys it will
//! poll and fetch — the keys are content-addressed, so the client and
//! server independently agree on the identity of every point without
//! exchanging anything but the spec text.

use crate::proto::{read_frame, split_message, write_frame};
use std::net::TcpStream;
use std::time::Duration;
use vex_experiments::runner::ProgramLoader;
use vex_experiments::{
    spec_point_keys, JournalEntry, PointError, PointFailure, PointResult, SweepOutcome,
};
use vex_spec::SweepSpec;

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

    // Poll until every key is terminal.
    let poll_body: String = points
        .iter()
        .map(|(_, key)| format!("{key:016x}\n"))
        .collect();
    let poll_msg = format!("POLL\n{poll_body}");
    loop {
        let reply = request(&mut stream, &poll_msg)?;
        let word = reply.split(' ').next().unwrap_or("");
        match word {
            "READY" => break,
            "PENDING" => std::thread::sleep(Duration::from_millis(poll_ms)),
            _ => return Err(format!("unexpected reply to POLL: `{reply}`")),
        }
    }

    // Fetch every point, preserving expansion order so the assembled
    // outcome is byte-identical to an in-process run.
    let mut results: Vec<PointResult> = Vec::with_capacity(points.len());
    let mut errors: Vec<PointError> = Vec::new();
    for (run, key) in points {
        let reply = request(&mut stream, &format!("FETCH {key:016x}"))?;
        let (head, body) = split_message(&reply);
        let mut parts = head.split(' ');
        match parts.next().unwrap_or("") {
            "ENTRY" => {
                let entry = JournalEntry::from_payload(body)?;
                if entry.key != key {
                    return Err(format!(
                        "server returned entry {:016x} for point {key:016x}",
                        entry.key
                    ));
                }
                results.push(PointResult {
                    run,
                    stats: entry.stats,
                    stop: entry.stop,
                    wall_secs: entry.wall_secs,
                    key,
                    resumed: false,
                    attempts: 1,
                });
            }
            "FAILED" => {
                let attempts: u32 = parts.next().and_then(|v| v.parse().ok()).unwrap_or(0);
                errors.push(PointError {
                    key,
                    label: run.label(),
                    attempts,
                    cause: PointFailure::Failed(body.trim_end().to_string()),
                });
            }
            other => {
                return Err(format!(
                    "point {key:016x} is `{other}` after the server reported READY"
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
