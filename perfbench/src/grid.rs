//! The paper grid, run in-process (`grid_inproc`) and through the sweep
//! service (`grid_served`, followed by cached resubmissions).

use crate::stats::{median, percentile, samples_for};
use crate::trace::{Open, Tracer, UNACCOUNTED};
use crate::{another, metric, peak_rss_mb, setup_samples, Ctx, Metric, Report};
use std::fs;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vex_experiments::journal::Fnv64;
use vex_experiments::{Journal, JournalEntry, PointResult, SweepOutcome, SweepRunner};
use vex_serve::proto::{read_frame, write_frame};
use vex_serve::{serve, submit, ServeConfig};
use vex_spec::{ServeSpec, SweepSpec};

/// The benchmark's frozen copy of `examples/paper.toml`: 144 points at
/// DEFAULT scale.
pub const SPEC_PATH: &str = "perfbench/specs/paper.toml";

/// Simulation workers: the in-process runner's threads and the service's
/// worker processes alike.
pub const WORKERS: usize = 2;

/// Client poll interval while a served grid is pending.
pub const POLL_MS: u64 = 20;

/// FNV-64 of the zero-wall `grid_inproc` JSON at the default seed (0),
/// identical to the digest of `vex sweep examples/paper.toml --zero-wall`.
pub const REFERENCE_DIGEST: u64 = 0x8d7c_5a99_f27f_da75;

/// Cached resubmissions per served grid, and cached in-process re-runs
/// per `grid_inproc` grid: with the minimum of two grids per run, enough
/// for a p75 with ten samples beyond it.
const RESUBMITS_PER_GRID: usize = 20;

/// Served grids per run (each on a fresh server).
const MIN_SERVED_GRIDS: usize = 2;

/// Server start-ups per `grid_served` run (one per grid, the rest started
/// and drained idle); `setup_s` is their median.
const SERVER_STARTS: usize = 5;

/// Spec loads averaged per `grid_inproc` set-up sample.
const SPEC_LOADS: usize = 100;

/// The spec text for workload seed `seed`: the frozen paper spec with its
/// base scheduler seed offset by `seed`.
pub fn load_spec(seed: u64) -> Result<String, String> {
    let text = fs::read_to_string(SPEC_PATH)
        .map_err(|e| format!("cannot read `{SPEC_PATH}` (run from the repository root): {e}"))?;
    Ok(with_seed(&text, seed))
}

/// Prepends a base `seed` offset by `seed` to a spec's text.
pub fn with_seed(text: &str, seed: u64) -> String {
    format!("seed = {}\n{text}", vex_spec::DEFAULT_SEED + seed)
}

/// Parses a spec, with the error rendered.
pub fn parse(text: &str) -> Result<SweepSpec, String> {
    SweepSpec::parse(text).map_err(|e| format!("bad spec: {e}"))
}

/// The outcome's JSON with every wall time zeroed: the byte-comparable
/// form of a sweep's result.
pub fn zero_wall_json(outcome: &SweepOutcome) -> String {
    let mut o = outcome.clone();
    for p in &mut o.points {
        p.wall_secs = 0.0;
    }
    o.to_json()
}

/// FNV-64 of `bytes`.
pub fn digest(bytes: &str) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes.as_bytes());
    h.finish()
}

/// Points whose JSON line differs between two sweep JSON documents (every
/// point when the point counts differ).
pub fn point_mismatches(got: &str, want: &str) -> usize {
    let lines = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.contains("\"mix\":"))
            .map(|l| l.trim_end_matches(',').to_string())
            .collect()
    };
    let (g, w) = (lines(got), lines(want));
    if g.len() != w.len() {
        return g.len().max(w.len());
    }
    g.iter().zip(&w).filter(|(a, b)| a != b).count()
}

/// Checks one grid's outcome against `want` (zero-wall JSON), counting
/// each errored or differing point as a failed operation.
fn check_grid(report: &mut Report, what: &str, outcome: &SweepOutcome, json: &str, want: &str) {
    let points = outcome.points.len() + outcome.errors.len();
    report.attempted += points as u64;
    if !outcome.errors.is_empty() {
        report.fail(
            outcome.errors.len() as u64,
            format!("{what}: {} point(s) failed", outcome.errors.len()),
        );
    }
    let bad = point_mismatches(json, want);
    if bad > 0 {
        report.fail(
            bad as u64,
            format!("{what}: {bad} point(s) differ from the reference bytes"),
        );
    }
}

/// Runs the grid in-process with the benchmark's settings.
fn run_inproc(spec: &SweepSpec) -> Result<SweepOutcome, String> {
    SweepRunner::new(spec).workers(WORKERS).run()
}

/// Layer metrics of the grids a workload ran, from their point results:
/// pool overhead and engine utilisation under `prefix` (`sweep` or
/// `serve`), engine host time per simulated cycle (overall and per
/// technique), and the model's deterministic counts (first grid).
pub fn grid_layers(prefix: &str, grids: &[(f64, SweepOutcome)]) -> Vec<Metric> {
    let mut out = Vec::new();
    let w = WORKERS as f64;
    let mut overhead = Vec::new();
    let mut busy = Vec::new();
    for (wall, o) in grids {
        let engine: f64 = o.points.iter().map(|p| p.wall_secs).sum();
        overhead.push((w * wall - engine) / o.points.len() as f64 * 1e3);
        busy.push(engine / (w * wall));
    }
    out.push(metric(
        format!("{prefix}.overhead_ms_per_point"),
        median(&overhead),
        "ms",
    ));
    out.push(metric(
        format!("{prefix}.engine_busy_frac"),
        median(&busy),
        "frac",
    ));
    let points: Vec<&PointResult> = grids.iter().flat_map(|(_, o)| &o.points).collect();
    out.extend(engine_layers(&points));
    if let Some((_, first)) = grids.first() {
        out.extend(model_counts(first));
    }
    out
}

/// `engine.ns_per_sim_cycle`, overall and per Figure 16 technique.
fn engine_layers(points: &[&PointResult]) -> Vec<Metric> {
    let ns = |f: &dyn Fn(&PointResult) -> bool| {
        let (mut secs, mut cycles) = (0.0, 0u64);
        for p in points.iter().filter(|p| f(p)) {
            secs += p.wall_secs;
            cycles += p.stats.cycles;
        }
        secs / cycles.max(1) as f64 * 1e9
    };
    let mut out = vec![metric("engine.ns_per_sim_cycle", ns(&|_| true), "ns")];
    for (label, tech) in vex_sim::Technique::FIGURE16_SET {
        out.push(metric(
            format!("engine.ns_per_sim_cycle.{}", label.replace(' ', "_")),
            ns(&|p| p.run.technique == tech),
            "ns",
        ));
    }
    out
}

/// The model's deterministic counts summed over a grid's points.
fn model_counts(o: &SweepOutcome) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&vex_sim::SimStats) -> u64| -> f64 {
        o.points.iter().map(|p| f(&p.stats)).sum::<u64>() as f64
    };
    vec![
        metric("model.sim_cycles", sum(&|s| s.cycles), "count"),
        metric("model.sim_insts", sum(&|s| s.total_insts), "count"),
        metric("model.wasted_slots", sum(&|s| s.wasted_slots), "count"),
        metric("model.merged_cycles", sum(&|s| s.merged_cycles), "count"),
        metric(
            "model.memport_stall_cycles",
            sum(&|s| s.memport_stall_cycles),
            "count",
        ),
    ]
}

fn insts(o: &SweepOutcome) -> f64 {
    o.points.iter().map(|p| p.stats.total_insts).sum::<u64>() as f64
}

/// Records the reconstructed per-point engine spans of a grid under
/// `parent`, in claim order.
fn point_spans(tr: &mut Tracer, parent: Open, o: &SweepOutcome) {
    let walls: Vec<f64> = o.points.iter().map(|p| p.wall_secs).collect();
    tr.lanes("engine point", "vex-sim engine", parent, &walls, WORKERS);
}

/// Writes a complete journal of `o` to `path`, as a journaled sweep
/// would have left it.
fn write_journal(path: &Path, o: &SweepOutcome) -> Result<(), String> {
    let mut j = Journal::create(path)?;
    for p in &o.points {
        j.append(&JournalEntry {
            key: p.key,
            label: p.run.label(),
            stop: p.stop,
            wall_secs: p.wall_secs,
            stats: p.stats.clone(),
        })?;
    }
    Ok(())
}

/// `grid_inproc`: the paper grid through `SweepRunner` with two workers;
/// after each grid, cached re-runs of the spec that resume from a
/// complete journal of it.
pub fn inproc(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let (setups, spec) = setup_samples(SPEC_LOADS, || parse(&load_spec(ctx.seed)?))?;

    let mut off = Tracer::new(false);
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut rates = Vec::new();
    let mut rerun_ms = Vec::new();
    let mut grids = Vec::new();
    let mut first_json: Option<String> = None;
    let started = Instant::now();
    let mut slowest = 0.0f64;
    let mut i = 0;
    while another(i, 2, started, slowest, ctx.seconds) {
        let traced = tracer.on() && i % 2 == 1;
        let tr = if traced { &mut *tracer } else { &mut off };
        let t0 = Instant::now();
        let root = tr.open("grid_inproc", UNACCOUNTED, i as u64, None);
        let run = tr.open(
            "SweepRunner::run",
            "vex-experiments runner",
            i as u64,
            Some(root),
        );
        let outcome = run_inproc(&spec)?;
        tr.close(run);
        point_spans(tr, run, &outcome);
        let (json, dig) = tr.time("verify", "benchmark verify", root, || {
            let json = zero_wall_json(&outcome);
            let dig = digest(&json);
            (json, dig)
        });
        tr.close(root);
        let wall = t0.elapsed().as_secs_f64();

        let what = format!("grid_inproc grid {i}");
        if ctx.seed == 0 && dig != REFERENCE_DIGEST {
            let n = outcome.points.len() as u64;
            report.attempted += n;
            report.fail(
                n,
                format!("{what}: zero-wall digest {dig:016x}, reference {REFERENCE_DIGEST:016x}"),
            );
        } else {
            let want = first_json.get_or_insert_with(|| json.clone());
            check_grid(&mut report, &what, &outcome, &json, want);
        }

        // Cached re-runs: load the spec and resume from a complete
        // journal, as `vex sweep --journal J --resume` does after a
        // finished sweep. Nothing may be simulated.
        let journal = ctx.tmp.join(format!("inproc{i}.vexj"));
        write_journal(&journal, &outcome)?;
        let journal = journal.display().to_string();
        for r in 0..RESUBMITS_PER_GRID {
            let req = ((i as u64) << 32) | (r as u64 + 1);
            let t1 = Instant::now();
            let root = tr.open("rerun", UNACCOUNTED, req, None);
            let spec = tr.time("load spec", "vex-spec", root, || {
                parse(&load_spec(ctx.seed)?)
            })?;
            let again = tr.time(
                "SweepRunner::run (resume)",
                "vex-experiments runner",
                root,
                || {
                    SweepRunner::new(&spec)
                        .workers(WORKERS)
                        .journal(&journal)
                        .resume(true)
                        .run()
                },
            )?;
            tr.close(root);
            rerun_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            report.attempted += 1;
            if !again.points.iter().all(|p| p.resumed) || zero_wall_json(&again) != json {
                report.fail(
                    1,
                    format!("grid_inproc grid {i} re-run {r}: simulated a point or returned different bytes"),
                );
            }
        }

        if traced {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
            rates.push(insts(&outcome) / wall);
        }
        grids.push((wall, outcome));
        slowest = slowest.max(t0.elapsed().as_secs_f64());
        i += 1;
    }

    report.notes.push(format!(
        "{} grid(s) of {} points, {} worker(s); op = one cached re-run resuming from a \
         complete journal ({} samples)",
        grids.len(),
        grids[0].1.points.len(),
        WORKERS,
        rerun_ms.len()
    ));
    report.note_walls("grid", &walls, &traced_walls);
    report.end_to_end = vec![
        metric("wall_s", median(&walls), "s"),
        metric("setup_s", median(&setups), "s"),
        metric("sim_insts_per_s", median(&rates), "inst/s"),
        metric("op_p50_ms", pct(&rerun_ms, 0.5)?, "ms"),
        metric("op_p75_ms", pct(&rerun_ms, 0.75)?, "ms"),
        metric("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ];
    if tracer.on() {
        report.layers = grid_layers("sweep", &grids);
        report.traced("grid_inproc", tracer, &walls, &traced_walls);
        report.table(tracer, "rerun");
    }
    Ok(report)
}

fn pct(xs: &[f64], q: f64) -> Result<f64, String> {
    percentile(xs, q).ok_or_else(|| {
        format!(
            "only {} samples; the {q}-quantile needs {}",
            xs.len(),
            samples_for(q)
        )
    })
}

/// A `vex serve` instance on a thread of this process, with a pool of
/// worker processes (this binary's `worker` mode).
pub struct Server {
    /// Listen address.
    pub addr: String,
    /// Start until the pool is ready, in seconds.
    pub ready_s: f64,
    dir: PathBuf,
    handle: Option<JoinHandle<Result<(), String>>>,
}

impl Server {
    /// Starts a server journaling into `dir` and waits until it listens
    /// and every worker process has started.
    pub fn start(ctx: &Ctx, dir: &Path) -> Result<Server, String> {
        let t = Instant::now();
        fs::create_dir_all(dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
        let port_file = dir.join("port");
        let cfg = ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            workers: WORKERS as u32,
            policy: ServeSpec::default(),
            journal: Some(dir.join("journal.vexj").display().to_string()),
            resume: false,
            zero_wall: false,
            port_file: Some(port_file.display().to_string()),
            worker_cmd: Some(vec![
                ctx.exe.display().to_string(),
                "worker".to_string(),
                "--ready-dir".to_string(),
                dir.display().to_string(),
            ]),
        };
        let handle = std::thread::spawn(move || serve(&cfg, None));
        let mut server = Server {
            addr: String::new(),
            ready_s: 0.0,
            dir: dir.to_path_buf(),
            handle: Some(handle),
        };
        loop {
            if server.addr.is_empty() {
                if let Ok(a) = fs::read_to_string(&port_file) {
                    server.addr = a.trim().to_string();
                }
            }
            if !server.addr.is_empty() && server.count("ready-") >= WORKERS {
                server.ready_s = t.elapsed().as_secs_f64();
                return Ok(server);
            }
            if server.handle.as_ref().is_some_and(JoinHandle::is_finished) {
                return Err(match server.join() {
                    Err(e) => format!("server exited during start-up: {e}"),
                    Ok(()) => "server exited during start-up".to_string(),
                });
            }
            if t.elapsed() > Duration::from_secs(60) {
                return Err("server pool not ready after 60 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn count(&self, prefix: &str) -> usize {
        fs::read_dir(&self.dir).map_or(0, |d| {
            d.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .count()
        })
    }

    fn join(&mut self) -> Result<(), String> {
        match self.handle.take() {
            Some(h) => h.join().map_err(|_| "server thread panicked".to_string())?,
            None => Ok(()),
        }
    }

    /// Drains the server, waits for it and its workers to exit, and
    /// returns the largest worker's peak resident memory in MiB.
    pub fn stop(mut self) -> Result<f64, String> {
        self.drain()?;
        self.join()?;
        let mut peak_kb = 0u64;
        for e in fs::read_dir(&self.dir)
            .map_err(|e| e.to_string())?
            .flatten()
        {
            if e.file_name().to_string_lossy().starts_with("rss-") {
                let kb = fs::read_to_string(e.path()).unwrap_or_default();
                peak_kb = peak_kb.max(kb.trim().parse().unwrap_or(0));
            }
        }
        if peak_kb == 0 {
            return Err("no worker reported its peak memory".to_string());
        }
        Ok(peak_kb as f64 / 1024.0)
    }

    fn drain(&self) -> Result<(), String> {
        let mut s = TcpStream::connect(&self.addr)
            .map_err(|e| format!("cannot connect to the server to drain it: {e}"))?;
        write_frame(&mut s, "DRAIN").map_err(|e| e.to_string())?;
        match read_frame(&mut s).map_err(|e| e.to_string())? {
            Some(r) if r == "OK" => Ok(()),
            other => Err(format!("unexpected reply to DRAIN: {other:?}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.handle.is_some() {
            if self.addr.is_empty() || self.drain().is_err() {
                // Not listening yet or unreachable: the server loop cannot
                // be stopped from here, so leave the thread to the process
                // exit rather than block forever.
                self.handle.take();
                return;
            }
            let _ = self.join();
        }
    }
}

/// `grid_served`: the paper grid through `vex serve` (fresh server per
/// grid), then cached resubmissions of the same spec from one client.
pub fn served(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let mut off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut ready_ms = Vec::new();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut rates = Vec::new();
    let mut resubmit_ms = Vec::new();
    let mut rss: f64 = 0.0;
    let mut grids: Vec<(f64, SweepOutcome)> = Vec::new();
    let mut jsons: Vec<String> = Vec::new();
    let started = Instant::now();
    let mut slowest = 0.0f64;
    let mut i = 0;
    while another(i, MIN_SERVED_GRIDS, started, slowest, ctx.seconds) {
        let t = Instant::now();
        let text = load_spec(ctx.seed)?;
        parse(&text)?;
        let server = Server::start(ctx, &ctx.tmp.join(format!("serve{i}")))?;
        setups.push(t.elapsed().as_secs_f64());
        ready_ms.push(server.ready_s * 1e3);

        let traced = tracer.on() && i % 2 == 1;
        let tr = if traced { &mut *tracer } else { &mut off };
        let req = (i as u64) << 32;
        let t0 = Instant::now();
        let root = tr.open("grid_served", UNACCOUNTED, req, None);
        let sub_span = tr.open(
            "vex_serve::submit",
            "vex-serve (client, server, wire)",
            req,
            Some(root),
        );
        let sub = submit(&server.addr, &text, None, POLL_MS)?;
        tr.close(sub_span);
        point_spans(tr, sub_span, &sub.outcome);
        let json = tr.time("verify", "benchmark verify", root, || {
            zero_wall_json(&sub.outcome)
        });
        tr.close(root);
        let wall = t0.elapsed().as_secs_f64();
        if sub.enqueued != sub.total {
            report.fail(
                1,
                format!(
                    "grid_served grid {i}: fresh server scheduled {} of {}",
                    sub.enqueued, sub.total
                ),
            );
        }

        for r in 0..RESUBMITS_PER_GRID {
            let rreq = req | (r as u64 + 1);
            let t1 = Instant::now();
            let root = tr.open("resubmit", UNACCOUNTED, rreq, None);
            let again = tr.time(
                "vex_serve::submit",
                "vex-serve (client, server, wire)",
                root,
                || submit(&server.addr, &text, None, POLL_MS),
            )?;
            tr.close(root);
            resubmit_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            report.attempted += 1;
            if again.enqueued != 0 || zero_wall_json(&again.outcome) != json {
                report.fail(
                    1,
                    format!(
                        "grid_served grid {i} resubmission {r}: scheduled {} point(s) or returned different bytes",
                        again.enqueued
                    ),
                );
            }
        }
        rss = rss.max(server.stop()?);

        if traced {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
            rates.push(insts(&sub.outcome) / wall);
        }
        jsons.push(json);
        grids.push((wall, sub.outcome));
        slowest = slowest.max(t.elapsed().as_secs_f64());
        i += 1;
    }

    // More set-up samples: idle servers, started and drained.
    while setups.len() < SERVER_STARTS {
        let t = Instant::now();
        parse(&load_spec(ctx.seed)?)?;
        let server = Server::start(ctx, &ctx.tmp.join(format!("idle{}", setups.len())))?;
        setups.push(t.elapsed().as_secs_f64());
        ready_ms.push(server.ready_s * 1e3);
        rss = rss.max(server.stop()?);
    }

    // The reference: the same spec in-process, after the timed phase.
    let reference = run_inproc(&parse(&load_spec(ctx.seed)?)?)?;
    let want = zero_wall_json(&reference);
    if !reference.errors.is_empty() {
        return Err(format!(
            "in-process reference grid has {} failed point(s)",
            reference.errors.len()
        ));
    }
    if ctx.seed == 0 && digest(&want) != REFERENCE_DIGEST {
        return Err("in-process reference grid does not match the recorded digest".to_string());
    }
    for (k, ((_, o), json)) in grids.iter().zip(&jsons).enumerate() {
        check_grid(
            &mut report,
            &format!("grid_served grid {k}"),
            o,
            json,
            &want,
        );
    }

    report.notes.push(format!(
        "{} served grid(s) of {} points, {} worker processes; op = one cached resubmission \
         from 1 client ({} samples, poll interval {POLL_MS} ms)",
        grids.len(),
        grids[0].1.points.len(),
        WORKERS,
        resubmit_ms.len()
    ));
    report.note_walls("grid", &walls, &traced_walls);
    report.end_to_end = vec![
        metric("wall_s", median(&walls), "s"),
        metric("setup_s", median(&setups), "s"),
        metric("sim_insts_per_s", median(&rates), "inst/s"),
        metric("op_p50_ms", pct(&resubmit_ms, 0.5)?, "ms"),
        metric("op_p75_ms", pct(&resubmit_ms, 0.75)?, "ms"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    if tracer.on() {
        report.layers = grid_layers("serve", &grids);
        report
            .layers
            .push(metric("serve.ready_ms", median(&ready_ms), "ms"));
        report.traced("grid_served", tracer, &walls, &traced_walls);
        report.table(tracer, "resubmit");
    }
    Ok(report)
}
