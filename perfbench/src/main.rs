//! End-to-end and per-layer benchmark of the reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid_inproc|grid_served|fuzz_diff --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). The exit code is nonzero when any output check failed.
//! See `perfbench/README.md`.

mod fuzz;
mod grid;
mod probe;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-up samples per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// Times a workload's set-up step: [`SETUP_REPS`] samples, each the mean
/// of `inner` back-to-back repetitions (so a step of a few nanoseconds is
/// still resolved). Returns the samples and the last set-up's product.
pub fn setup_samples<T>(
    inner: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        for _ in 0..inner {
            last = Some(std::hint::black_box(f()?));
        }
        samples.push(t.elapsed().as_secs_f64() / inner as f64);
    }
    Ok((samples, last.expect("SETUP_REPS > 0")))
}

/// Every per-layer metric, in report order.
const PER_LAYER: &[&str] = &[
    "spec.parse_us",
    "spec.expand_us",
    "compile.ms_per_program",
    "jobs.digest_ms_per_program",
    "jobs.spec_point_keys_ms",
    "journal.append_us",
    "journal.append_p90_us",
    "sweep.overhead_ms_per_point",
    "sweep.engine_busy_frac",
    "serve.overhead_ms_per_point",
    "serve.engine_busy_frac",
    "serve.ready_ms",
    "prepare.us_per_program",
    "engine.ns_per_sim_cycle",
    "engine.ns_per_sim_cycle.CSMT",
    "engine.ns_per_sim_cycle.CCSI_NS",
    "engine.ns_per_sim_cycle.CCSI_AS",
    "engine.ns_per_sim_cycle.SMT",
    "engine.ns_per_sim_cycle.COSI_NS",
    "engine.ns_per_sim_cycle.COSI_AS",
    "engine.ns_per_sim_cycle.OOSI_NS",
    "engine.ns_per_sim_cycle.OOSI_AS",
    "engine.setup_us",
    "oracle.interpret_us",
    "gen.generate_us",
    "gen.check_program_ms",
    "analyze.us_per_program",
    "mem.digest_us",
    "model.sim_cycles",
    "model.sim_insts",
    "model.wasted_slots",
    "model.merged_cycles",
    "model.memport_stall_cycles",
    "trace.overhead_frac",
];

/// Where one run keeps its journals and worker markers (removed at exit).
const TMP_DIR: &str = ".perfbench_tmp";
/// Where traced runs write their spans.
const OUT_DIR: &str = ".perfbench_out";

/// What a workload run needs to know.
pub struct Ctx {
    /// Workload seed: offsets the spec's base seed and the fuzz seed base.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: f64,
    /// Private scratch directory inside the checkout.
    pub tmp: PathBuf,
    /// This binary, spawned as the service's worker processes.
    pub exe: PathBuf,
}

/// One named measurement.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a workload run reports.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (grid points, resubmissions, fuzz seeds).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first failure messages.
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics the workload measured itself (traced runs).
    pub layers: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts `n` failed operations.
    pub fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    /// Notes each timed operation's wall time.
    pub fn note_walls(&mut self, what: &str, untraced: &[f64], traced: &[f64]) {
        let list = |xs: &[f64]| {
            xs.iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let mut line = format!("{what} wall_s: {}", list(untraced));
        if !traced.is_empty() {
            let _ = write!(line, " (traced: {})", list(traced));
        }
        self.notes.push(line);
    }

    /// Adds the traced-run results of a workload whose timed operations
    /// are the span trees rooted at `root`: the tracing overhead and the
    /// layer-share table.
    pub fn traced(&mut self, root: &str, tracer: &Tracer, untraced: &[f64], traced: &[f64]) {
        let overhead = stats::median(traced) / stats::median(untraced) - 1.0;
        self.layers
            .push(metric("trace.overhead_frac", overhead, "frac"));
        self.table(tracer, root);
    }

    /// Appends the layer-share table of the span trees rooted at `root`.
    pub fn table(&mut self, tracer: &Tracer, root: &str) {
        let (layers, total) = trace::layer_shares(tracer.spans(), root);
        let requests = tracer
            .spans()
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .count();
        let mut t =
            format!("layer shares of `{root}` ({requests} traced request(s), {total:.4} s):\n");
        for (layer, secs) in &layers {
            let _ = writeln!(
                t,
                "  {:<40} {:>7.2}%  {secs:>10.4} s",
                layer,
                secs / total * 100.0
            );
        }
        let sum: f64 = layers.iter().map(|l| l.1).sum();
        let _ = write!(
            t,
            "  {:<40} {:>7.2}%  {sum:>10.4} s (= traced wall_s)",
            "sum",
            sum / total * 100.0
        );
        self.notes.push(t);
    }
}

/// Whether iteration `i` runs: the first `min` always do; after that one
/// more starts only if, at the slowest iteration's pace, it ends within
/// the budget.
pub fn another(i: usize, min: usize, started: Instant, slowest: f64, seconds: f64) -> bool {
    i < min || started.elapsed().as_secs_f64() + slowest <= seconds
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(vm_hwm_kb()? as f64 / 1024.0)
}

fn vm_hwm_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// `worker --ready-dir DIR --connect ADDR`: one service worker process.
/// Marks itself started in DIR, serves until told to shut down, then
/// leaves its peak resident memory there.
fn worker(args: &[String]) -> Result<(), String> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("worker: missing {flag}"))
    };
    let dir = PathBuf::from(value("--ready-dir")?);
    let addr = value("--connect")?;
    let pid = std::process::id();
    std::fs::write(dir.join(format!("ready-{pid}")), "").map_err(|e| e.to_string())?;
    vex_serve::worker_main(addr, None)?;
    std::fs::write(dir.join(format!("rss-{pid}")), vm_hwm_kb()?.to_string())
        .map_err(|e| e.to_string())
}

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: 0,
        seconds: 30.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => o.workload = v.clone(),
            "--seed" => {
                o.seed = v
                    .parse::<u32>()
                    .map_err(|_| format!("bad seed `{v}` (0 to {})", u32::MAX))?
                    .into();
            }
            "--seconds" => {
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds `{v}`"))?;
            }
            "--trace" => {
                o.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag `{v}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    if !["grid_inproc", "grid_served", "fuzz_diff"].contains(&o.workload.as_str()) {
        return Err(format!(
            "--workload must be grid_inproc, grid_served or fuzz_diff (got `{}`)",
            o.workload
        ));
    }
    Ok(o)
}

/// Runs the workload and, when traced, the layer probe.
fn measure(o: &Options, ctx: &Ctx, tracer: &mut Tracer) -> Result<(Report, Vec<Metric>), String> {
    let mut report = match o.workload.as_str() {
        "grid_inproc" => grid::inproc(ctx, tracer)?,
        "grid_served" => grid::served(ctx, tracer)?,
        _ => fuzz::run(ctx, tracer)?,
    };
    if !o.trace {
        let e2e = std::mem::take(&mut report.end_to_end);
        return Ok((report, e2e));
    }
    // The probe's values, replaced by the workload's own where it has them.
    let mut layers = probe::run(ctx)?;
    for m in std::mem::take(&mut report.layers) {
        match layers.iter_mut().find(|l| l.name == m.name) {
            Some(l) => *l = m,
            None => layers.push(m),
        }
    }
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for name in PER_LAYER {
        let i = layers
            .iter()
            .position(|m| m.name == *name)
            .ok_or_else(|| format!("per-layer metric `{name}` was not measured"))?;
        ordered.push(layers.swap_remove(i));
    }
    report
        .notes
        .extend(std::mem::take(&mut report.end_to_end).iter().map(|m| {
            format!(
                "  (traced run) {:<21} {:>16} {}",
                m.name,
                human(m.value),
                m.unit
            )
        }));
    Ok((report, ordered))
}

/// A value for people: scientific notation when fixed point would hide
/// its digits.
fn human(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else {
        format!("{v:.6}")
    }
}

fn result_json(report: &Report, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        return match worker(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tmp = PathBuf::from(TMP_DIR).join(format!("{}-{}", o.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create `{}`: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: o.seed,
        seconds: o.seconds,
        tmp: tmp.canonicalize().unwrap_or(tmp.clone()),
        exe,
    };
    let mut tracer = Tracer::new(o.trace);
    let measured = measure(&o, &ctx, &mut tracer);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(TMP_DIR);
    let (report, metrics) = match measured {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric `{}` is not a finite number", m.name);
        return ExitCode::FAILURE;
    }

    println!(
        "perfbench {} seed={} seconds={} trace={} available_parallelism={}",
        o.workload,
        o.seed,
        o.seconds,
        o.trace as u8,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for n in &report.notes {
        println!("{n}");
    }
    for m in &metrics {
        println!("  {:<34} {:>16} {}", m.name, human(m.value), m.unit);
    }
    println!(
        "  {:<34} {:>16.6} ({} of {} operations failed)",
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for p in &report.problems {
        println!("  FAILED: {p}");
    }
    if o.trace {
        let path = PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.tsv", o.workload, o.seed));
        match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, tracer.to_tsv()))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write `{}`: {e}", path.display()),
        }
    }
    println!("{}", result_json(&report, &metrics));
    if report.failed > 0 || report.attempted == 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
