//! The layer probe of a traced run: times each layer's public entry
//! point on fixed inputs derived from the workload seed, and runs a small
//! grid in-process and served, so every per-layer metric has a value on
//! every workload. A workload's own measurements replace the probe's
//! grid-level values where the workload exercises that layer.

use crate::fuzz::{program, seed_base, ORACLE_INST_BOUND};
use crate::grid::{self, grid_layers, Server};
use crate::stats::{median, percentile};
use crate::{metric, Ctx, Metric};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use vex_experiments::journal::program_digest;
use vex_experiments::{spec_point_keys, Journal, JournalEntry, SweepRunner};
use vex_isa::{MachineConfig, Program};
use vex_sim::{Engine, MemConfig, MemoryMode, MtMode, PreparedProgram, SimConfig, Technique};
use vex_workloads::{compile_benchmark_for, BENCHMARKS};

/// The probe's grid: two mixes × all eight techniques × {2, 4} threads at
/// QUICK scale (32 points).
pub const PROBE_SPEC: &str =
    "name = \"layer-probe\"\nscale = \"quick\"\nmixes = [\"llll\", \"hhhh\"]\n";

/// Repetitions of each micro-timing.
const REPS: usize = 25;
/// Passes over the twelve benchmark programs.
const PASSES: usize = 3;
/// Generated programs timed per fuzz-layer entry point.
const FUZZ_PROGRAMS: u64 = 20;
/// Journal appends timed: enough for a p90 with ten samples beyond it.
const APPENDS: usize = 100;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median over `reps` runs of `f`, in seconds.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t)
        })
        .collect();
    median(&xs)
}

/// Median over [`PASSES`] of the per-item cost of applying `f` to each
/// of `items`, in seconds.
fn per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    time_median(PASSES, || items.iter().for_each(&mut f)) / items.len() as f64
}

/// Runs the probe.
pub fn run(ctx: &Ctx) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();

    // Spec layer, on the benchmark's own spec.
    let text = grid::load_spec(ctx.seed)?;
    let spec = grid::parse(&text)?;
    out.push(metric(
        "spec.parse_us",
        time_median(REPS, || sink(grid::parse(&text))) * 1e6,
        "us",
    ));
    out.push(metric(
        "spec.expand_us",
        time_median(REPS, || sink(spec.expand())) * 1e6,
        "us",
    ));

    // Compile, digest and decode every benchmark on the paper machine.
    let machine = MachineConfig::paper_4c4w();
    let names: Vec<&str> = BENCHMARKS.iter().map(|b| b.name).collect();
    let mut programs: Vec<Arc<Program>> = Vec::new();
    for name in &names {
        programs.push(compile_benchmark_for(name, &machine)?);
    }
    let compile = per_item(&names, |n| sink(compile_benchmark_for(n, &machine)));
    out.push(metric("compile.ms_per_program", compile * 1e3, "ms"));
    let dig = per_item(&programs, |p| sink(program_digest(p)));
    out.push(metric("jobs.digest_ms_per_program", dig * 1e3, "ms"));
    let prep = per_item(&programs, |p| sink(PreparedProgram::prepare(Arc::clone(p))));
    out.push(metric("prepare.us_per_program", prep * 1e6, "us"));
    let keys = time_median(PASSES, || sink(spec_point_keys(&spec, None)));
    out.push(metric("jobs.spec_point_keys_ms", keys * 1e3, "ms"));

    // Fuzz layers, on the first generated programs of the seed's range.
    let base = seed_base(ctx.seed);
    let mut generated = Vec::new();
    let mut gen_s = Vec::new();
    for k in 0..FUZZ_PROGRAMS {
        let t = Instant::now();
        generated.push(Arc::new(program(&machine, base + k)?));
        gen_s.push(secs(t));
    }
    out.push(metric("gen.generate_us", median(&gen_s) * 1e6, "us"));
    let each = |f: &mut dyn FnMut(&Arc<Program>)| -> f64 {
        let xs: Vec<f64> = generated
            .iter()
            .map(|p| {
                let t = Instant::now();
                f(p);
                secs(t)
            })
            .collect();
        median(&xs)
    };
    let analyze = each(&mut |p| sink(vex_analyze::analyze(p, &machine)));
    out.push(metric("analyze.us_per_program", analyze * 1e6, "us"));
    let oracle = each(&mut |p| sink(vex_sim::interpret(p, ORACLE_INST_BOUND)));
    out.push(metric("oracle.interpret_us", oracle * 1e6, "us"));
    let mut bad = 0;
    let check = each(&mut |p| bad += vex_gen::diff::check_program(p, &machine).is_err() as usize);
    if bad > 0 {
        return Err(format!(
            "layer probe: {bad} generated program(s) failed the differential check"
        ));
    }
    out.push(metric("gen.check_program_ms", check * 1e3, "ms"));
    let cfg = diff_config(&machine);
    let setup = each(&mut |p| sink(Engine::new(cfg.clone(), &[Arc::clone(p), Arc::clone(p)])));
    out.push(metric("engine.setup_us", setup * 1e6, "us"));
    let mut digests = Vec::new();
    for p in &generated {
        let mut engine = Engine::new(cfg.clone(), &[Arc::clone(p), Arc::clone(p)]);
        engine.run();
        let mem = &engine.contexts[0].mem;
        let t = Instant::now();
        std::hint::black_box(mem.digest());
        digests.push(secs(t));
    }
    out.push(metric("mem.digest_us", median(&digests) * 1e6, "us"));

    // A small grid in-process and served: runner, service and engine.
    let probe_spec = grid::parse(&grid::with_seed(PROBE_SPEC, ctx.seed))?;
    let t = Instant::now();
    let local = SweepRunner::new(&probe_spec).workers(grid::WORKERS).run()?;
    let local_wall = secs(t);
    out.extend(grid_layers("sweep", &[(local_wall, local.clone())]));

    let server = Server::start(ctx, &ctx.tmp.join("probe-serve"))?;
    out.push(metric("serve.ready_ms", server.ready_s * 1e3, "ms"));
    let t = Instant::now();
    let sub = vex_serve::submit(
        &server.addr,
        &grid::with_seed(PROBE_SPEC, ctx.seed),
        None,
        grid::POLL_MS,
    )?;
    let served_wall = secs(t);
    server.stop()?;
    if grid::zero_wall_json(&sub.outcome) != grid::zero_wall_json(&local) {
        return Err("layer probe: served probe grid differs from the in-process one".to_string());
    }
    out.extend(
        grid_layers("serve", &[(served_wall, sub.outcome)])
            .into_iter()
            .filter(|m| m.name.starts_with("serve.")),
    );

    // Journal appends with fsync, of a real point's entry.
    let entry = JournalEntry {
        key: local.points[0].key,
        label: local.points[0].run.label(),
        stop: local.points[0].stop,
        wall_secs: local.points[0].wall_secs,
        stats: local.points[0].stats.clone(),
    };
    let path = ctx.tmp.join("probe.vexj");
    let appends = time_appends(&path, &entry)?;
    out.push(metric("journal.append_us", median(&appends) * 1e6, "us"));
    let p90 = percentile(&appends, 0.9).ok_or("too few journal appends for a p90")?;
    out.push(metric("journal.append_p90_us", p90 * 1e6, "us"));
    Ok(out)
}

fn time_appends(path: &Path, entry: &JournalEntry) -> Result<Vec<f64>, String> {
    let mut journal = Journal::create(path)?;
    let mut xs = Vec::with_capacity(APPENDS);
    for _ in 0..APPENDS {
        let t = Instant::now();
        journal.append(entry)?;
        xs.push(secs(t));
    }
    Ok(xs)
}

/// The differential harness's engine configuration (real caches, cluster
/// renaming, simultaneous issue), with two contexts.
fn diff_config(machine: &MachineConfig) -> SimConfig {
    SimConfig {
        machine: machine.clone(),
        caches: MemConfig::paper(),
        technique: Technique::FIGURE16_SET[1].1,
        n_threads: 2,
        renaming: true,
        memory: MemoryMode::Real,
        timeslice: u64::MAX,
        inst_limit: u64::MAX,
        max_cycles: 50_000_000,
        seed: 0xC0FFEE,
        mt_mode: MtMode::Simultaneous,
        respawn: false,
    }
}

/// Consumes a timed call's result so it cannot be optimised away.
fn sink<T>(x: T) {
    std::hint::black_box(x);
}
