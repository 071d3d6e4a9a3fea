//! `fuzz_diff`: generate → analyze → differential check over consecutive
//! seed ranges on the paper machine, single-threaded like `vex fuzz`.

use crate::stats::{median, percentile};
use crate::trace::{Tracer, UNACCOUNTED};
use crate::{another, metric, peak_rss_mb, setup_samples, Ctx, Report};
use std::sync::Arc;
use std::time::Instant;
use vex_gen::diff::{check_program, THREAD_COUNTS};
use vex_gen::{generate, GenConfig};
use vex_isa::{MachineConfig, Program};
use vex_sim::Technique;

/// Fuzz seeds per timed batch (one `wall_s` sample).
pub const BATCH: u64 = 200;

/// Machine constructions averaged per set-up sample.
const MACHINE_BUILDS: usize = 10_000;

/// Same bound as the differential harness's oracle.
pub const ORACLE_INST_BOUND: u64 = 5_000_000;

/// First fuzz seed of a run with workload seed `seed`: disjoint ranges of
/// a million seeds per workload seed.
pub fn seed_base(seed: u64) -> u64 {
    seed.wrapping_mul(1_000_000)
}

/// Engine runs per checked program: every Figure 16 technique × every
/// thread count, each context running the program once.
pub fn contexts_per_program() -> u64 {
    Technique::FIGURE16_SET.len() as u64 * THREAD_COUNTS.iter().map(|&n| n as u64).sum::<u64>()
}

/// Generates the program of fuzz seed `seed` on `machine`.
pub fn program(machine: &MachineConfig, seed: u64) -> Result<Program, String> {
    generate(&GenConfig::new(machine.clone(), seed))
}

/// Runs `fuzz_diff`.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let (setups, machine) = setup_samples(MACHINE_BUILDS, || Ok(MachineConfig::paper_4c4w()))?;
    let base = seed_base(ctx.seed);

    let mut off = Tracer::new(false);
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut rates = Vec::new();
    let mut seed_ms = Vec::new();
    let started = Instant::now();
    let mut slowest = 0.0f64;
    let mut j = 0;
    while another(j, 3, started, slowest, ctx.seconds) {
        let traced = tracer.on() && j % 2 == 1;
        let tr = if traced { &mut *tracer } else { &mut off };
        let mut programs = Vec::with_capacity(BATCH as usize);
        let mut lat = Vec::with_capacity(BATCH as usize);
        let t0 = Instant::now();
        let root = tr.open("fuzz_batch", UNACCOUNTED, j as u64, None);
        for k in 0..BATCH {
            let seed = base.wrapping_add(j as u64 * BATCH + k);
            let t = Instant::now();
            report.attempted += 1;
            let p = tr.time("vex_gen::generate", "vex-gen generate", root, || {
                program(&machine, seed)
            });
            let p = match p {
                Ok(p) => Arc::new(p),
                Err(e) => {
                    report.fail(1, format!("fuzz seed {seed}: generator error: {e}"));
                    continue;
                }
            };
            let analysis = tr.time("vex_analyze::analyze", "vex-analyze", root, || {
                vex_analyze::analyze(&p, &machine)
            });
            if !analysis.is_clean() {
                report.fail(
                    1,
                    format!(
                        "fuzz seed {seed}: {} static-analysis error(s)",
                        analysis.errors()
                    ),
                );
                continue;
            }
            let checked = tr.time(
                "check_program",
                "vex-gen diff (oracle + 24 engine runs)",
                root,
                || check_program(&p, &machine),
            );
            if let Err(m) = checked {
                report.fail(1, format!("fuzz seed {seed}: {m}"));
                continue;
            }
            lat.push(t.elapsed().as_secs_f64() * 1e3);
            programs.push(p);
        }
        tr.close(root);
        let wall = t0.elapsed().as_secs_f64();
        if traced {
            traced_walls.push(wall);
        } else {
            // Simulated instructions, counted outside the timed batch:
            // every clean check ran each context to the oracle's
            // retirement count.
            let insts: u64 = programs
                .iter()
                .map(|p| vex_sim::interpret(p, ORACLE_INST_BOUND).insts_retired)
                .sum();
            rates.push((insts * contexts_per_program()) as f64 / wall);
            walls.push(wall);
            seed_ms.extend(lat);
        }
        slowest = slowest.max(wall);
        j += 1;
    }

    report.notes.push(format!(
        "{j} batch(es) of {BATCH} seeds from seed {base}, single-threaded; op = one seed's \
         generate + analyze + check ({} samples)",
        seed_ms.len()
    ));
    report.note_walls("batch", &walls, &traced_walls);
    let p = |q| percentile(&seed_ms, q).ok_or("too few clean fuzz seeds for a percentile");
    report.end_to_end = vec![
        metric("wall_s", median(&walls), "s"),
        metric("setup_s", median(&setups), "s"),
        metric("sim_insts_per_s", median(&rates), "inst/s"),
        metric("op_p50_ms", p(0.5)?, "ms"),
        metric("op_p75_ms", p(0.75)?, "ms"),
        metric("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ];
    if tracer.on() {
        report.traced("fuzz_batch", tracer, &walls, &traced_walls);
    }
    Ok(report)
}
