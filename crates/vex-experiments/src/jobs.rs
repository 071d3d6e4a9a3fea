//! The reusable job model shared by the in-process [`SweepRunner`]
//! (crate::SweepRunner) and the `vex serve` sweep service: program
//! preparation + content-addressed point keys, and the single-point spec
//! conversion the service uses as its assignment wire format.
//!
//! The unit of work everywhere is a *point job*: one [`RunSpec`] plus its
//! FNV-64 [`point_key`](crate::point_key), which hashes every
//! result-affecting field and the member programs' compiled digests. The
//! key is what makes work distributable: any process that expands the
//! same spec against the same programs derives the same keys, so results
//! can be cached, journaled and exchanged between processes without
//! trusting anything but the key.

use crate::journal::{point_key, program_digest};
use crate::lock_clean;
use crate::runner::ProgramLoader;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use vex_isa::MachineConfig;
use vex_sim::PreparedProgram;
use vex_spec::{RunSpec, SweepSpec, WorkloadRef};
use vex_workloads::compile_benchmark_for;

/// Every distinct (machine index, member name) program of a spec, mapped
/// to its prepared form and compiled digest — the shared input of
/// [`key_of`] and [`workload_of`].
pub type PreparedMap = HashMap<(usize, String), (PreparedProgram, u64)>;

/// Built-in programs keyed by the full machine geometry and benchmark
/// name. Never keyed by machine index or name: two specs may give
/// different geometries the same index or name.
type BuiltinMemo = HashMap<(MachineConfig, String), (PreparedProgram, u64)>;

/// The process-wide memo behind [`prepare_programs`]. It holds exactly the
/// built-ins the latest successful call used, so a server keeps its last
/// spec's programs and a worker its last assignment's (at most 4).
fn builtin_memo() -> &'static Mutex<BuiltinMemo> {
    static MEMO: OnceLock<Mutex<BuiltinMemo>> = OnceLock::new();
    MEMO.get_or_init(Mutex::default)
}

/// Prepares every distinct (machine index, member) program of `points`
/// exactly once: compiled for built-ins, resolved through `loader` for
/// `.vex`/`.vexb` paths (an error if a path member appears and no loader
/// is plugged in). Returns the prepared program and its digest, keyed for
/// lookup from any point.
///
/// Built-ins are memoized across calls: a resubmitted spec, or a worker's
/// next point of the same mix, reuses the compiled, decoded and digested
/// program instead of rebuilding it. Each call replaces the memo with its
/// own working set, which bounds it without a capacity setting. Path
/// members are never memoized — a file can change between calls — so they
/// are loaded, validated, analyzed and digested every time.
pub fn prepare_programs(
    points: &[RunSpec],
    loader: Option<ProgramLoader<'_>>,
) -> Result<PreparedMap, String> {
    prepare_with(builtin_memo(), points, loader)
}

/// [`prepare_programs`] against an explicit memo. The lock is never held
/// while compiling, and a poisoned lock is shrugged off: the memo is only
/// ever replaced whole, so a panic cannot leave it torn.
fn prepare_with(
    memo: &Mutex<BuiltinMemo>,
    points: &[RunSpec],
    loader: Option<ProgramLoader<'_>>,
) -> Result<PreparedMap, String> {
    let mut prepared: PreparedMap = HashMap::new();
    let mut used = BuiltinMemo::new();
    for p in points {
        for member in &p.mix.members {
            let key = (p.machine_index, member.as_str().to_string());
            if prepared.contains_key(&key) {
                continue;
            }
            let machine = &p.machine.config;
            let entry = match member {
                WorkloadRef::Builtin(name) => {
                    let memo_key = (machine.clone(), name.clone());
                    let hit = lock_clean(memo).get(&memo_key).cloned();
                    let entry = match hit {
                        Some(entry) => entry,
                        None => prepare_entry(
                            compile_benchmark_for(name, machine)
                                .map_err(|e| format!("mix `{}`: {e}", p.mix.name))?,
                        ),
                    };
                    used.insert(memo_key, entry.clone());
                    entry
                }
                WorkloadRef::Path(path) => {
                    let Some(loader) = loader else {
                        return Err(format!(
                            "mix `{}` member `{path}` is a program file but this runner \
                             has no loader (run it through the `vex` CLI)",
                            p.mix.name
                        ));
                    };
                    let program = loader(path)?;
                    program.validate(machine).map_err(|e| {
                        format!("`{path}` does not fit machine `{}`: {e}", p.machine.name)
                    })?;
                    // Structural validation is per-instruction; the static
                    // analyzer additionally proves whole-program properties
                    // (branch targets, channel pairing, constant-address
                    // bounds). Rejecting here keeps a doomed program from
                    // ever being scheduled onto a worker.
                    let report = vex_analyze::analyze(&program, machine);
                    if !report.is_clean() {
                        let first = report
                            .error_diags()
                            .next()
                            .map(std::string::ToString::to_string)
                            .unwrap_or_default();
                        return Err(format!(
                            "`{path}` fails static analysis on machine `{}` with {} error(s); \
                             first: {first} (run `vex check {path}` for the full report)",
                            p.machine.name,
                            report.errors()
                        ));
                    }
                    prepare_entry(Arc::new(program))
                }
            };
            prepared.insert(key, entry);
        }
    }
    *lock_clean(memo) = used;
    Ok(prepared)
}

/// Decodes `program` and computes its digest.
fn prepare_entry(program: Arc<vex_isa::Program>) -> (PreparedProgram, u64) {
    let digest = program_digest(&program);
    (PreparedProgram::prepare(program), digest)
}

/// The [`prepare_programs`] entry of `run`'s member `member`.
fn entry_of<'a>(
    run: &RunSpec,
    member: &WorkloadRef,
    prepared: &'a PreparedMap,
) -> &'a (PreparedProgram, u64) {
    &prepared[&(run.machine_index, member.as_str().to_string())]
}

/// The content-addressed key of `run`, looked up against a
/// [`prepare_programs`] table.
pub fn key_of(run: &RunSpec, prepared: &PreparedMap) -> u64 {
    let member_digests: Vec<u64> = run
        .mix
        .members
        .iter()
        .map(|m| entry_of(run, m, prepared).1)
        .collect();
    point_key(run, &member_digests)
}

/// The engine workload of `run`: its member programs in mix order, looked
/// up against a [`prepare_programs`] table.
pub fn workload_of(run: &RunSpec, prepared: &PreparedMap) -> Vec<PreparedProgram> {
    run.mix
        .members
        .iter()
        .map(|m| entry_of(run, m, prepared).0.clone())
        .collect()
}

/// Expands `spec` and computes every point's content-addressed key —
/// what a scheduler needs to enqueue, dedup and cache jobs without
/// simulating anything. Compilation cost is paid once per distinct
/// (machine, member) pair, exactly as in the runner, and not at all for
/// built-ins the previous call already prepared.
pub fn spec_point_keys(
    spec: &SweepSpec,
    loader: Option<ProgramLoader<'_>>,
) -> Result<Vec<(RunSpec, u64)>, String> {
    let points = spec.expand();
    if points.is_empty() {
        return Err(format!(
            "spec `{}` expands to no run points (empty axis)",
            spec.name
        ));
    }
    let prepared = prepare_programs(&points, loader)?;
    Ok(points
        .into_iter()
        .map(|run| {
            let key = key_of(&run, &prepared);
            (run, key)
        })
        .collect())
}

/// Wraps one resolved point back into a spec that expands to exactly that
/// point — the sweep service's assignment wire format. The canonical
/// printer emits every result-affecting field explicitly (including the
/// mix's resolved seed and the full machine geometry), and
/// `parse(print(spec)) == spec`, so a worker that parses the printed form
/// recomputes the identical [`point_key`](crate::point_key).
pub fn single_point_spec(run: &RunSpec) -> SweepSpec {
    let mut spec = SweepSpec::base(vex_sim::Scale {
        inst_limit: run.inst_limit,
        timeslice: run.timeslice,
    });
    spec.name = run.spec_name.clone();
    spec.max_cycles = run.max_cycles;
    spec.retries = 0;
    spec.seed = run.mix.seed;
    spec.threads = vec![run.threads];
    spec.techniques = vec![run.technique];
    spec.renaming = run.renaming;
    spec.memory = run.memory;
    spec.mt = run.mt;
    spec.respawn = run.respawn;
    spec.caches = run.caches;
    spec.trace = None;
    spec.journal = None;
    spec.machines = vec![run.machine.clone()];
    spec.mixes = vec![run.mix.clone()];
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_sim::{Scale, Technique};
    use vex_spec::{MachineSpec, MixSpec};

    fn spec() -> SweepSpec {
        let mut spec = SweepSpec::base(Scale {
            inst_limit: 500,
            timeslice: 250,
        });
        spec.name = "jobs-test".into();
        spec.techniques = vec![Technique::csmt(), Technique::smt()];
        spec.threads = vec![2];
        spec.mixes = vec![MixSpec::builtin("llll", 7)];
        spec
    }

    #[test]
    fn point_keys_are_distinct_and_stable() {
        let spec = spec();
        let a = spec_point_keys(&spec, None).unwrap();
        let b = spec_point_keys(&spec, None).unwrap();
        assert_eq!(a.len(), 2);
        assert_ne!(a[0].1, a[1].1);
        for ((_, ka), (_, kb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
        }
    }

    #[test]
    fn single_point_spec_round_trips_the_key() {
        let spec = spec();
        for (run, key) in spec_point_keys(&spec, None).unwrap() {
            let single = single_point_spec(&run);
            // Over the wire: print, parse, expand, re-key.
            let printed = single.print();
            let parsed = SweepSpec::parse(&printed).unwrap();
            let points = spec_point_keys(&parsed, None).unwrap();
            assert_eq!(points.len(), 1, "single-point spec must stay single");
            assert_eq!(points[0].1, key, "key must survive the wire format");
            assert_eq!(points[0].0.label(), run.label());
        }
    }

    /// `spec()` with one built-in `mix` on each of `machines`.
    fn spec_on(machines: Vec<MachineSpec>, mix: &str) -> SweepSpec {
        let mut spec = spec();
        spec.machines = machines;
        spec.mixes = vec![MixSpec::builtin(mix, 7)];
        spec
    }

    /// The narrow 2-cluster geometry, deliberately named like the paper
    /// machine: the memo must tell geometries apart, not names or indices.
    fn narrow_named_paper() -> MachineSpec {
        MachineSpec {
            name: "paper".into(),
            config: MachineConfig::narrow_2c(),
        }
    }

    fn memo_has(memo: &Mutex<BuiltinMemo>, machine: &MachineConfig, name: &str) -> bool {
        lock_clean(memo).contains_key(&(machine.clone(), name.to_string()))
    }

    #[test]
    fn warm_keys_equal_cold_and_hand_computed_keys() {
        let spec = spec();
        let points = spec.expand();
        let by_hand: Vec<u64> = points
            .iter()
            .map(|run| {
                let digests: Vec<u64> = run
                    .mix
                    .members
                    .iter()
                    .map(|m| {
                        program_digest(
                            &compile_benchmark_for(m.as_str(), &run.machine.config).unwrap(),
                        )
                    })
                    .collect();
                point_key(run, &digests)
            })
            .collect();

        let memo = Mutex::default();
        let cold = prepare_with(&memo, &points, None).unwrap();
        let warm = prepare_with(&memo, &points, None).unwrap();
        for (run, expected) in points.iter().zip(&by_hand) {
            assert_eq!(key_of(run, &cold), *expected, "cold key of {}", run.label());
            assert_eq!(key_of(run, &warm), *expected, "warm key of {}", run.label());
        }
        // The warm call reused the cold call's programs.
        for (key, (program, _)) in &cold {
            assert!(Arc::ptr_eq(&program.program, &warm[key].0.program));
        }

        // The process-wide memo agrees, cold or warm.
        for _ in 0..2 {
            let keys: Vec<u64> = spec_point_keys(&spec, None)
                .unwrap()
                .into_iter()
                .map(|(_, key)| key)
                .collect();
            assert_eq!(keys, by_hand);
        }
    }

    #[test]
    fn one_kernel_name_on_two_geometries_does_not_alias() {
        let paper = spec_on(vec![MachineSpec::paper()], "llhh");
        let narrow = spec_on(vec![narrow_named_paper()], "llhh");
        let both = spec_on(vec![MachineSpec::paper(), narrow_named_paper()], "llhh");
        let memo = Mutex::default();
        // Warm the memo on one geometry, then ask for the other under the
        // same machine index and name, then for both at once.
        for spec in [&paper, &narrow, &both, &paper] {
            let points = spec.expand();
            let prepared = prepare_with(&memo, &points, None).unwrap();
            for run in &points {
                for m in &run.mix.members {
                    let fresh = compile_benchmark_for(m.as_str(), &run.machine.config).unwrap();
                    assert_eq!(
                        prepared[&(run.machine_index, m.as_str().to_string())].1,
                        program_digest(&fresh),
                        "`{m:?}` on {:?}",
                        run.machine.config
                    );
                }
            }
        }
        let prepared = prepare_with(&memo, &both.expand(), None).unwrap();
        for name in ["mcf", "blowfish", "x264", "idct"] {
            assert_ne!(
                prepared[&(0, name.to_string())].1,
                prepared[&(1, name.to_string())].1,
                "`{name}` must compile differently for the two geometries"
            );
        }
    }

    #[test]
    fn rewritten_path_member_changes_the_key() {
        let dir = std::env::temp_dir().join(format!("vex-jobs-memo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("member.vex");
        // Stands in for the `.vex` parser: the file names the built-in
        // whose compiled program it holds, so rewriting the file changes
        // the program behind an unchanged path.
        let loader = |path: &str| -> Result<vex_isa::Program, String> {
            let name = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            compile_benchmark_for(name.trim(), &MachineConfig::paper_4c4w()).map(|p| (*p).clone())
        };
        let mut spec = spec();
        spec.mixes = vec![MixSpec {
            name: "file".into(),
            members: vec![WorkloadRef::Path(path.to_string_lossy().into_owned())],
            seed: 7,
        }];
        let key_with = |name: &str| {
            std::fs::write(&path, name).unwrap();
            spec_point_keys(&spec, Some(&loader)).unwrap()[0].1
        };
        let mcf = key_with("mcf");
        let idct = key_with("idct");
        assert_ne!(mcf, idct, "a rewritten member file must change the key");
        assert_eq!(key_with("mcf"), mcf, "the key follows the content back");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memo_keeps_only_the_latest_working_set() {
        let paper = MachineConfig::paper_4c4w();
        let memo = Mutex::default();
        prepare_with(
            &memo,
            &spec_on(vec![MachineSpec::paper()], "llll").expand(),
            None,
        )
        .unwrap();
        assert_eq!(lock_clean(&memo).len(), 4);
        let mcf = lock_clean(&memo)[&(paper.clone(), "mcf".to_string())].clone();

        // llhh shares mcf and blowfish with llll; bzip2 and gsmencode
        // were used only by the previous call and must be gone.
        let llhh = spec_on(vec![MachineSpec::paper()], "llhh").expand();
        prepare_with(&memo, &llhh, None).unwrap();
        assert_eq!(lock_clean(&memo).len(), 4);
        for name in ["mcf", "blowfish", "x264", "idct"] {
            assert!(memo_has(&memo, &paper, name), "`{name}` was just used");
        }
        for name in ["bzip2", "gsmencode"] {
            assert!(!memo_has(&memo, &paper, name), "`{name}` was not used");
        }
        let kept = lock_clean(&memo)[&(paper.clone(), "mcf".to_string())].clone();
        assert!(
            Arc::ptr_eq(&mcf.0.program, &kept.0.program),
            "mcf was reused"
        );

        // A second geometry replaces the first one's entries wholesale.
        let narrow = spec_on(vec![narrow_named_paper()], "llhh").expand();
        prepare_with(&memo, &narrow, None).unwrap();
        assert_eq!(lock_clean(&memo).len(), 4);
        assert!(!memo_has(&memo, &paper, "mcf"));
        assert!(memo_has(&memo, &MachineConfig::narrow_2c(), "mcf"));
    }

    #[test]
    fn compile_errors_are_returned_and_never_stored() {
        let tiny = MachineSpec {
            name: "tiny".into(),
            config: MachineConfig {
                n_gprs: 8,
                ..MachineConfig::paper_4c4w()
            },
        };
        let memo = Mutex::default();
        let llll = spec_on(vec![MachineSpec::paper()], "llll").expand();
        prepare_with(&memo, &llll, None).unwrap();
        let err = prepare_with(&memo, &spec_on(vec![tiny], "llll").expand(), None).unwrap_err();
        assert!(err.contains("failed to compile"), "{err}");
        // The failed call stored nothing and left the previous set intact.
        assert_eq!(lock_clean(&memo).len(), 4);
        assert!(memo_has(&memo, &MachineConfig::paper_4c4w(), "mcf"));
    }
}
