//! Cross-target integration tests: the cross-target report must be
//! byte-identical for every thread count, the paper's "hierarchical
//! never worse than Chow or entry/exit" guarantee must hold in-model on
//! every registered target (pairing-aware costs included), and
//! `compare --target T` must run for each registered target on the
//! paper's headline benchmark.

use spillopt_benchgen::{benchmark_by_name, build_bench};
use spillopt_driver::{OptimizerBuilder, ProfileSource, Strategy};
use spillopt_targets::{registry, TargetSpec};

fn cross_report_json(bench: &str, threads: usize) -> String {
    let session = OptimizerBuilder::new()
        .all_targets()
        .threads(threads)
        .build()
        .expect("valid session");
    let report = session
        .cross_target(|spec| {
            let bench_spec = benchmark_by_name(bench).expect("known benchmark");
            let built = build_bench(&bench_spec, &spec.to_target());
            Ok((built.module, ProfileSource::Workload(built.train_runs)))
        })
        .expect("cross-target run");
    report.to_json().to_compact()
}

#[test]
fn cross_target_report_is_bit_identical_across_thread_counts() {
    let serial = cross_report_json("mcf", 1);
    let parallel = cross_report_json("mcf", 8);
    assert_eq!(
        serial, parallel,
        "parallel cross-target JSON differs from serial"
    );
    let auto = cross_report_json("mcf", 0);
    assert_eq!(
        serial, auto,
        "auto-threads cross-target JSON differs from serial"
    );
    // Every registered target contributed a full report, and its section
    // is byte for byte the report of a single-target session's
    // `optimize` on the same module and workload: the inline per-target
    // run inside the fan-out is the session's own batch path.
    for spec in registry() {
        assert!(
            serial.contains(&format!(r#""target":"{}""#, spec.name)),
            "cross-target report is missing {}",
            spec.name
        );
        let single = run_bench_on(&spec, "mcf").to_json().to_compact();
        assert!(
            serial.contains(&single),
            "{}: cross-target section differs from a single-target `optimize`",
            spec.name
        );
    }
}

fn run_bench_on(spec: &TargetSpec, bench: &str) -> spillopt_driver::ModuleReport {
    let bench_spec = benchmark_by_name(bench).expect("known benchmark");
    let built = build_bench(&bench_spec, &spec.to_target());
    OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(0)
        .profile(ProfileSource::Workload(built.train_runs))
        .build()
        .expect("valid session")
        .optimize(&built.module)
        .expect("driver")
        .report
}

/// The paper's guarantee, in-model, on every registered target: the
/// hierarchical jump-edge placement never costs more than the entry/exit
/// baseline or Chow's shrink-wrapping under that target's own
/// (pairing-aware) accounting — per function and in aggregate.
#[test]
fn hier_jump_never_loses_on_any_registered_target() {
    for spec in registry() {
        for bench in ["mcf", "gzip", "crafty"] {
            let report = run_bench_on(&spec, bench);
            assert!(
                report.total_cost(Strategy::HierJump) <= report.total_cost(Strategy::Baseline),
                "{bench} on {}: hier-jump beaten by baseline",
                spec.name
            );
            assert!(
                report.total_cost(Strategy::HierJump) <= report.total_cost(Strategy::Shrinkwrap),
                "{bench} on {}: hier-jump beaten by shrink-wrapping",
                spec.name
            );
            for f in &report.functions {
                let Some(hier) = f.strategy(Strategy::HierJump) else {
                    continue;
                };
                let base = f.strategy(Strategy::Baseline).expect("baseline present");
                let chow = f
                    .strategy(Strategy::Shrinkwrap)
                    .expect("shrinkwrap present");
                assert!(
                    hier.cost <= base.cost,
                    "{bench}/{} on {}: hier-jump beaten by baseline",
                    f.name,
                    spec.name
                );
                assert!(
                    hier.cost <= chow.cost,
                    "{bench}/{} on {}: hier-jump beaten by shrink-wrapping",
                    f.name,
                    spec.name
                );
            }
        }
    }
}

/// `spillopt compare --bench crafty --target <T>` runs for every
/// registered target (the acceptance criterion, driven in-process).
#[test]
fn compare_crafty_runs_on_every_registered_target() {
    for spec in registry() {
        let args: Vec<String> = [
            "compare",
            "--bench",
            "crafty",
            "--target",
            spec.name,
            "--threads",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut buf = Vec::new();
        spillopt_driver::cli::run(&args, &mut buf)
            .unwrap_or_else(|e| panic!("compare crafty on {} failed: {e:?}", spec.name));
        let out = String::from_utf8(buf).expect("utf8");
        assert!(
            out.contains(spec.name),
            "{}: target missing from table",
            spec.name
        );
        assert!(out.contains("crafty"));
    }
}

/// The cross-target section exposes the convention differences the
/// paper's single-machine evaluation hides: fewer callee-saved registers
/// and pairing change the per-target totals.
#[test]
fn targets_actually_differ() {
    let specs = registry();
    let session = OptimizerBuilder::new()
        .all_targets()
        .threads(0)
        .build()
        .expect("valid session");
    let report = session
        .cross_target(|spec| {
            let bench_spec = benchmark_by_name("gzip").expect("known benchmark");
            let built = build_bench(&bench_spec, &spec.to_target());
            Ok((built.module, ProfileSource::Workload(built.train_runs)))
        })
        .expect("cross-target run");

    assert_eq!(report.targets.len(), specs.len());
    assert!(report.best_target().is_some());
    // The per-target baselines cannot all coincide: the register-file
    // splits differ, so the callee-saved pressure differs.
    let baselines: Vec<u64> = report
        .targets
        .iter()
        .map(|(_, r)| r.total_cost(Strategy::Baseline).raw())
        .collect();
    assert!(
        baselines.windows(2).any(|w| w[0] != w[1]),
        "all targets produced identical baseline costs: {baselines:?}"
    );
}
