//! Integration tests for the module driver: parallel runs must be
//! bit-identical to serial runs, and the optimized module must preserve
//! program behaviour on the reference workload.

use spillopt_benchgen::{benchmark_by_name, build_bench};
use spillopt_driver::{OptimizerBuilder, ProfileSource, Strategy};
use spillopt_ir::Target;
use spillopt_profile::Machine;

fn optimize_bench(name: &str, threads: usize) -> (spillopt_driver::ModuleRun, spillopt_ir::Module) {
    let target = Target::default();
    let spec = benchmark_by_name(name).expect("known benchmark");
    let bench = build_bench(&spec, &target);
    let session = OptimizerBuilder::new()
        .target(target)
        .threads(threads)
        .profile(ProfileSource::Workload(bench.train_runs.clone()))
        .build()
        .expect("valid session");
    let run = session.optimize(&bench.module).expect("driver");
    (run, bench.module)
}

#[test]
fn parallel_report_is_bit_identical_to_serial() {
    for name in ["gzip", "vortex"] {
        let (serial, _) = optimize_bench(name, 1);
        let (parallel, _) = optimize_bench(name, 8);
        assert_eq!(
            serial.report.to_json().to_compact(),
            parallel.report.to_json().to_compact(),
            "{name}: parallel JSON differs from serial"
        );
        // And again with auto thread count, for good measure.
        let (auto, _) = optimize_bench(name, 0);
        assert_eq!(
            serial.report.to_json().to_compact(),
            auto.report.to_json().to_compact(),
            "{name}: auto-threads JSON differs from serial"
        );
    }
}

#[test]
fn synthetic_profiles_are_deterministic_across_threads() {
    let target = Target::default();
    let bench = build_bench(&benchmark_by_name("parser").unwrap(), &target);
    let report_with = |threads| {
        OptimizerBuilder::new()
            .target(target.clone())
            .threads(threads)
            .build()
            .expect("valid session")
            .optimize(&bench.module)
            .expect("driver")
            .report
            .to_json()
            .to_compact()
    };
    assert_eq!(report_with(1), report_with(4));
}

#[test]
fn hier_jump_never_loses_at_module_scale() {
    for name in ["gzip", "crafty", "twolf"] {
        let (run, _) = optimize_bench(name, 0);
        let report = &run.report;
        assert!(
            report.total_cost(Strategy::HierJump) <= report.total_cost(Strategy::Baseline),
            "{name}: hier-jump beaten by baseline"
        );
        assert!(
            report.total_cost(Strategy::HierJump) <= report.total_cost(Strategy::Shrinkwrap),
            "{name}: hier-jump beaten by shrink-wrapping"
        );
        // Per function too, and `best` is coherent.
        for f in &report.functions {
            if let Some(best) = f.best {
                let best_cost = f.strategy(best).unwrap().cost;
                for s in &f.strategies {
                    assert!(best_cost <= s.cost, "{name}/{}: best beaten", f.name);
                }
            }
        }
    }
}

#[test]
fn optimized_module_preserves_behaviour() {
    let target = Target::default();
    let bench = build_bench(&benchmark_by_name("bzip2").unwrap(), &target);

    let reference: Vec<i64> = {
        let mut vm = Machine::new(&bench.module, &target);
        vm.set_fuel(1 << 30);
        bench
            .ref_runs
            .iter()
            .map(|(f, args)| vm.call(*f, args).expect("ref run"))
            .collect()
    };

    let run = OptimizerBuilder::new()
        .target(target.clone())
        .threads(0)
        .profile(ProfileSource::Workload(bench.train_runs.clone()))
        .build()
        .expect("valid session")
        .optimize(&bench.module)
        .expect("driver");

    // Both the per-function best and the paper's technique must leave
    // behaviour untouched.
    for choice in [None, Some(Strategy::HierJump)] {
        let optimized = run.apply(choice);
        let mut vm = Machine::new(&optimized, &target);
        vm.set_fuel(1 << 30);
        for ((f, args), expected) in bench.ref_runs.iter().zip(&reference) {
            let got = vm.call(*f, args).expect("optimized run");
            assert_eq!(got, *expected, "behaviour changed under {choice:?}");
        }
    }
}
