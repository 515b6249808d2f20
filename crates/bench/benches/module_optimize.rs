//! End-to-end module optimization over the stress corpus — the
//! continuous form of the perf-trajectory harness (`spillopt bench`).
//!
//! Two arms per target: the current pipeline and the frozen pre-rewrite
//! reference (`spillopt_driver::refimpl`). The committed trajectory
//! point lives in `BENCH_PR4.json`; this bench tracks the same quantity
//! under criterion's timing loop for local comparisons.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spillopt_driver::driver::ProfileSource;
use spillopt_driver::refimpl::optimize_module_reference;
use spillopt_driver::OptimizerBuilder;
use spillopt_ir::Module;
use spillopt_targets::TargetSpec;
use std::hint::black_box;

/// A small stress corpus (generated outside the timed region).
fn corpus(spec: &TargetSpec, scale: u32, functions: usize) -> Vec<Module> {
    let target = spec.to_target();
    let mut modules = Vec::new();
    let mut n = 0;
    let mut seed = 0;
    while n < functions {
        let case = spillopt_stress::gen_case_scaled(&target, seed, scale);
        n += case.module.num_funcs();
        modules.push(case.module);
        seed += 1;
    }
    modules
}

fn bench_module_optimize(c: &mut Criterion) {
    let mut group = c.benchmark_group("module_optimize");
    group.sample_size(10);
    let profile = ProfileSource::default();
    for spec in [
        spillopt_targets::pa_risc_like(),
        spillopt_targets::aarch64_aapcs64(),
    ] {
        let modules = corpus(&spec, 8, 40);
        // Analysis reuse OFF: this bench times the cold pipeline (the
        // session arena would otherwise serve every iteration but the
        // first from cache).
        let session = OptimizerBuilder::new()
            .target_spec(spec.clone())
            .threads(1)
            .reuse_analyses(false)
            .build()
            .expect("valid session");
        group.bench_with_input(
            BenchmarkId::new("current", spec.name),
            &modules,
            |b, modules| {
                b.iter(|| {
                    for m in modules {
                        black_box(session.optimize(m).expect("optimize"));
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reference", spec.name),
            &modules,
            |b, modules| {
                b.iter(|| {
                    for m in modules {
                        black_box(
                            optimize_module_reference(m, &spec, 1, &profile).expect("optimize"),
                        );
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_module_optimize);
criterion_main!(benches);
