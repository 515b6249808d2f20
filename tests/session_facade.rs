//! Differential tests for the session facade's batch path: a batch of
//! modules must answer exactly like independent calls, and a warm
//! session exactly like a cold one.

use spillopt::OptimizerBuilder;
use spillopt_ir::Target;

/// Stress-generated modules for one target (the adversarial corpus the
/// SPEC stand-ins never produce).
fn stress_modules(
    target: &Target,
    seeds: std::ops::Range<u64>,
    scale: u32,
) -> Vec<spillopt_ir::Module> {
    seeds
        .map(|seed| spillopt_stress::gen_case_scaled(target, seed, scale).module)
        .collect()
}

/// Warm-session batching: `optimize_many` over N modules must equal N
/// independent `optimize` calls, byte for byte — and a *warm* repeat
/// must be served from the arena without changing a byte.
#[test]
fn optimize_many_equals_independent_optimize_calls() {
    let spec = spillopt_targets::pa_risc_like();
    let target = spec.to_target();
    let modules = stress_modules(&target, 0..6, 2);

    let batch_session = OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(4)
        .build()
        .expect("valid session");
    let batch = batch_session
        .optimize_many(&modules)
        .expect("batch optimize");
    assert_eq!(batch.len(), modules.len());

    for (module, run) in modules.iter().zip(&batch) {
        // A fresh session per module: fully independent calls.
        let independent = OptimizerBuilder::new()
            .target_spec(spec.clone())
            .threads(1)
            .build()
            .expect("valid session")
            .optimize(module)
            .expect("independent optimize");
        assert_eq!(
            independent.report.to_json().to_compact(),
            run.report.to_json().to_compact(),
            "optimize_many diverged from an independent optimize"
        );
    }

    // Warm repeat on the batch session: every function is served from
    // the arena, byte-identically. `Session::stats` gives the exact
    // ledger: one lookup per function per batch, so two batches make
    // `2 * functions` lookups; the warm batch may not miss once, and
    // the cold batch may only *hit* where the corpus repeats a
    // function body verbatim.
    let functions: usize = modules.iter().map(|m| m.num_funcs()).sum();
    let warm = batch_session
        .optimize_many(&modules)
        .expect("warm batch optimize");
    let stats = batch_session.stats();
    assert_eq!(
        stats.arena.hits + stats.arena.misses,
        2 * functions as u64,
        "unexpected lookup count: {stats:?}"
    );
    assert!(
        stats.arena.hits >= functions as u64,
        "warm batch missed the arena: {stats:?} over {functions} functions"
    );
    assert!(
        stats.arena.misses <= functions as u64,
        "more misses than cold lookups: {stats:?}"
    );
    for (cold, hot) in batch.iter().zip(&warm) {
        assert_eq!(
            cold.report.to_json().to_compact(),
            hot.report.to_json().to_compact(),
            "warm batch changed report bytes"
        );
    }
}
