//! The recorder is exact about threaded sessions: once a module batch
//! has joined, a recording holds every event its pool workers emitted,
//! and the workers' own counters include every item they ran.
//!
//! Each round mirrors `spillopt stats --bench crafty --threads 2` — a
//! cold pass, a warm pass and a drifted pass through one arena-backed
//! session, all under one recording — and requires the trace's
//! `function` and `pool_job` span counts and `arena_*` counters to equal
//! the session's own ledger, every round.
//!
//! Exact counts need a test binary of their own: the recorder is
//! process-global, so a test running concurrently in the same process
//! could add events to an active recording.

use spillopt::{OptimizerBuilder, ProfileSource};
use spillopt_benchgen::{benchmark_by_name, build_bench};
use spillopt_ir::Target;
use spillopt_obs::Recording;

#[test]
fn threaded_trace_counts_equal_the_session_ledger() {
    let target = Target::default();
    let bench = build_bench(&benchmark_by_name("crafty").expect("crafty"), &target);
    let module = bench.module;
    for round in 0..10 {
        let session = OptimizerBuilder::new()
            .target(target.clone())
            .profile(ProfileSource::Workload(bench.train_runs.clone()))
            .threads(2)
            .reuse_analyses(true)
            .build()
            .expect("session");
        let recording = Recording::start();
        session.optimize(&module).expect("cold pass");
        session.optimize(&module).expect("warm pass");
        // Doubled counts: new per-block weights, so every function
        // re-checks its allocation certificate (re-allocating only when
        // it fails) and either re-folds incrementally or runs cold.
        let mut profiles = session.resolve_profiles(&module).expect("profiles");
        for p in &mut profiles {
            p.scale(2);
        }
        session
            .optimize_profiled(&module, &profiles)
            .expect("drifted pass");
        let trace = recording.finish();

        let metrics = trace.metrics();
        let spans = |name: &str| {
            metrics
                .phases
                .iter()
                .find(|p| p.name == name)
                .map_or(0, |p| p.count)
        };
        let counter = |name: &str| {
            metrics
                .counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| *v)
        };
        let stats = session.stats();
        let arena = stats.arena;
        let calls = 3 * module.num_funcs() as u64;
        assert_eq!(arena.hits + arena.misses + arena.incremental, calls);
        assert_eq!(spans("function"), calls, "round {round}: function spans");
        assert_eq!(counter("arena_hit"), arena.hits, "round {round}: hits");
        assert_eq!(counter("arena_miss"), arena.misses, "round {round}: misses");
        assert_eq!(
            counter("arena_incremental"),
            arena.incremental,
            "round {round}: incremental"
        );
        assert_eq!(
            counter("arena_reallocation"),
            arena.reallocations,
            "round {round}: reallocations"
        );
        // Every drifted call of the third pass (the first pass's misses
        // are all cold fills) checks its certificate once.
        assert_eq!(
            spans("alloc_check"),
            arena.incremental + arena.misses - module.num_funcs() as u64,
            "round {round}: alloc_check spans"
        );
        let items: u64 = stats.pool_workers.iter().map(|w| w.items).sum();
        assert_eq!(items, calls, "round {round}: worker items");
        assert_eq!(spans("pool_job"), calls, "round {round}: pool_job spans");
    }
}
