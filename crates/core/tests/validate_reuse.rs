//! A re-fold reuses the validity verdict exactly when its placement
//! equals the last one the memo's checker accepted for that cost model.
//!
//! `PlacementChecker::check(cfg, usage, placement)` reads no profile,
//! and a [`PlacementMemo`]'s `cfg` and `usage` never change, so an
//! equal placement has an equal verdict. This test drives drift
//! sequences over allocated stress functions on every registered
//! target, mixing steps that leave the re-folded placements as they
//! were (single-edge bumps, empty deltas) with steps that move them
//! (fresh profiles), and on every step:
//!
//! * the `validate_reused` counter rises by exactly the number of
//!   hierarchical placements equal to the previously accepted one;
//! * the real checker, run alongside, accepts both placements, the
//!   reused ones included.
//!
//! The recorder is process-global, so this test needs a binary of its
//! own: a test running concurrently in the same process could add to
//! the counter.

use spillopt_core::{
    run_suite_incremental, run_suite_memoized, CalleeSavedUsage, Placement, PlacementChecker,
    PlacementMemo, SuiteInputs, SuiteOptions,
};
use spillopt_ir::analysis::loops::sccs;
use spillopt_ir::{Cfg, DerivedCfg};
use spillopt_obs::Recording;
use spillopt_profile::{random_walk_profile, EdgeProfile, ProfileDelta};
use spillopt_pst::Pst;
use spillopt_targets::registry;

const STEPS: u64 = 9;

/// The profile of drift step `step` from `prev`: a single-edge bump, an
/// empty delta, or a fresh random walk, in rotation.
fn drift(cfg: &Cfg, prev: &EdgeProfile, step: u64, seed: u64) -> EdgeProfile {
    match step % 3 {
        0 => {
            let mut counts = prev.edge_counts().to_vec();
            let e = (seed + step) as usize % counts.len();
            counts[e] += 1 + step;
            EdgeProfile::new(cfg, counts, prev.entry_count())
        }
        1 => prev.clone(),
        _ => random_walk_profile(cfg, 64 + 16 * step, 128, seed * 97 + step),
    }
}

#[test]
fn reused_verdicts_are_exactly_the_accepted_placements() {
    let (mut steps, mut reused_total, mut checked_total) = (0usize, 0u64, 0u64);
    for spec in registry() {
        let target = spec.to_target();
        let options = SuiteOptions::priced(spec.costs);
        for seed in 0..25u64 {
            let case = spillopt_stress::gen_case(&target, seed);
            for (i, f) in case.module.func_ids().enumerate() {
                let mut func = case.module.func(f).clone();
                let fseed = seed * 31 + i as u64;
                let base = random_walk_profile(&Cfg::compute(&func), 128, 256, fseed);
                let cfg = spillopt_regalloc::allocate(&mut func, &target, Some(&base)).cfg;
                let usage = CalleeSavedUsage::from_function(&func, &cfg, &target);
                if usage.num_regs() == 0 {
                    continue;
                }
                let cyclic = sccs(&cfg);
                let pst = Pst::compute(&cfg);
                let derived = DerivedCfg::compute(&cfg);
                let checker = PlacementChecker::new(&cfg, &usage);
                let inputs = SuiteInputs::analyzed(&usage, &base, &cyclic, &pst, &derived);
                let (suite, mut memo): (_, PlacementMemo) =
                    run_suite_memoized(&cfg, &inputs, &options).expect("valid cold suite");
                let mut accepted: [Placement; 2] =
                    [suite.hierarchical_exec, suite.hierarchical_jump];

                let mut prev = base;
                for step in 0..STEPS {
                    let next = drift(&cfg, &prev, step, fseed);
                    let delta = ProfileDelta::between(&prev, &next);
                    let inputs = SuiteInputs::analyzed(&usage, &next, &cyclic, &pst, &derived);
                    let recording = Recording::start();
                    let (suite, _) =
                        run_suite_incremental(&cfg, &inputs, &options, &mut memo, &delta)
                            .expect("valid re-fold");
                    let reused = recording
                        .finish()
                        .metrics()
                        .counters
                        .iter()
                        .find(|(name, _)| *name == "validate_reused")
                        .map_or(0, |&(_, n)| n);

                    let refolded = [suite.hierarchical_exec, suite.hierarchical_jump];
                    let expected = refolded
                        .iter()
                        .zip(&accepted)
                        .filter(|(p, last)| p == last)
                        .count() as u64;
                    let what = format!("{} seed {seed} `{}` step {step}", spec.name, func.name());
                    assert_eq!(reused, expected, "{what}: reused verdicts");
                    for p in &refolded {
                        let errors = checker.check(&cfg, &usage, p);
                        assert!(errors.is_empty(), "{what}: {errors:?}");
                    }
                    steps += 1;
                    reused_total += reused;
                    checked_total += 2 - reused;
                    accepted = refolded;
                    prev = next;
                }
            }
        }
    }
    // Both sides of the rule must be exercised, or the test shows nothing.
    assert!(steps > 1000, "only {steps} drift steps");
    assert!(reused_total > 0, "no step reused a verdict");
    assert!(checked_total > 0, "no step ran the real check");
    eprintln!("{steps} steps: {reused_total} verdicts reused, {checked_total} checked");
}
