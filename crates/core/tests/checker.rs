//! One [`PlacementChecker`] per function, reused over every placement
//! the suite produces for it and over broken variants of each, must
//! return exactly [`check_placement`]'s list and the same violation set
//! as the retired per-register reference.
//!
//! The functions are the differential stress generator's, allocated on
//! every registered target, so the register counts, loops, critical
//! edges and back edges into the entry block are the ones the session
//! actually checks.

use spillopt_core::reference::check_placement_reference;
use spillopt_core::{
    check_placement, run_suite, CalleeSavedUsage, Placement, PlacementChecker, PlacementError,
    SuiteInputs, SuiteOptions,
};
use spillopt_ir::{Cfg, PReg};
use spillopt_regalloc::allocate;
use spillopt_stress::gen_case;

fn as_set(errors: &[PlacementError]) -> Vec<String> {
    let mut set: Vec<String> = errors.iter().map(|e| format!("{e:?}")).collect();
    set.sort();
    set.dedup();
    set
}

/// Every variant of `p` with one point removed, and every variant with
/// one point moved to `spare`, a register without busy blocks (which
/// the checker gives a bit after the usage registers).
fn variants(p: &Placement, spare: PReg) -> Vec<Placement> {
    let points = p.points();
    (0..points.len())
        .flat_map(|i| {
            let mut removed = points.to_vec();
            removed.remove(i);
            let mut moved = points.to_vec();
            moved[i].reg = spare;
            [removed, moved].map(Placement::from_points)
        })
        .collect()
}

#[test]
fn a_reused_checker_matches_fresh_checks_and_the_reference_on_the_stress_corpus() {
    let (mut checked, mut invalid) = (0usize, 0usize);
    for spec in spillopt_targets::registry() {
        let target = spec.to_target();
        let options = SuiteOptions::priced(spec.costs);
        for seed in 0..24u64 {
            let case = gen_case(&target, seed);
            for fid in case.module.func_ids() {
                let mut func = case.module.func(fid).clone();
                allocate(&mut func, &target, None);
                let cfg = Cfg::compute(&func);
                let usage = CalleeSavedUsage::from_function(&func, &cfg, &target);
                if usage.is_empty() {
                    continue;
                }
                let profile = spillopt_profile::random_walk_profile(&cfg, 64, 96, seed);
                let inputs = SuiteInputs::compute(&cfg, &usage, &profile);
                let suite = run_suite(&cfg, &inputs, &options).expect("valid suite");
                let spare = (0..=u8::MAX)
                    .map(PReg::new)
                    .find(|&r| usage.busy(r).is_none())
                    .expect("a register without busy blocks");

                let checker = PlacementChecker::new(&cfg, &usage);
                for p in [
                    &suite.entry_exit,
                    &suite.chow,
                    &suite.hierarchical_exec,
                    &suite.hierarchical_jump,
                ] {
                    assert_eq!(
                        checker.check(&cfg, &usage, p),
                        vec![],
                        "{} seed {seed}",
                        spec.name
                    );
                    for v in variants(p, spare) {
                        let errors = checker.check(&cfg, &usage, &v);
                        assert_eq!(
                            errors,
                            check_placement(&cfg, &usage, &v),
                            "{} seed {seed}: {v}",
                            spec.name
                        );
                        assert_eq!(
                            as_set(&errors),
                            as_set(&check_placement_reference(&cfg, &usage, &v)),
                            "{} seed {seed}: {v}",
                            spec.name
                        );
                        checked += 1;
                        invalid += usize::from(!errors.is_empty());
                    }
                }
            }
        }
    }
    assert!(checked > 1000, "only {checked} placements checked");
    assert!(invalid * 2 > checked, "only {invalid} of {checked} invalid");
}
