//! Delta-driven incremental re-optimization of the placement suite.
//!
//! Real deployments re-profile continuously, but the paper's batch
//! formulation recomputes a whole function's placement from scratch on
//! any edge-count change. The bottom-up PST traversal is already an
//! arena fold over preorder-numbered regions, so placement can be made
//! *delta-driven* in the semi-naive least-fixpoint style: memoize every
//! region's folded products ([`run_suite_memoized`]), map a profile
//! delta onto the regions it can invalidate
//! ([`spillopt_pst::Pst::dirty_regions`]), and re-fold only those plus
//! their ancestor path to the root ([`run_suite_incremental`]).
//!
//! # Why a clean region's folded output survives a profile change
//!
//! The dirty mapping is ancestor-closed, so a clean region's whole
//! subtree is clean. By induction bottom-up, every cost a clean region's
//! fold reads is unchanged:
//!
//! * a home set's cost sums location costs at points whose innermost
//!   regions lie inside the home region — any changed count at such a
//!   point seeds a dirty descendant, contradicting cleanliness;
//! * a boundary set created at a descendant region `d` prices `d`'s own
//!   boundary locations — a changed boundary edge seeds `d` itself
//!   dirty (the explicit boundary-owner rule), and a changed return
//!   block reprices a block inside `d`;
//! * membership words, busy intersections, and hoistability are
//!   profile-independent altogether.
//!
//! Decisions are pure functions of those inputs, so the clean fold
//! output — membership *and* cost — is byte-for-byte what a cold run
//! would recompute. A cold run is the same fold with every region
//! dirty, so the two paths differ only in the dirty map; the driver's
//! drift fuzzer (`spillopt stress --drift`) compares them on every step
//! of every seeded drift sequence, and `core::reference` holds an
//! independent traversal that `tests/differential_solver.rs` compares
//! against cold suites, and against the traced
//! [`crate::hierarchical_placement_seeded`] with its final sets and
//! trace.

use crate::cost::{Cost, CostModel, SpillCostModel};
use crate::hierarchical::{Baselines, FoldCtx, ModelFold};
use crate::location::Placement;
use crate::overhead::placement_cost_with;
use crate::pipeline::{check_all, PlacementSuite, SuiteError, SuiteInputs, SuiteOptions};
use crate::sets::EdgeShares;
use crate::solver::RegionBusyCounts;
use crate::validate::PlacementChecker;
use spillopt_ir::Cfg;
use spillopt_profile::{EdgeProfile, ProfileDelta};

/// The memoized per-region folded products of one function's placement:
/// everything [`run_suite_incremental`] needs to re-establish the cold
/// fixpoint by re-folding only dirty regions.
///
/// A memo is valid for exactly one `(function, options)` pair and one
/// *base* profile — the profile of the [`run_suite_memoized`] call that
/// built it, or of the last [`run_suite_incremental`] call that updated
/// it. Callers must pass a [`ProfileDelta`] computed from that base
/// profile to the new one; the driver's session arena owns this
/// bookkeeping.
///
/// Beyond the fold tables the memo keeps only profile-independent
/// products — the two baseline placements, the placement checker, and
/// per cost model the last hierarchical placement that checker accepted
/// — never a whole suite: every call rebuilds its suite from the root's
/// folded sets.
#[derive(Debug)]
pub struct PlacementMemo {
    /// Edge shares of the initial solution (profile-independent).
    shares: EdgeShares,
    /// Memoized busy intersections (profile-independent).
    busy_counts: RegionBusyCounts,
    /// Fold tables of the execution-count model.
    exec: ModelFold,
    /// Fold tables of the jump-edge model.
    jump: ModelFold,
    /// The entry/exit placement (profile-independent): a suite member
    /// and one of the root finalize's two baselines.
    entry_exit: Placement,
    /// Chow's shrink-wrapping (profile-independent): a suite member and
    /// the root finalize's other baseline.
    chow: Placement,
    /// The validator of the function's `(cfg, usage)`, built once and
    /// run on every re-folded placement it has not already accepted.
    checker: PlacementChecker,
    /// The last exec and jump placements `checker` accepted. Validity
    /// reads no profile and `(cfg, usage)` is fixed for the memo's
    /// lifetime, so a re-fold that reproduces one has its verdict.
    accepted: [Placement; 2],
}

/// The dirty-region ledger of one incremental call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefoldStats {
    /// Total PST regions of the function.
    pub regions_total: usize,
    /// Regions actually re-folded (dirty set closed over ancestors);
    /// zero on an empty delta.
    pub regions_refolded: usize,
}

/// As [`crate::run_suite`], additionally retaining every per-region
/// folded product in a [`PlacementMemo`] for later incremental re-folds.
///
/// This is the cold path: [`crate::run_suite`] is this call with the
/// memo dropped. Each cost model's traversal is a fresh fold with every
/// region dirty — the same fold [`run_suite_incremental`] runs over the
/// regions a delta dirties.
///
/// # Errors
///
/// Returns a [`SuiteError`] if any produced placement fails validity
/// checking; that is a bug in this crate, never a property of the input.
pub fn run_suite_memoized(
    cfg: &Cfg,
    inputs: &SuiteInputs<'_>,
    options: &SuiteOptions,
) -> Result<(PlacementSuite, PlacementMemo), SuiteError> {
    let usage = inputs.usage();
    let profile = inputs.profile();
    let derived = inputs.derived();
    let pst = inputs.pst();
    let costs = &options.costs;

    let entry_exit = {
        let _s = spillopt_obs::span("place_entry_exit");
        crate::entry_exit::entry_exit_placement(cfg, usage)
    };
    let chow = {
        let _s = spillopt_obs::span("place_chow");
        crate::chow::chow_shrink_wrap_derived(cfg, derived, inputs.cyclic(), usage)
    };
    // Both hierarchical runs start from the same initial solution (the
    // initial sets do not depend on the cost model).
    let initial = {
        let _s = spillopt_obs::span("place_hier_seed");
        crate::modified::modified_shrink_wrap_derived(cfg, derived, usage)
    };
    let shares = EdgeShares::from_sets(&initial.sets);
    let busy_counts = RegionBusyCounts::compute(pst, cfg.num_blocks(), usage);
    let ctx = FoldCtx {
        cfg,
        pst,
        usage,
        profile,
        costs,
        shares: &shares,
        busy_counts: &busy_counts,
    };
    let all = vec![true; pst.num_regions()];
    let fold_cold = |span, model, initial| {
        let _s = spillopt_obs::span(span);
        let baselines = Baselines::priced(&ctx, model, &entry_exit, &chow);
        let mut fold = ModelFold::new(cfg, pst, model, initial);
        let (placement, price) = fold.fold(&ctx, &all, &baselines, None);
        (fold, placement, price, baselines.costs)
    };
    let (exec, hierarchical_exec, _, _) = fold_cold(
        "place_hier_exec",
        CostModel::ExecutionCount,
        initial.clone(),
    );
    // The jump model prices the baselines and its own placement exactly
    // as the suite does.
    let (jump, hierarchical_jump, jump_price, baseline_costs) =
        fold_cold("place_hier_jump", CostModel::JumpEdge, initial);

    let checker = {
        let _s = spillopt_obs::span("validate");
        let checker = PlacementChecker::new(cfg, usage);
        check_all(
            &checker,
            cfg,
            usage,
            [
                ("entry_exit", &entry_exit),
                ("chow", &chow),
                ("hierarchical_exec", &hierarchical_exec),
                ("hierarchical_jump", &hierarchical_jump),
            ],
        )?;
        checker
    };

    let predicted = {
        let _s = spillopt_obs::span("price");
        predicted_costs(
            costs,
            cfg,
            profile,
            baseline_costs,
            &hierarchical_exec,
            jump_price,
        )
    };

    let memo = PlacementMemo {
        shares,
        busy_counts,
        exec,
        jump,
        entry_exit: entry_exit.clone(),
        chow: chow.clone(),
        checker,
        accepted: [hierarchical_exec.clone(), hierarchical_jump.clone()],
    };
    let suite = PlacementSuite {
        entry_exit,
        chow,
        hierarchical_exec,
        hierarchical_jump,
        predicted,
    };
    Ok((suite, memo))
}

/// Re-establishes the cold fixpoint after a profile drift by re-folding
/// only the regions `delta` dirties (plus their root path), reusing
/// every clean region's memoized fold wholesale.
///
/// `inputs` must carry the *new* profile; `delta` must be the
/// [`ProfileDelta`] from the memo's base profile to it; `cfg`, the
/// analyses, and `options` must be those the memo was built with. On
/// return the memo's base profile is the new one.
///
/// Every call rebuilds the suite from the memo: the root's folded sets
/// go through the same root finalize as a cold run, and all four
/// placements are re-priced. Each hierarchical placement is validated
/// with the memo's [`PlacementChecker`] unless it equals the last
/// placement that checker accepted for its model: the check reads no
/// profile, and the memo's `cfg` and `usage` never change, so the
/// verdict is reused (counted as `validate_reused`, inside the same
/// `validate` span). An empty delta dirties no region, so it re-folds
/// nothing and rebuilds the memoized result.
///
/// The returned suite is byte-identical to what [`crate::run_suite`]
/// would compute cold on the new profile. The driver's drift fuzzer
/// enforces the equivalence differentially on every registered target.
///
/// # Errors
///
/// Returns a [`SuiteError`] if a re-folded placement fails validity
/// checking; that is a bug in this crate, never a property of the input.
pub fn run_suite_incremental(
    cfg: &Cfg,
    inputs: &SuiteInputs<'_>,
    options: &SuiteOptions,
    memo: &mut PlacementMemo,
    delta: &ProfileDelta,
) -> Result<(PlacementSuite, RefoldStats), SuiteError> {
    let _s = spillopt_obs::span("place_incremental");
    let pst = inputs.pst();
    let usage = inputs.usage();
    let profile = inputs.profile();
    let costs = &options.costs;

    let regions_total = pst.num_regions();
    let dirty = pst.dirty_regions(cfg, delta.changed_edges(), delta.entry_changed());
    let regions_refolded = dirty.iter().filter(|&&d| d).count();
    spillopt_obs::count("regions_refolded", regions_refolded as u64);
    spillopt_obs::count("regions_total", regions_total as u64);

    let PlacementMemo {
        shares,
        busy_counts,
        exec,
        jump,
        entry_exit,
        chow,
        checker,
        accepted,
    } = memo;
    let ctx = FoldCtx {
        cfg,
        pst,
        usage,
        profile,
        costs,
        shares,
        busy_counts,
    };
    let exec_baselines = Baselines::priced(&ctx, CostModel::ExecutionCount, entry_exit, chow);
    let jump_baselines = Baselines::priced(&ctx, CostModel::JumpEdge, entry_exit, chow);
    let (hierarchical_exec, _) = exec.fold(&ctx, &dirty, &exec_baselines, None);
    let (hierarchical_jump, jump_price) = jump.fold(&ctx, &dirty, &jump_baselines, None);

    {
        let _s = spillopt_obs::span("validate");
        let refolded = [
            ("hierarchical_exec", &hierarchical_exec),
            ("hierarchical_jump", &hierarchical_jump),
        ];
        for ((technique, placement), last) in refolded.into_iter().zip(accepted.iter_mut()) {
            if placement == last {
                spillopt_obs::count("validate_reused", 1);
                continue;
            }
            check_all(checker, cfg, usage, [(technique, placement)])?;
            last.clone_from(placement);
        }
    }

    let predicted = {
        let _s = spillopt_obs::span("price");
        predicted_costs(
            costs,
            cfg,
            profile,
            jump_baselines.costs,
            &hierarchical_exec,
            jump_price,
        )
    };

    Ok((
        PlacementSuite {
            entry_exit: entry_exit.clone(),
            chow: chow.clone(),
            hierarchical_exec,
            hierarchical_jump,
            predicted,
        },
        RefoldStats {
            regions_total,
            regions_refolded,
        },
    ))
}

/// The suite's predicted costs, in suite order (entry/exit, Chow,
/// hierarchical exec, hierarchical jump), all under jump-edge
/// accounting: the baselines' costs and the jump placement's as the
/// jump fold priced them, and the exec placement priced the same way
/// here (its fold priced it under the execution count model).
fn predicted_costs(
    costs: &SpillCostModel,
    cfg: &Cfg,
    profile: &EdgeProfile,
    [entry_exit, chow]: [Cost; 2],
    exec: &Placement,
    jump: Cost,
) -> [Cost; 4] {
    let exec = placement_cost_with(CostModel::JumpEdge, costs, cfg, profile, exec);
    [entry_exit, chow, exec, jump]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_suite;
    use crate::usage::CalleeSavedUsage;
    use spillopt_ir::analysis::loops::sccs;
    use spillopt_ir::{BlockId, Cond, DerivedCfg, FunctionBuilder, PReg, Reg};
    use spillopt_profile::{random_walk_profile, EdgeProfile};
    use spillopt_pst::Pst;

    /// Nested diamonds plus a loop: enough PST structure that a local
    /// drift leaves clean regions.
    fn shape() -> spillopt_ir::Function {
        let mut fb = FunctionBuilder::new("drift", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        let c = fb.create_block(None);
        let d = fb.create_block(None);
        let e = fb.create_block(None);
        let g = fb.create_block(None);
        let h = fb.create_block(None);
        let i = fb.create_block(None);
        fb.switch_to(a);
        let x = fb.li(0);
        fb.branch(Cond::Lt, Reg::Virt(x), Reg::Virt(x), g, b);
        fb.switch_to(b);
        fb.branch(Cond::Gt, Reg::Virt(x), Reg::Virt(x), d, c);
        fb.switch_to(c);
        fb.jump(e);
        fb.switch_to(d);
        fb.jump(e);
        fb.switch_to(e);
        fb.jump(h);
        fb.switch_to(g);
        fb.jump(h);
        fb.switch_to(h);
        fb.branch(Cond::Eq, Reg::Virt(x), Reg::Virt(x), a, i);
        fb.switch_to(i);
        fb.ret(None);
        fb.finish()
    }

    struct Fixture {
        cfg: Cfg,
        usage: CalleeSavedUsage,
        cyclic: Vec<spillopt_ir::analysis::loops::CyclicRegion>,
        pst: Pst,
        derived: DerivedCfg,
    }

    fn fixture() -> Fixture {
        let f = shape();
        let cfg = Cfg::compute(&f);
        let n = cfg.num_blocks();
        let mut usage = CalleeSavedUsage::new();
        usage.set_busy(PReg::new(11), BlockId::from_index(2), n);
        usage.set_busy(PReg::new(12), BlockId::from_index(5), n);
        usage.set_busy(PReg::new(12), BlockId::from_index(3), n);
        let cyclic = sccs(&cfg);
        let pst = Pst::compute(&cfg);
        let derived = DerivedCfg::compute(&cfg);
        Fixture {
            cfg,
            usage,
            cyclic,
            pst,
            derived,
        }
    }

    fn assert_suites_equal(a: &PlacementSuite, b: &PlacementSuite, what: &str) {
        assert_eq!(a.entry_exit, b.entry_exit, "{what}: entry_exit");
        assert_eq!(a.chow, b.chow, "{what}: chow");
        assert_eq!(
            a.hierarchical_exec, b.hierarchical_exec,
            "{what}: exec placement"
        );
        assert_eq!(
            a.hierarchical_jump, b.hierarchical_jump,
            "{what}: jump placement"
        );
        assert_eq!(a.predicted, b.predicted, "{what}: predicted");
    }

    /// Both cost models' fold tables for the fixture, driven directly
    /// with a trace sink: the suite's folds record no decisions.
    struct TracedFolds {
        shares: EdgeShares,
        busy_counts: RegionBusyCounts,
        entry_exit: Placement,
        chow: Placement,
        folds: [ModelFold; 2],
    }

    impl TracedFolds {
        fn new(fx: &Fixture) -> Self {
            let initial = crate::modified::modified_shrink_wrap(&fx.cfg, &fx.usage);
            let fold = |model| ModelFold::new(&fx.cfg, &fx.pst, model, initial.clone());
            TracedFolds {
                shares: EdgeShares::from_sets(&initial.sets),
                busy_counts: RegionBusyCounts::compute(&fx.pst, fx.cfg.num_blocks(), &fx.usage),
                entry_exit: crate::entry_exit::entry_exit_placement(&fx.cfg, &fx.usage),
                chow: crate::chow::chow_shrink_wrap_with(&fx.cfg, &fx.cyclic, &fx.usage),
                folds: [fold(CostModel::ExecutionCount), fold(CostModel::JumpEdge)],
            }
        }

        /// Folds the `dirty` regions of both models on `profile`,
        /// returning each model's placement and trace.
        fn fold(
            &mut self,
            fx: &Fixture,
            profile: &EdgeProfile,
            dirty: &[bool],
        ) -> [(Placement, Vec<crate::TraceEvent>); 2] {
            let ctx = FoldCtx {
                cfg: &fx.cfg,
                pst: &fx.pst,
                usage: &fx.usage,
                profile,
                costs: &SpillCostModel::UNIT,
                shares: &self.shares,
                busy_counts: &self.busy_counts,
            };
            let models = [CostModel::ExecutionCount, CostModel::JumpEdge];
            let mut out: [(Placement, Vec<crate::TraceEvent>); 2] = Default::default();
            for ((fold, model), (placement, trace)) in
                self.folds.iter_mut().zip(models).zip(&mut out)
            {
                let baselines = Baselines::priced(&ctx, model, &self.entry_exit, &self.chow);
                let price;
                (*placement, price) = fold.fold(&ctx, dirty, &baselines, Some(trace));
                // The fold's price is the placement's fresh price.
                assert_eq!(
                    price,
                    placement_cost_with(model, ctx.costs, ctx.cfg, profile, placement),
                    "{model:?} fold price"
                );
            }
            out
        }
    }

    #[test]
    fn incremental_refold_matches_cold_across_drift_steps() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let fx = fixture();
        let opts = SuiteOptions::default();
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let base = random_walk_profile(&fx.cfg, 150, 48, seed);
            let inputs = SuiteInputs::analyzed(&fx.usage, &base, &fx.cyclic, &fx.pst, &fx.derived);
            let (_, mut memo) = run_suite_memoized(&fx.cfg, &inputs, &opts).expect("valid");
            let all = vec![true; fx.pst.num_regions()];
            let mut traced = TracedFolds::new(&fx);
            traced.fold(&fx, &base, &all);
            let mut prev = base.clone();
            for step in 0..12 {
                let mut counts = prev.edge_counts().to_vec();
                let mut entry = prev.entry_count();
                match step % 4 {
                    // Single-edge bump (the common small drift).
                    0 => {
                        let e = rng.gen_range(0..counts.len());
                        counts[e] = counts[e].wrapping_add(rng.gen_range(1..100)) & 0xFFFF;
                    }
                    // Entry-count drift.
                    1 => entry = entry.wrapping_add(rng.gen_range(1..50)) & 0xFFFF,
                    // Zero delta: nothing changes.
                    2 => {}
                    // Full invalidation: every edge changes.
                    _ => {
                        for c in counts.iter_mut() {
                            *c = rng.gen_range(0..1000);
                        }
                    }
                }
                let next = EdgeProfile::new(&fx.cfg, counts, entry);
                let delta = spillopt_profile::ProfileDelta::between(&prev, &next);
                let next_inputs =
                    SuiteInputs::analyzed(&fx.usage, &next, &fx.cyclic, &fx.pst, &fx.derived);
                let (warm, stats) =
                    run_suite_incremental(&fx.cfg, &next_inputs, &opts, &mut memo, &delta)
                        .expect("valid");
                let cold = run_suite(&fx.cfg, &next_inputs, &opts).expect("valid");
                let what = format!("seed {seed} step {step}");
                assert_suites_equal(&cold, &warm, &what);
                // The re-fold's trace is the cold trace restricted to the
                // dirty regions: `ModelFold::fold` folds exactly those.
                let dirty =
                    fx.pst
                        .dirty_regions(&fx.cfg, delta.changed_edges(), delta.entry_changed());
                let refolded = traced.fold(&fx, &next, &dirty);
                let cold_traced = TracedFolds::new(&fx).fold(&fx, &next, &all);
                let suite = [&warm.hierarchical_exec, &warm.hierarchical_jump];
                for (((placement, trace), (_, cold_trace)), suite) in
                    refolded.iter().zip(&cold_traced).zip(suite)
                {
                    assert_eq!(placement, suite, "{what}: traced fold placement");
                    let expected: Vec<_> = cold_trace
                        .iter()
                        .filter(|t| dirty[t.region.index()])
                        .cloned()
                        .collect();
                    assert_eq!(trace, &expected, "{what}: trace");
                    if delta.is_empty() {
                        assert!(trace.is_empty(), "{what}: zero delta records nothing");
                    }
                }
                if delta.is_empty() {
                    assert_eq!(stats.regions_refolded, 0, "zero delta must re-fold nothing");
                }
                if step % 4 == 3 {
                    assert_eq!(
                        stats.regions_refolded, stats.regions_total,
                        "{what}: full invalidation must dirty every region"
                    );
                }
                assert!(stats.regions_refolded <= stats.regions_total);
                prev = next;
            }
        }
    }

    #[test]
    fn small_drift_refolds_strictly_fewer_regions_than_total() {
        let fx = fixture();
        let opts = SuiteOptions::default();
        let base = random_walk_profile(&fx.cfg, 150, 48, 3);
        let inputs = SuiteInputs::analyzed(&fx.usage, &base, &fx.cyclic, &fx.pst, &fx.derived);
        let (_, mut memo) = run_suite_memoized(&fx.cfg, &inputs, &opts).expect("valid");

        // Find an edge whose innermost region is not the root, so the
        // drift is local; the fixture's nested diamonds guarantee one.
        let (edge, _) = fx
            .cfg
            .edges()
            .find(|(id, _)| {
                fx.pst.innermost_region_of_edge(&fx.cfg, *id) != fx.pst.root()
                    && fx
                        .pst
                        .dirty_regions(&fx.cfg, &[*id], false)
                        .iter()
                        .filter(|&&d| d)
                        .count()
                        < fx.pst.num_regions()
            })
            .expect("a local edge exists");
        let mut counts = base.edge_counts().to_vec();
        counts[edge.index()] += 17;
        let next = EdgeProfile::new(&fx.cfg, counts, base.entry_count());
        let delta = spillopt_profile::ProfileDelta::between(&base, &next);
        let next_inputs = SuiteInputs::analyzed(&fx.usage, &next, &fx.cyclic, &fx.pst, &fx.derived);
        let (warm, stats) =
            run_suite_incremental(&fx.cfg, &next_inputs, &opts, &mut memo, &delta).expect("valid");
        assert!(
            stats.regions_refolded < stats.regions_total,
            "small drift must re-fold strictly fewer regions ({} vs {})",
            stats.regions_refolded,
            stats.regions_total
        );
        assert!(stats.regions_refolded > 0);
        let cold = run_suite(&fx.cfg, &next_inputs, &opts).expect("valid");
        assert_suites_equal(&cold, &warm, "local drift");
    }
}
