//! The frozen pre-rewrite module pipeline, for the perf-trajectory
//! bench.
//!
//! [`optimize_module_reference`] reproduces the per-function pipeline
//! exactly as it ran before the word-parallel/dense overhaul, by calling
//! the retired implementations each crate keeps verbatim:
//!
//! * synthetic profiles via
//!   [`spillopt_profile::random_walk_profile_reference`];
//! * register allocation via [`spillopt_regalloc::allocate_reference`]
//!   (reference liveness, interference build, and coloring);
//! * callee-saved usage from the reference liveness;
//! * the PST via [`spillopt_pst::Pst::compute_reference`] (reference
//!   dominator machinery, no preorder arena);
//! * the placement suite via
//!   [`spillopt_core::reference::run_suite_priced_reference`]
//!   (per-register Chow fixpoints, hash-keyed hierarchical bookkeeping,
//!   hash-map share/cost accounting, per-register validation).
//!
//! Its [`ModuleReport`] is byte-identical to
//! [`crate::driver::optimize_module_for`]'s — the rewrite changed *how*
//! the answers are computed, never the answers — which `spillopt bench`
//! asserts on every run before it reports the wall-clock ratio. Keeping
//! the baseline executable (instead of a number in a README) makes the
//! speedup reproducible on any machine, forever.

use crate::driver::{DriverConfig, DriverError, ModuleRun, ProfileSource, Strategy};
use crate::report::{FunctionReport, ModuleReport, StrategyReport};
use spillopt_core::reference::run_suite_priced_reference;
use spillopt_core::{CalleeSavedUsage, SpillCostModel};
use spillopt_ir::analysis::loops::sccs;
use spillopt_ir::{Cfg, FuncId, Function, Liveness, Module, Target};
use spillopt_profile::{random_walk_profile_reference, EdgeProfile, Machine};
use spillopt_pst::Pst;
use spillopt_regalloc::allocate_reference;
use spillopt_sync::Arc;
use spillopt_targets::TargetSpec;

/// As [`crate::driver::optimize_module_for`], running the frozen
/// reference pipeline end to end (serial; the bench times both arms at
/// the same thread count).
pub fn optimize_module_reference(
    module: &Module,
    spec: &TargetSpec,
    config: &DriverConfig,
) -> Result<ModuleRun, DriverError> {
    let target = spec.to_target();
    let costs = spec.costs;
    // Stage 1 (serial): training profiles, if a workload is given.
    let profiles: Vec<Option<EdgeProfile>> = match &config.profile {
        ProfileSource::Workload(runs) => {
            let mut vm = Machine::new(module, &target);
            vm.set_fuel(1 << 30);
            for (f, args) in runs {
                vm.call(*f, args).map_err(DriverError::Workload)?;
            }
            module
                .func_ids()
                .map(|f| Some(vm.edge_profile(f)))
                .collect()
        }
        ProfileSource::Synthetic { .. } => module.func_ids().map(|_| None).collect(),
        // The reference pipeline predates (and never participates in)
        // the incremental re-profiling path, but explicit profiles are
        // still valid inputs: use them as given.
        ProfileSource::Profiles(profiles) => profiles.iter().cloned().map(Some).collect(),
    };

    let items: Vec<(FuncId, Option<EdgeProfile>)> = module.func_ids().zip(profiles).collect();
    let outcomes = crate::pool::try_run_indexed(items, config.threads, |index, (fid, profile)| {
        let mut func = module.func(fid).clone();
        let profile = profile.unwrap_or_else(|| {
            let ProfileSource::Synthetic {
                walks,
                max_steps,
                seed,
            } = &config.profile
            else {
                unreachable!("workload profiles are precomputed")
            };
            let cfg = Cfg::compute(&func);
            random_walk_profile_reference(
                &cfg,
                *walks,
                *max_steps,
                seed ^ (index as u64).wrapping_mul(0x9e37_79b9),
            )
        });
        let alloc = allocate_reference(&mut func, &target, Some(&profile));
        let report =
            per_function_reference(fid, &func, &target, &costs, profile, alloc.spilled_vregs);
        (report, Arc::new(func))
    })
    .map_err(|p| DriverError::Panicked {
        unit: module.func(FuncId::from_index(p.index)).name().to_string(),
        message: p.message(),
    })?;

    let (reports, allocated): (Vec<_>, Vec<_>) = outcomes.into_iter().unzip();
    Ok(ModuleRun::from_parts(
        ModuleReport::new(
            module.name().to_string(),
            target.name().to_string(),
            reports,
        ),
        allocated,
        Vec::new(),
    ))
}

/// One function through the frozen pipeline (reference analyses +
/// reference suite).
fn per_function_reference(
    fid: FuncId,
    func: &Function,
    target: &Target,
    costs: &SpillCostModel,
    profile: EdgeProfile,
    spilled_vregs: usize,
) -> FunctionReport {
    let cfg = Cfg::compute(func);
    let liveness = Liveness::compute_reference(func, &cfg, target);
    let usage = CalleeSavedUsage::from_liveness(func, target, &liveness);
    let insts = func.block_ids().map(|b| func.block(b).insts.len()).sum();
    let mut report = FunctionReport {
        index: fid.index(),
        name: func.name().to_string(),
        blocks: func.num_blocks(),
        insts,
        spilled_vregs,
        callee_saved: usage.num_regs(),
        strategies: Vec::new(),
        best: None,
    };
    if usage.is_empty() {
        return report;
    }

    let cyclic = sccs(&cfg);
    let pst = Pst::compute_reference(&cfg);
    let suite = run_suite_priced_reference(&cfg, &cyclic, &pst, &usage, &profile, costs);
    let placements = [
        (Strategy::Baseline, suite.entry_exit),
        (Strategy::Shrinkwrap, suite.chow),
        (Strategy::HierExec, suite.hierarchical_exec.placement),
        (Strategy::HierJump, suite.hierarchical_jump.placement),
    ];
    for ((strategy, placement), cost) in placements.into_iter().zip(suite.predicted) {
        report.strategies.push(StrategyReport {
            strategy,
            cost,
            static_count: placement.static_count(),
            placement,
        });
    }
    report.best = Some(
        report
            .strategies
            .iter()
            .min_by_key(|s| s.cost)
            .expect("four strategies")
            .strategy,
    );
    report
}
