//! One-call driver: all placement techniques on one procedure.
//!
//! The cold entry point is [`run_suite`] (the session arena's
//! [`crate::run_suite_memoized`] and [`crate::run_suite_incremental`]
//! run the same fold and keep its tables): the procedure's
//! analyses travel in a [`SuiteInputs`] — each analysis either **owned**
//! (computed here, the one-call path) or **borrowed** (the module
//! driver's cached path), behind one signature — the knobs travel in a
//! [`SuiteOptions`], and an invalid placement surfaces as a structured
//! [`SuiteError`] instead of a panic unwinding through whoever scheduled
//! the function. A new knob lands as a field of [`SuiteOptions`] or
//! [`SuiteInputs`], never as another free function.

use crate::cost::{Cost, CostModel, SpillCostModel};
use crate::entry_exit::entry_exit_placement;
use crate::hierarchical::{hierarchical_placement_seeded, HierarchicalResult};
use crate::location::Placement;
use crate::overhead::placement_cost_with;
use crate::usage::CalleeSavedUsage;
use crate::validate::{check_placement, PlacementChecker, PlacementError};
use spillopt_ir::analysis::loops::{sccs, CyclicRegion};
use spillopt_ir::{Cfg, DerivedCfg};
use spillopt_profile::EdgeProfile;
use spillopt_pst::Pst;
use std::fmt;

/// All placements of one procedure, with their predicted costs under the
/// jump-edge model (the physically accurate accounting).
#[derive(Clone, Debug)]
pub struct PlacementSuite {
    /// Entry/exit baseline.
    pub entry_exit: Placement,
    /// Chow's original shrink-wrapping.
    pub chow: Placement,
    /// Hierarchical, execution count model.
    pub hierarchical_exec: HierarchicalResult,
    /// Hierarchical, jump edge model (the paper's evaluated variant).
    pub hierarchical_jump: HierarchicalResult,
    /// Predicted cost (jump-edge accounting) of each, in the same order:
    /// (entry_exit, chow, hierarchical_exec, hierarchical_jump).
    pub predicted: [Cost; 4],
}

/// An analysis that is either computed here or borrowed from a caller's
/// cache (`Cow` without the `ToOwned` bound — `Pst` and `DerivedCfg`
/// need no `Clone`).
#[derive(Debug)]
enum Val<'a, T> {
    Owned(T),
    Borrowed(&'a T),
}

impl<T> Val<'_, T> {
    fn get(&self) -> &T {
        match self {
            Val::Owned(t) => t,
            Val::Borrowed(t) => t,
        }
    }
}

/// As [`Val`], for slice-shaped analyses.
#[derive(Debug)]
enum Slice<'a, T> {
    Owned(Vec<T>),
    Borrowed(&'a [T]),
}

impl<T> Slice<'_, T> {
    fn get(&self) -> &[T] {
        match self {
            Slice::Owned(v) => v,
            Slice::Borrowed(s) => s,
        }
    }
}

/// Everything [`run_suite`] consumes about one procedure: the callee-saved
/// usage, the edge profile, and the three CFG-derived analyses every
/// technique shares (SCCs, the PST, the dense [`DerivedCfg`] tables).
///
/// Each analysis is owned-or-borrowed, so the one-call path
/// ([`SuiteInputs::compute`]) and the cached module-driver path
/// ([`SuiteInputs::analyzed`]) share one [`run_suite`] signature — adding
/// a fifth analysis adds a field here, not a fifth entry point.
#[derive(Debug)]
pub struct SuiteInputs<'a> {
    usage: &'a CalleeSavedUsage,
    profile: &'a EdgeProfile,
    cyclic: Slice<'a, CyclicRegion>,
    pst: Val<'a, Pst>,
    derived: Val<'a, DerivedCfg>,
}

impl<'a> SuiteInputs<'a> {
    /// The one-call path: computes every shared analysis (SCCs, PST,
    /// dense CFG tables) from `cfg`.
    pub fn compute(cfg: &Cfg, usage: &'a CalleeSavedUsage, profile: &'a EdgeProfile) -> Self {
        let cyclic = {
            let _s = spillopt_obs::span("sccs");
            Slice::Owned(sccs(cfg))
        };
        let pst = {
            let _s = spillopt_obs::span("pst");
            Val::Owned(Pst::compute(cfg))
        };
        let derived = {
            let _s = spillopt_obs::span("derived_cfg");
            Val::Owned(DerivedCfg::compute(cfg))
        };
        SuiteInputs {
            usage,
            profile,
            cyclic,
            pst,
            derived,
        }
    }

    /// The cached path: every analysis borrowed from the caller (the
    /// module driver's `AnalysisCache`); nothing is recomputed here.
    pub fn analyzed(
        usage: &'a CalleeSavedUsage,
        profile: &'a EdgeProfile,
        cyclic: &'a [CyclicRegion],
        pst: &'a Pst,
        derived: &'a DerivedCfg,
    ) -> Self {
        SuiteInputs {
            usage,
            profile,
            cyclic: Slice::Borrowed(cyclic),
            pst: Val::Borrowed(pst),
            derived: Val::Borrowed(derived),
        }
    }

    /// The callee-saved usage.
    pub fn usage(&self) -> &CalleeSavedUsage {
        self.usage
    }

    /// The edge profile.
    pub fn profile(&self) -> &EdgeProfile {
        self.profile
    }

    /// Strongly connected components (Chow's artificial loop flow).
    pub fn cyclic(&self) -> &[CyclicRegion] {
        self.cyclic.get()
    }

    /// The Program Structure Tree.
    pub fn pst(&self) -> &Pst {
        self.pst.get()
    }

    /// The dense derived CFG tables.
    pub fn derived(&self) -> &DerivedCfg {
        self.derived.get()
    }
}

/// Knobs of one suite run. `#[non_exhaustive]`: future capabilities (a
/// new cost knob, a validation mode) land here as fields with defaults,
/// not as new entry-point variants. Construct via [`SuiteOptions::default`]
/// or [`SuiteOptions::priced`] and mutate fields as needed.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct SuiteOptions {
    /// The target's spill-cost model: both hierarchical variants make
    /// their replace-decisions under these instruction costs, and all
    /// four predicted costs use the target's physically accurate
    /// jump-edge accounting. [`SpillCostModel::UNIT`] reproduces the
    /// paper's PA-RISC accounting exactly.
    pub costs: SpillCostModel,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            costs: SpillCostModel::UNIT,
        }
    }
}

impl SuiteOptions {
    /// Options priced by a target's cost model.
    pub fn priced(costs: SpillCostModel) -> Self {
        SuiteOptions { costs }
    }
}

/// A produced placement failed validity checking — always a bug in this
/// crate, never a property of the input, but surfaced structurally so a
/// module-scale caller can name the failing function instead of catching
/// a panic off a worker thread.
#[derive(Clone, Debug)]
pub struct SuiteError {
    /// Which technique produced the invalid placement (`"entry_exit"`,
    /// `"chow"`, `"hierarchical_exec"`, or `"hierarchical_jump"`).
    pub technique: &'static str,
    /// The validity violations.
    pub errors: Vec<PlacementError>,
    /// The offending placement.
    pub placement: Placement,
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} placement invalid: ", self.technique)?;
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "\n{}", self.placement)
    }
}

impl std::error::Error for SuiteError {}

/// Runs every technique on one procedure and verifies the results: the
/// four-technique comparison, as [`crate::run_suite_memoized`] with the
/// memo dropped.
///
/// # Errors
///
/// Returns a [`SuiteError`] if any produced placement fails validity
/// checking; that is a bug in this crate, never a property of the input.
pub fn run_suite(
    cfg: &Cfg,
    inputs: &SuiteInputs<'_>,
    options: &SuiteOptions,
) -> Result<PlacementSuite, SuiteError> {
    crate::incremental::run_suite_memoized(cfg, inputs, options).map(|(suite, _)| suite)
}

/// Checks each `(technique, placement)` with `checker`, failing on the
/// first invalid one.
pub(crate) fn check_all<const N: usize>(
    checker: &PlacementChecker,
    cfg: &Cfg,
    usage: &CalleeSavedUsage,
    placements: [(&'static str, &Placement); N],
) -> Result<(), SuiteError> {
    for (technique, p) in placements {
        let errors = checker.check(cfg, usage, p);
        if !errors.is_empty() {
            return Err(SuiteError {
                technique,
                errors,
                placement: p.clone(),
            });
        }
    }
    Ok(())
}

/// One placement technique of the suite, for callers that want a single
/// result instead of the four-way comparison — the degradation ladder a
/// fault-tolerant driver walks when the full suite fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Technique {
    /// Entry/exit baseline (no fixpoint, no PST — the last rung).
    EntryExit,
    /// Chow's original shrink-wrapping.
    Chow,
    /// Hierarchical, execution count model.
    HierExec,
    /// Hierarchical, jump edge model.
    HierJump,
}

impl Technique {
    /// The label used by [`SuiteError::technique`] for this technique.
    pub fn label(self) -> &'static str {
        match self {
            Technique::EntryExit => "entry_exit",
            Technique::Chow => "chow",
            Technique::HierExec => "hierarchical_exec",
            Technique::HierJump => "hierarchical_jump",
        }
    }
}

/// Runs one technique on one procedure, validates it, and prices it under
/// the jump-edge model — computing only what that technique needs (the
/// hierarchical variants internally rebuild their Chow baseline and seed).
///
/// # Errors
///
/// Returns a [`SuiteError`] if the produced placement fails validity
/// checking.
pub fn run_technique(
    cfg: &Cfg,
    inputs: &SuiteInputs<'_>,
    options: &SuiteOptions,
    technique: Technique,
) -> Result<(Placement, Cost), SuiteError> {
    let usage = inputs.usage;
    let profile = inputs.profile;
    let costs = &options.costs;

    let placement = match technique {
        Technique::EntryExit => {
            let _s = spillopt_obs::span("place_entry_exit");
            entry_exit_placement(cfg, usage)
        }
        Technique::Chow => {
            let _s = spillopt_obs::span("place_chow");
            crate::chow::chow_shrink_wrap_derived(cfg, inputs.derived(), inputs.cyclic(), usage)
        }
        Technique::HierExec | Technique::HierJump => {
            let derived = inputs.derived();
            let chow = {
                let _s = spillopt_obs::span("place_chow");
                crate::chow::chow_shrink_wrap_derived(cfg, derived, inputs.cyclic(), usage)
            };
            let initial = {
                let _s = spillopt_obs::span("place_hier_seed");
                crate::modified::modified_shrink_wrap_derived(cfg, derived, usage)
            };
            let model = match technique {
                Technique::HierExec => CostModel::ExecutionCount,
                _ => CostModel::JumpEdge,
            };
            let span = match technique {
                Technique::HierExec => "place_hier_exec",
                _ => "place_hier_jump",
            };
            let _s = spillopt_obs::span(span);
            hierarchical_placement_seeded(
                cfg,
                inputs.pst(),
                usage,
                profile,
                model,
                costs,
                &chow,
                initial,
            )
            .placement
        }
    };

    {
        let _s = spillopt_obs::span("validate");
        let errors = check_placement(cfg, usage, &placement);
        if !errors.is_empty() {
            return Err(SuiteError {
                technique: technique.label(),
                errors,
                placement,
            });
        }
    }

    let cost = {
        let _s = spillopt_obs::span("price");
        placement_cost_with(CostModel::JumpEdge, costs, cfg, profile, &placement)
    };
    Ok((placement, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_ir::{Cond, FunctionBuilder, PReg, Reg};
    use spillopt_profile::random_walk_profile;

    fn diamond() -> (Cfg, CalleeSavedUsage, EdgeProfile) {
        let mut fb = FunctionBuilder::new("s", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        let c = fb.create_block(None);
        let d = fb.create_block(None);
        fb.switch_to(a);
        let x = fb.li(0);
        fb.branch(Cond::Lt, Reg::Virt(x), Reg::Virt(x), c, b);
        fb.switch_to(b);
        fb.jump(d);
        fb.switch_to(c);
        fb.jump(d);
        fb.switch_to(d);
        fb.ret(None);
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let profile = random_walk_profile(&cfg, 100, 32, 1);
        let mut usage = CalleeSavedUsage::new();
        usage.set_busy(PReg::new(11), b, 4);
        (cfg, usage, profile)
    }

    #[test]
    fn suite_runs_and_orders_costs() {
        let (cfg, usage, profile) = diamond();
        let inputs = SuiteInputs::compute(&cfg, &usage, &profile);
        let suite = run_suite(&cfg, &inputs, &SuiteOptions::default()).expect("valid placements");
        // The paper's guarantee under the jump model: hierarchical(jump)
        // ≤ entry/exit and ≤ chow.
        assert!(suite.predicted[3] <= suite.predicted[0]);
        assert!(suite.predicted[3] <= suite.predicted[1]);
    }

    #[test]
    fn owned_and_borrowed_inputs_agree() {
        let (cfg, usage, profile) = diamond();
        let cyclic = sccs(&cfg);
        let pst = Pst::compute(&cfg);
        let derived = DerivedCfg::compute(&cfg);
        let owned = SuiteInputs::compute(&cfg, &usage, &profile);
        let borrowed = SuiteInputs::analyzed(&usage, &profile, &cyclic, &pst, &derived);
        let opts = SuiteOptions::default();
        let a = run_suite(&cfg, &owned, &opts).expect("valid");
        let b = run_suite(&cfg, &borrowed, &opts).expect("valid");
        assert_eq!(a.entry_exit, b.entry_exit);
        assert_eq!(a.chow, b.chow);
        assert_eq!(a.hierarchical_jump.placement, b.hierarchical_jump.placement);
        assert_eq!(a.predicted, b.predicted);
    }

    #[test]
    fn single_technique_matches_the_suite() {
        let (cfg, usage, profile) = diamond();
        let inputs = SuiteInputs::compute(&cfg, &usage, &profile);
        let opts = SuiteOptions::default();
        let suite = run_suite(&cfg, &inputs, &opts).expect("valid");
        for (technique, placement, cost) in [
            (Technique::EntryExit, &suite.entry_exit, suite.predicted[0]),
            (Technique::Chow, &suite.chow, suite.predicted[1]),
            (
                Technique::HierExec,
                &suite.hierarchical_exec.placement,
                suite.predicted[2],
            ),
            (
                Technique::HierJump,
                &suite.hierarchical_jump.placement,
                suite.predicted[3],
            ),
        ] {
            let (single, single_cost) =
                run_technique(&cfg, &inputs, &opts, technique).expect("valid");
            assert_eq!(&single, placement, "{}", technique.label());
            assert_eq!(single_cost, cost, "{}", technique.label());
        }
    }

    #[test]
    fn suite_error_renders_technique_and_violations() {
        use crate::location::{SpillKind, SpillLoc, SpillPoint};
        let (cfg, usage, profile) = diamond();
        let _ = (&cfg, &profile);
        let mut placement = Placement::new();
        let point = SpillPoint {
            reg: PReg::new(11),
            kind: SpillKind::Restore,
            loc: SpillLoc::BlockTop(cfg.entry()),
        };
        placement.push(point);
        let err = SuiteError {
            technique: "chow",
            errors: vec![PlacementError::RestoreWithoutSave { point }],
            placement,
        };
        let rendered = err.to_string();
        assert!(rendered.contains("chow placement invalid"), "{rendered}");
        assert!(rendered.contains("restore without save"), "{rendered}");
        let _ = usage;
    }
}
