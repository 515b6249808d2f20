//! The paper's *modified shrink-wrapping*: the initial save/restore sets.
//!
//! Two modifications distinguish it from Chow's original technique
//! (paper, Section 4): no artificial data flow is propagated over loop
//! bodies, and spill code may be placed on jump edges. The result is the
//! tightest valid placement — saves and restores immediately around each
//! connected busy cluster — which seeds the hierarchical algorithm.

use crate::location::Placement;
use crate::sets::SaveRestoreSet;
use crate::usage::CalleeSavedUsage;
use spillopt_ir::{Cfg, DerivedCfg};

/// The initial sets plus their union as a [`Placement`].
#[derive(Clone, Debug)]
pub struct InitialSets {
    /// One set per (register, connected busy cluster).
    pub sets: Vec<SaveRestoreSet>,
}

impl InitialSets {
    /// The union of all sets as a placement.
    pub fn placement(&self) -> Placement {
        Placement::from_points(
            self.sets
                .iter()
                .flat_map(|s| s.points.iter().copied())
                .collect(),
        )
    }
}

/// Computes the paper's initial save/restore sets: for each callee-saved
/// register and each connected cluster of its busy blocks, a save on every
/// edge entering the cluster (or at procedure entry) and a restore on
/// every edge leaving it (or before contained returns).
///
/// All registers' clusters are wrapped in one edge sweep over busy
/// membership words ([`crate::solver::initial_sets_all`]) instead of one
/// boundary sweep per cluster; the sets are identical to the retired
/// path ([`crate::reference::modified_shrink_wrap_reference`]).
pub fn modified_shrink_wrap(cfg: &Cfg, usage: &CalleeSavedUsage) -> InitialSets {
    let derived = DerivedCfg::compute(cfg);
    modified_shrink_wrap_derived(cfg, &derived, usage)
}

/// As [`modified_shrink_wrap`], with the caller's cached [`DerivedCfg`].
pub fn modified_shrink_wrap_derived(
    cfg: &Cfg,
    derived: &DerivedCfg,
    usage: &CalleeSavedUsage,
) -> InitialSets {
    InitialSets {
        sets: crate::solver::initial_sets_all(cfg, derived, usage),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::SpillLoc;
    use spillopt_ir::{Cond, FunctionBuilder, PReg, Reg};

    #[test]
    fn wraps_single_busy_block() {
        // A -> {B busy, C} -> D.
        let mut fb = FunctionBuilder::new("f", 0);
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
        let mut usage = CalleeSavedUsage::new();
        usage.set_busy(PReg::new(11), b, 4);
        let init = modified_shrink_wrap(&cfg, &usage);
        assert_eq!(init.sets.len(), 1);
        let set = &init.sets[0];
        assert_eq!(set.saves().count(), 1);
        assert_eq!(set.restores().count(), 1);
        assert!(set.initial);
        assert_eq!(
            set.saves().next().unwrap().loc,
            SpillLoc::OnEdge(cfg.edge_between(a, b).unwrap())
        );
        assert_eq!(
            set.restores().next().unwrap().loc,
            SpillLoc::OnEdge(cfg.edge_between(b, d).unwrap())
        );
    }

    #[test]
    fn disjoint_clusters_make_separate_sets() {
        // A(busy) -> B -> C(busy) -> ret; one register, two clusters.
        let mut fb = FunctionBuilder::new("f", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        let c = fb.create_block(None);
        fb.switch_to(a);
        fb.jump(b);
        fb.switch_to(b);
        fb.jump(c);
        fb.switch_to(c);
        fb.ret(None);
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let mut usage = CalleeSavedUsage::new();
        usage.set_busy(PReg::new(11), a, 3);
        usage.set_busy(PReg::new(11), c, 3);
        let init = modified_shrink_wrap(&cfg, &usage);
        assert_eq!(init.sets.len(), 2);
        // The A cluster saves at entry; the C cluster restores at exit.
        let entry_cluster = init
            .sets
            .iter()
            .find(|s| s.cluster.contains(a.index()))
            .unwrap();
        assert!(entry_cluster
            .saves()
            .any(|p| p.loc == SpillLoc::BlockTop(a)));
        let exit_cluster = init
            .sets
            .iter()
            .find(|s| s.cluster.contains(c.index()))
            .unwrap();
        assert!(exit_cluster
            .restores()
            .any(|p| p.loc == SpillLoc::BlockBottom(c)));
    }
}
