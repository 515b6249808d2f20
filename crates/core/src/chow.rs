//! Chow's original shrink-wrapping technique (PLDI 1988), as the paper
//! describes and compares against.
//!
//! Chow's data-flow formulation, expressed in the saved-region framework
//! of [`crate::dataflow`]: the busy set is grown by (1) artificial data
//! flow over loop bodies, (2) the all-paths anticipation/availability
//! hoisting his save/restore equations perform, and (3) artificial data
//! flow across any boundary edge that is a critical jump edge (Chow
//! "specifically prohibits spill code instructions from being inserted
//! onto jump edges"), iterated to a fixpoint. Saves are then placed on the
//! region-entry edges and restores on the region-exit edges — none of
//! which, by construction, require jump blocks.

use crate::location::Placement;
use crate::solver::chow_points_all;
use crate::usage::CalleeSavedUsage;
use spillopt_ir::analysis::loops::{sccs, CyclicRegion};
use spillopt_ir::{Cfg, DerivedCfg};

/// Computes Chow's shrink-wrapping placement for all used callee-saved
/// registers.
pub fn chow_shrink_wrap(cfg: &Cfg, usage: &CalleeSavedUsage) -> Placement {
    let cyclic = sccs(cfg);
    chow_shrink_wrap_with(cfg, &cyclic, usage)
}

/// As [`chow_shrink_wrap`], with precomputed cyclic regions (for callers
/// that already ran SCC detection).
///
/// All registers grow at once through the bit-parallel solver
/// ([`crate::solver::chow_grow_all`]) — one membership word per block,
/// one fixpoint, one boundary sweep — instead of one saved-region
/// fixpoint per register. The placement is identical to the retired
/// per-register path ([`crate::reference::chow_shrink_wrap_reference`]).
pub fn chow_shrink_wrap_with(
    cfg: &Cfg,
    cyclic: &[CyclicRegion],
    usage: &CalleeSavedUsage,
) -> Placement {
    let derived = DerivedCfg::compute(cfg);
    chow_shrink_wrap_derived(cfg, &derived, cyclic, usage)
}

/// As [`chow_shrink_wrap_with`], with the caller's cached [`DerivedCfg`]
/// (the driver's analysis cache computes it once per function and every
/// technique reuses it).
pub fn chow_shrink_wrap_derived(
    cfg: &Cfg,
    derived: &DerivedCfg,
    cyclic: &[CyclicRegion],
    usage: &CalleeSavedUsage,
) -> Placement {
    Placement::from_points(chow_points_all(cfg, derived, cyclic, usage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::{SpillKind, SpillLoc};
    use spillopt_ir::{Cond, FunctionBuilder, PReg, Reg};

    #[test]
    fn keeps_save_restore_out_of_loops() {
        // entry -> header; header -> {body(busy), exit}; body -> header.
        let mut fb = FunctionBuilder::new("l", 0);
        let entry = fb.create_block(None);
        let header = fb.create_block(None);
        let body = fb.create_block(None);
        let exit = fb.create_block(None);
        fb.switch_to(entry);
        let x = fb.li(0);
        fb.jump(header);
        fb.switch_to(header);
        fb.branch(Cond::Lt, Reg::Virt(x), Reg::Virt(x), exit, body);
        fb.switch_to(body);
        fb.jump(header);
        fb.switch_to(exit);
        fb.ret(None);
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let mut usage = CalleeSavedUsage::new();
        usage.set_busy(PReg::new(11), body, 4);
        let p = chow_shrink_wrap(&cfg, &usage);
        // No point may sit inside the loop {header, body}.
        for pt in p.points() {
            let blocks: Vec<usize> = match pt.loc {
                SpillLoc::BlockTop(b) | SpillLoc::BlockBottom(b) => vec![b.index()],
                SpillLoc::OnEdge(e) => {
                    let edge = cfg.edge(e);
                    // An edge location is "inside" if both endpoints are.
                    vec![edge.from.index(), edge.to.index()]
                }
            };
            let inside = blocks
                .iter()
                .all(|&b| b == header.index() || b == body.index());
            assert!(!inside, "spill point {pt} is inside the loop");
        }
        assert!(!p.is_empty());
    }

    #[test]
    fn single_cold_block_stays_tight() {
        // Diamond with one busy arm: Chow == modified here.
        let mut fb = FunctionBuilder::new("d", 0);
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
        let p = chow_shrink_wrap(&cfg, &usage);
        assert_eq!(p.static_count(), 2);
        let ab = cfg.edge_between(a, b).unwrap();
        let bd = cfg.edge_between(b, d).unwrap();
        assert!(p
            .points()
            .iter()
            .any(|pt| pt.loc == SpillLoc::OnEdge(ab) && pt.kind == SpillKind::Save));
        assert!(p
            .points()
            .iter()
            .any(|pt| pt.loc == SpillLoc::OnEdge(bd) && pt.kind == SpillKind::Restore));
    }
}
