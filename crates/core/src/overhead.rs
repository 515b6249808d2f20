//! Model-predicted overhead of placements.

use crate::cost::{location_cost, Cost, CostModel, SpillCostModel};
use crate::location::{Placement, SpillKind, SpillLoc};
use crate::sets::EdgeShares;
use spillopt_ir::{Cfg, EdgeId};
use spillopt_profile::{EdgeProfile, SpillCounts};

/// The predicted dynamic cost of a whole placement under a model.
///
/// Jump-instruction cost on critical jump edges is charged *per edge*
/// (shared by all registers placing code there), which is the physically
/// accurate accounting — [`crate::insert`] creates one jump block per
/// edge. This is what the harness compares against measured execution.
pub fn placement_cost(
    model: CostModel,
    cfg: &Cfg,
    profile: &EdgeProfile,
    placement: &Placement,
) -> Cost {
    // Base costs (entry-top points priced once per procedure entry).
    let mut total: Cost = placement
        .points()
        .iter()
        .map(|p| location_cost(CostModel::ExecutionCount, cfg, profile, p.loc, 1))
        .sum();
    if model == CostModel::JumpEdge {
        // One jump penalty per distinct critical jump edge used.
        let mut edges: Vec<EdgeId> = placement
            .points()
            .iter()
            .filter_map(|p| match p.loc {
                SpillLoc::OnEdge(e) if cfg.needs_jump_block(e) => Some(e),
                _ => None,
            })
            .collect();
        edges.sort();
        edges.dedup();
        for e in edges {
            total += Cost::from_count(profile.edge_count(e));
        }
    }
    total
}

/// As [`placement_cost`], priced with a target's [`SpillCostModel`] —
/// the physically accurate accounting for that target.
///
/// Registers placing a save (or restore) at the same location share
/// paired instructions: `n` registers need `ceil(n / pair_size)`
/// instructions there ([`crate::insert`] realizes co-located code
/// together, which a pairing backend would emit as `stp`/`ldp` runs).
/// Entry saves and exit restores use their cheaper per-target weights,
/// and one jump per distinct critical jump edge is charged under
/// [`CostModel::JumpEdge`]. With [`SpillCostModel::UNIT`] this equals
/// [`placement_cost`] exactly.
pub fn placement_cost_with(
    model: CostModel,
    costs: &SpillCostModel,
    cfg: &Cfg,
    profile: &EdgeProfile,
    placement: &Placement,
) -> Cost {
    let pair = costs.pair_size.max(1) as u64;
    // Group registers per (location, kind) by sorting the points' dense
    // keys — identical grouping and summation order to the retired
    // hash-then-sort accounting ([`placement_cost_with_reference`]), with
    // no hashing and one small scratch allocation.
    let n = cfg.num_blocks();
    let mut keys: Vec<u32> = placement
        .points()
        .iter()
        .map(|p| {
            let loc = match p.loc {
                SpillLoc::BlockTop(b) => b.index(),
                SpillLoc::BlockBottom(b) => n + b.index(),
                SpillLoc::OnEdge(e) => 2 * n + e.index(),
            };
            (loc * 2 + p.kind as usize) as u32
        })
        .collect();
    keys.sort_unstable();
    let decode = |key: u32| -> (SpillLoc, SpillKind) {
        let kind = if key.is_multiple_of(2) {
            SpillKind::Restore
        } else {
            SpillKind::Save
        };
        let loc = (key / 2) as usize;
        let loc = if loc < n {
            SpillLoc::BlockTop(spillopt_ir::BlockId::from_index(loc))
        } else if loc < 2 * n {
            SpillLoc::BlockBottom(spillopt_ir::BlockId::from_index(loc - n))
        } else {
            SpillLoc::OnEdge(EdgeId::from_index(loc - 2 * n))
        };
        (loc, kind)
    };
    let mut total = Cost::ZERO;
    let mut i = 0;
    while i < keys.len() {
        let key = keys[i];
        let mut regs = 0u64;
        while i < keys.len() && keys[i] == key {
            regs += 1;
            i += 1;
        }
        let (loc, kind) = decode(key);
        let insts = regs.div_ceil(pair);
        let count = crate::cost::location_exec_count(cfg, profile, loc);
        total += costs
            .insn(cfg, kind, loc)
            .of(count.saturating_mul(insts), 1);
    }
    if model == CostModel::JumpEdge {
        let mut edges: Vec<EdgeId> = placement
            .points()
            .iter()
            .filter_map(|p| match p.loc {
                SpillLoc::OnEdge(e) if cfg.needs_jump_block(e) => Some(e),
                _ => None,
            })
            .collect();
        edges.sort();
        edges.dedup();
        for e in edges {
            total += costs.jump.of(profile.edge_count(e), 1);
        }
    }
    total
}

/// The predicted dynamic cost as the *models* see it during the
/// hierarchical traversal (per-register jump charging with sharing factors
/// for initial sets). Used to reproduce the paper's worked-example
/// arithmetic.
pub fn placement_model_cost(
    model: CostModel,
    cfg: &Cfg,
    profile: &EdgeProfile,
    placement: &Placement,
    shares: &EdgeShares,
) -> Cost {
    placement
        .points()
        .iter()
        .map(|p| location_cost(model, cfg, profile, p.loc, shares.share(p.loc)))
        .sum()
}

/// The exact dynamic instruction counts a placement will execute under
/// `profile`'s workload, as an oracle for differential testing.
///
/// The prediction mirrors how [`crate::insert_placement`] realizes a
/// placement: every placed save/restore executes exactly the execution
/// count of its location (sinking an edge location into a block endpoint
/// preserves that count — the endpoint then has no other in/out flow),
/// and one jump-block jump executes per distinct *critical jump* edge
/// carrying spill code. Running the transformed program on the same
/// workload the profile was measured on must reproduce these counters
/// exactly ([`spillopt_profile::ExecCounts::spill_counts`]); see
/// [`spillopt_profile::SpillCounts::diff`].
pub fn predicted_spill_counts(
    cfg: &Cfg,
    profile: &EdgeProfile,
    placement: &Placement,
) -> SpillCounts {
    let mut out = SpillCounts::default();
    let mut jump_edges: Vec<EdgeId> = Vec::new();
    for p in placement.points() {
        if let SpillLoc::OnEdge(e) = p.loc {
            if cfg.needs_jump_block(e) {
                jump_edges.push(e);
            }
        }
        let count = crate::cost::location_exec_count(cfg, profile, p.loc);
        match p.kind {
            SpillKind::Save => out.saves += count,
            SpillKind::Restore => out.restores += count,
        }
    }
    jump_edges.sort();
    jump_edges.dedup();
    for e in jump_edges {
        out.jump_jumps += profile.edge_count(e);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::{SpillKind, SpillPoint};
    use spillopt_ir::{Cond, FunctionBuilder, PReg, Reg};

    #[test]
    fn jump_penalty_charged_once_per_edge() {
        // Critical jump edge d->b with two registers on it.
        let mut fb = FunctionBuilder::new("f", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        let c = fb.create_block(None);
        let d = fb.create_block(None);
        let e = fb.create_block(None);
        fb.switch_to(a);
        let x = fb.li(0);
        fb.branch(Cond::Lt, Reg::Virt(x), Reg::Virt(x), c, b);
        fb.switch_to(b);
        fb.jump(d);
        fb.switch_to(c);
        fb.jump(d);
        fb.switch_to(d);
        fb.branch(Cond::Gt, Reg::Virt(x), Reg::Virt(x), b, e);
        fb.switch_to(e);
        fb.ret(None);
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let db = cfg.edge_between(d, b).unwrap();
        let mut counts = vec![0u64; cfg.num_edges()];
        counts[db.index()] = 7;
        let profile = spillopt_profile::EdgeProfile::new(&cfg, counts, 0);
        let placement = Placement::from_points(vec![
            SpillPoint {
                reg: PReg::new(11),
                kind: SpillKind::Restore,
                loc: SpillLoc::OnEdge(db),
            },
            SpillPoint {
                reg: PReg::new(12),
                kind: SpillKind::Restore,
                loc: SpillLoc::OnEdge(db),
            },
        ]);
        // Exec model: 7 + 7. Jump model: + one shared jump (7).
        assert_eq!(
            placement_cost(CostModel::ExecutionCount, &cfg, &profile, &placement),
            Cost::from_count(14)
        );
        assert_eq!(
            placement_cost(CostModel::JumpEdge, &cfg, &profile, &placement),
            Cost::from_count(21)
        );
    }
}
