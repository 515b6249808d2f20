//! The retired (pre-word-parallel) implementations, frozen verbatim.
//!
//! Every hot path this crate rewrote for the word-parallel/dense
//! overhaul keeps its original implementation here, unchanged:
//!
//! * [`chow_shrink_wrap_reference`] — Chow's placement via the
//!   per-register saved-region growth of [`crate::dataflow`] (the
//!   `dataflow` module itself is the retired per-register solver, kept
//!   as the oracle the bit-parallel [`crate::solver`] is differentially
//!   tested against);
//! * [`EdgeSharesReference`] — jump-cost/pairing shares accounted in
//!   `HashMap`s instead of dense edge-indexed tables;
//! * [`hierarchical_placement_vs_reference`] — the PST traversal with
//!   hash-keyed region bookkeeping and per-query set-cost recomputation;
//! * [`placement_cost_with_reference`] — whole-placement pricing with
//!   hash-grouped locations;
//! * [`check_placement_reference`] — the per-register validator;
//! * [`run_suite_priced_reference`] — the four-technique suite wired to
//!   all of the above.
//!
//! One consumer: the differential tests (the rewritten paths must be
//! decision-for-decision identical), up to the module-scale byte
//! comparison of `tests/differential_solver.rs`, which runs the frozen
//! pipeline and the current one on the same corpus.

use crate::chow::chow_shrink_wrap_with;
use crate::cost::{location_cost, spill_point_cost, Cost, CostModel, SpillCostModel};
use crate::dataflow::{chow_grow, region_boundary};
use crate::entry_exit::entry_exit_placement;
use crate::hierarchical::{boundary_set, home_region, HierarchicalResult, TraceEvent};
use crate::location::{Placement, SpillKind, SpillLoc, SpillPoint};
use crate::modified::InitialSets;
use crate::pipeline::PlacementSuite;
use crate::sets::SaveRestoreSet;
use crate::usage::CalleeSavedUsage;
use crate::validate::PlacementError;
use spillopt_ir::analysis::loops::CyclicRegion;
use spillopt_ir::{BlockId, Cfg, DenseBitSet, EdgeId, PReg};
use spillopt_profile::EdgeProfile;
use spillopt_pst::{Pst, RegionId};
use std::collections::HashMap;

/// Per-edge sharing factors accounted in `HashMap`s — the retired form
/// of [`crate::sets::EdgeShares`]. Same query results.
#[derive(Clone, Debug, Default)]
pub struct EdgeSharesReference {
    counts: HashMap<EdgeId, u64>,
    colocated: HashMap<(SpillLoc, SpillKind), u64>,
}

impl EdgeSharesReference {
    /// No sharing anywhere (every location bears full jump cost).
    pub fn none() -> Self {
        EdgeSharesReference::default()
    }

    /// Computes shares from the initial sets (retired hash-map
    /// accounting).
    pub fn from_sets(sets: &[SaveRestoreSet]) -> Self {
        let mut regs_per_edge: HashMap<EdgeId, Vec<PReg>> = HashMap::new();
        let mut regs_per_loc: HashMap<(SpillLoc, SpillKind), Vec<PReg>> = HashMap::new();
        for s in sets {
            for p in &s.points {
                if let SpillLoc::OnEdge(e) = p.loc {
                    let v = regs_per_edge.entry(e).or_default();
                    if !v.contains(&p.reg) {
                        v.push(p.reg);
                    }
                }
                let v = regs_per_loc.entry((p.loc, p.kind)).or_default();
                if !v.contains(&p.reg) {
                    v.push(p.reg);
                }
            }
        }
        EdgeSharesReference {
            counts: regs_per_edge
                .into_iter()
                .map(|(e, v)| (e, v.len() as u64))
                .collect(),
            colocated: regs_per_loc
                .into_iter()
                .map(|(k, v)| (k, v.len() as u64))
                .collect(),
        }
    }

    /// The sharing factor for a location (1 if not on a shared edge).
    pub fn share(&self, loc: SpillLoc) -> u64 {
        match loc {
            SpillLoc::OnEdge(e) => self.counts.get(&e).copied().unwrap_or(1).max(1),
            _ => 1,
        }
    }

    /// The pairing divisor for one save/restore of `kind` at `loc`.
    pub fn pair_share(&self, loc: SpillLoc, kind: SpillKind, pair_size: u8) -> u64 {
        let co = self
            .colocated
            .get(&(loc, kind))
            .copied()
            .unwrap_or(1)
            .max(1);
        co.min(pair_size.max(1) as u64)
    }
}

/// [`SaveRestoreSet::cost_with`] against the retired share accounting.
pub fn set_cost_with_reference(
    set: &SaveRestoreSet,
    model: CostModel,
    costs: &SpillCostModel,
    cfg: &Cfg,
    profile: &EdgeProfile,
    shares: &EdgeSharesReference,
) -> Cost {
    set.points
        .iter()
        .map(|p| {
            let (jump_share, pair_share) = if set.initial {
                (
                    shares.share(p.loc),
                    shares.pair_share(p.loc, p.kind, costs.pair_size),
                )
            } else {
                (1, 1)
            };
            spill_point_cost(
                model, costs, cfg, profile, p.kind, p.loc, jump_share, pair_share,
            )
        })
        .sum()
}

/// The paper's initial save/restore sets via the retired per-cluster
/// boundary scan (one `region_boundary` edge sweep per cluster). Same
/// sets, same order as [`crate::modified_shrink_wrap`].
pub fn modified_shrink_wrap_reference(cfg: &Cfg, usage: &CalleeSavedUsage) -> InitialSets {
    let mut sets = Vec::new();
    for (reg, busy) in usage.regs() {
        for cluster in crate::dataflow::busy_clusters(cfg, busy) {
            let b = region_boundary(cfg, &cluster);
            let mut points = Vec::new();
            if b.save_at_entry {
                points.push(SpillPoint {
                    reg,
                    kind: SpillKind::Save,
                    loc: SpillLoc::BlockTop(cfg.entry()),
                });
            }
            for e in b.save_edges {
                points.push(SpillPoint {
                    reg,
                    kind: SpillKind::Save,
                    loc: SpillLoc::OnEdge(e),
                });
            }
            for e in b.restore_edges {
                points.push(SpillPoint {
                    reg,
                    kind: SpillKind::Restore,
                    loc: SpillLoc::OnEdge(e),
                });
            }
            for x in b.restore_at_exits {
                points.push(SpillPoint {
                    reg,
                    kind: SpillKind::Restore,
                    loc: SpillLoc::BlockBottom(x),
                });
            }
            sets.push(SaveRestoreSet {
                reg,
                points,
                cluster,
                initial: true,
            });
        }
    }
    InitialSets { sets }
}

/// Chow's shrink-wrapping via the per-register saved-region growth
/// ([`chow_grow`]), one fixpoint per callee-saved register. Identical
/// placement to [`crate::chow_shrink_wrap_with`].
pub fn chow_shrink_wrap_reference(
    cfg: &Cfg,
    cyclic: &[CyclicRegion],
    usage: &CalleeSavedUsage,
) -> Placement {
    let mut points = Vec::new();
    for (reg, busy) in usage.regs() {
        let w = chow_grow(cfg, cyclic, busy);
        let b = region_boundary(cfg, &w);
        if b.save_at_entry {
            points.push(SpillPoint {
                reg,
                kind: SpillKind::Save,
                loc: SpillLoc::BlockTop(cfg.entry()),
            });
        }
        for e in b.save_edges {
            debug_assert!(
                !cfg.needs_jump_block(e),
                "Chow placement reached a critical jump edge"
            );
            points.push(SpillPoint {
                reg,
                kind: SpillKind::Save,
                loc: SpillLoc::OnEdge(e),
            });
        }
        for e in b.restore_edges {
            debug_assert!(
                !cfg.needs_jump_block(e),
                "Chow placement reached a critical jump edge"
            );
            points.push(SpillPoint {
                reg,
                kind: SpillKind::Restore,
                loc: SpillLoc::OnEdge(e),
            });
        }
        for x in b.restore_at_exits {
            points.push(SpillPoint {
                reg,
                kind: SpillKind::Restore,
                loc: SpillLoc::BlockBottom(x),
            });
        }
    }
    Placement::from_points(points)
}

/// Whole-placement pricing with hash-grouped locations — the retired
/// form of [`crate::placement_cost_with`]. Same cost.
pub fn placement_cost_with_reference(
    model: CostModel,
    costs: &SpillCostModel,
    cfg: &Cfg,
    profile: &EdgeProfile,
    placement: &Placement,
) -> Cost {
    let pair = costs.pair_size.max(1) as u64;
    let mut groups: HashMap<(SpillLoc, SpillKind), u64> = HashMap::new();
    for p in placement.points() {
        *groups.entry((p.loc, p.kind)).or_insert(0) += 1;
    }
    let mut keys: Vec<(SpillLoc, SpillKind)> = groups.keys().copied().collect();
    keys.sort();
    let mut total = Cost::ZERO;
    for key in keys {
        let (loc, kind) = key;
        let regs = groups[&key];
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

/// One register's candidacy at a region (retired traversal).
struct Candidate {
    reg: PReg,
    sets: Vec<SaveRestoreSet>,
    contained_cost: Cost,
    hoistable: bool,
    boundary: SaveRestoreSet,
    boundary_cost: Cost,
}

/// The hierarchical traversal with hash-keyed bookkeeping — the retired
/// form of [`crate::hierarchical_placement_seeded`]. Identical decisions,
/// placement, final sets, and trace.
pub fn hierarchical_placement_vs_reference(
    cfg: &Cfg,
    pst: &Pst,
    usage: &CalleeSavedUsage,
    profile: &EdgeProfile,
    model: CostModel,
    costs: &SpillCostModel,
    shrink_wrap: &Placement,
) -> HierarchicalResult {
    // Lines 2-3: initial sets from the modified shrink-wrapping, with the
    // jump-cost sharing the paper prescribes for them.
    let initial = modified_shrink_wrap_reference(cfg, usage);
    let shares = EdgeSharesReference::from_sets(&initial.sets);

    // Assign each set to its home region: the innermost region containing
    // the whole cluster and every location.
    let mut home_sets: HashMap<RegionId, Vec<SaveRestoreSet>> = HashMap::new();
    for set in initial.sets {
        let home = home_region(cfg, pst, &set);
        home_sets.entry(home).or_default().push(set);
    }

    let mut trace = Vec::new();
    // Folded sets flowing up the tree, per region (keyed by region).
    let mut folded: HashMap<RegionId, Vec<SaveRestoreSet>> = HashMap::new();

    // Line 4: topological-order (children-first) traversal.
    for &r in pst.postorder() {
        let region = pst.region(r);
        let mut live: Vec<SaveRestoreSet> = Vec::new();
        for &c in &region.children {
            live.extend(folded.remove(&c).unwrap_or_default());
        }
        live.extend(home_sets.remove(&r).unwrap_or_default());

        // Line 5: per callee-saved register.
        let mut regs: Vec<PReg> = live.iter().map(|s| s.reg).collect();
        regs.sort();
        regs.dedup();

        let mut candidates: Vec<Candidate> = Vec::new();
        for reg in regs {
            let (mine, rest): (Vec<_>, Vec<_>) = live.drain(..).partition(|s| s.reg == reg);
            live = rest;

            // Hoisting to this region's boundary is only valid if every
            // busy block of `reg` inside the region belongs to the
            // contained sets (otherwise another web of the same register
            // crosses the boundary).
            let busy = usage.busy(reg).expect("set exists for used register");
            let mut busy_inside = busy.clone();
            busy_inside.intersect_with(&region.blocks);
            let contained_blocks: usize = mine.iter().map(|s| s.cluster.count()).sum();
            let hoistable = contained_blocks == busy_inside.count();

            let contained_cost: Cost = mine
                .iter()
                .map(|s| set_cost_with_reference(s, model, costs, cfg, profile, &shares))
                .sum();
            let boundary = boundary_set(cfg, pst, r, reg);
            let boundary_cost =
                set_cost_with_reference(&boundary, model, costs, cfg, profile, &shares);

            candidates.push(Candidate {
                reg,
                sets: mine,
                contained_cost,
                hoistable,
                boundary,
                boundary_cost,
            });
        }

        let decisions = if costs.pair_size > 1 {
            decide_paired_reference(model, costs, cfg, profile, &candidates)
        } else {
            // Line 6: the paper's per-register "less than or equal" rule.
            candidates
                .iter()
                .map(|c| {
                    (
                        c.hoistable && c.boundary_cost <= c.contained_cost,
                        c.boundary_cost,
                    )
                })
                .collect()
        };

        let mut surviving: Vec<SaveRestoreSet> = Vec::new();
        for (c, (replaced, charged)) in candidates.into_iter().zip(decisions) {
            trace.push(TraceEvent {
                region: r,
                reg: c.reg,
                num_contained: c.sets.len(),
                contained_cost: c.contained_cost,
                boundary_cost: charged,
                replaced,
            });
            if replaced {
                // Lines 7-8.
                let mut cluster = DenseBitSet::new(cfg.num_blocks());
                for s in &c.sets {
                    cluster.union_with(&s.cluster);
                }
                surviving.push(SaveRestoreSet {
                    cluster,
                    ..c.boundary
                });
            } else {
                surviving.extend(c.sets);
            }
        }
        folded.insert(r, surviving);
    }

    let mut final_sets = folded.remove(&pst.root()).unwrap_or_default();
    let mut placement =
        Placement::from_points(final_sets.iter().flat_map(|s| s.points.clone()).collect());

    // Final group-wise comparison against both baselines.
    if !placement.points().is_empty() {
        let ours = placement_cost_with_reference(model, costs, cfg, profile, &placement);
        let entry_exit = entry_exit_placement(cfg, usage);
        let ee_cost = placement_cost_with_reference(model, costs, cfg, profile, &entry_exit);
        let sw_cost = placement_cost_with_reference(model, costs, cfg, profile, shrink_wrap);
        if ee_cost.min(sw_cost) < ours {
            let winner = if ee_cost <= sw_cost {
                entry_exit
            } else {
                shrink_wrap.clone()
            };
            final_sets = winner
                .regs()
                .into_iter()
                .map(|reg| {
                    let mut cluster = DenseBitSet::new(cfg.num_blocks());
                    if let Some(busy) = usage.busy(reg) {
                        cluster.union_with(busy);
                    }
                    SaveRestoreSet {
                        reg,
                        points: winner.points_for(reg).copied().collect(),
                        cluster,
                        initial: false,
                    }
                })
                .collect();
            placement = winner;
        }
    }

    HierarchicalResult {
        placement,
        final_sets,
        trace,
    }
}

/// The pairing-aware group decision at one region boundary (retired
/// copy; see `decide_paired` in [`crate::hierarchical`]).
fn decide_paired_reference(
    model: CostModel,
    costs: &SpillCostModel,
    cfg: &Cfg,
    profile: &EdgeProfile,
    candidates: &[Candidate],
) -> Vec<(bool, Cost)> {
    let pair = costs.pair_size.max(1) as usize;

    let (insn_only, jump_extra) = match candidates.iter().find(|c| c.hoistable) {
        Some(c) => {
            let insn_only = set_cost_with_reference(
                &c.boundary,
                CostModel::ExecutionCount,
                costs,
                cfg,
                profile,
                &EdgeSharesReference::none(),
            );
            let jump_extra: Cost = if model == CostModel::JumpEdge {
                c.boundary
                    .points
                    .iter()
                    .filter_map(|p| match p.loc {
                        SpillLoc::OnEdge(e) if cfg.needs_jump_block(e) => {
                            Some(costs.jump.of(profile.edge_count(e), 1))
                        }
                        _ => None,
                    })
                    .sum()
            } else {
                Cost::ZERO
            };
            (insn_only, jump_extra)
        }
        None => (Cost::ZERO, Cost::ZERO),
    };

    // Order of consideration: hoistable, most expensive contained first;
    // ties by register number for determinism.
    let mut order: Vec<usize> = (0..candidates.len())
        .filter(|&i| candidates[i].hoistable)
        .collect();
    order.sort_by(|&a, &b| {
        candidates[b]
            .contained_cost
            .cmp(&candidates[a].contained_cost)
            .then(candidates[a].reg.cmp(&candidates[b].reg))
    });

    let mut decisions: Vec<(bool, Cost)> = candidates
        .iter()
        .map(|c| (false, c.boundary_cost))
        .collect();
    let mut placed = 0usize;
    let mut i = 0;
    while i < order.len() {
        debug_assert!(placed.is_multiple_of(pair));
        let marginal = if placed == 0 {
            insn_only + jump_extra
        } else {
            insn_only
        };
        let group = pair.min(order.len() - i);
        let freed: Cost = order[i..i + group]
            .iter()
            .map(|&j| candidates[j].contained_cost)
            .sum();
        if marginal <= freed {
            decisions[order[i]] = (true, marginal);
            for &j in &order[i + 1..i + group] {
                decisions[j] = (true, Cost::ZERO);
            }
            placed += group;
            i += group;
        } else {
            break;
        }
    }
    decisions
}

/// Abstract save-state of one register at one program point (retired
/// per-register validator).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Unknown,
    Original,
    Saved,
    Conflict,
}

impl State {
    fn merge(self, other: State) -> State {
        use State::*;
        match (self, other) {
            (Unknown, x) | (x, Unknown) => x,
            (Conflict, _) | (_, Conflict) => Conflict,
            (a, b) if a == b => a,
            _ => Conflict,
        }
    }
}

/// The per-register validator — the retired form of
/// [`crate::check_placement`]. Reports the same violation set (the
/// word-parallel checker may order the list differently; compare as
/// sets).
pub fn check_placement_reference(
    cfg: &Cfg,
    usage: &CalleeSavedUsage,
    placement: &Placement,
) -> Vec<PlacementError> {
    let mut errors = Vec::new();
    for (reg, busy) in usage.regs() {
        check_one_reference(cfg, reg, busy, placement, &mut errors);
    }
    // Registers with points but no usage entry still need consistency.
    let empty = DenseBitSet::new(cfg.num_blocks());
    for reg in placement.regs() {
        if usage.busy(reg).is_none() {
            check_one_reference(cfg, reg, &empty, placement, &mut errors);
        }
    }
    errors
}

fn check_one_reference(
    cfg: &Cfg,
    reg: PReg,
    busy: &DenseBitSet,
    placement: &Placement,
    errors: &mut Vec<PlacementError>,
) {
    let n = cfg.num_blocks();
    // Collect the register's points per location.
    let mut top: Vec<Vec<&SpillPoint>> = vec![Vec::new(); n];
    let mut bottom: Vec<Vec<&SpillPoint>> = vec![Vec::new(); n];
    let mut on_edge: Vec<Vec<&SpillPoint>> = vec![Vec::new(); cfg.num_edges()];
    for p in placement.points_for(reg) {
        match p.loc {
            SpillLoc::BlockTop(b) => top[b.index()].push(p),
            SpillLoc::BlockBottom(b) => bottom[b.index()].push(p),
            SpillLoc::OnEdge(e) => on_edge[e.index()].push(p),
        }
    }

    let apply = |mut state: State, points: &[&SpillPoint], errors: &mut Vec<PlacementError>| {
        for p in points {
            match p.kind {
                SpillKind::Save => {
                    if state == State::Saved {
                        errors.push(PlacementError::DoubleSave { point: **p });
                    }
                    state = State::Saved;
                }
                SpillKind::Restore => {
                    if state == State::Original || state == State::Unknown {
                        errors.push(PlacementError::RestoreWithoutSave { point: **p });
                    }
                    state = State::Original;
                }
            }
        }
        state
    };

    // Iterate to fixpoint over block-entry states.
    let mut state_in = vec![State::Unknown; n];
    {
        let mut sink = Vec::new();
        let s0 = apply(State::Original, &top[cfg.entry().index()], &mut sink);
        for e in sink {
            if !errors.contains(&e) {
                errors.push(e);
            }
        }
        state_in[cfg.entry().index()] = s0;
    }
    let mut changed = true;
    let mut reported_merge = DenseBitSet::new(n);
    let mut iterations = 0usize;
    while changed {
        changed = false;
        iterations += 1;
        if iterations > 4 * n + 8 {
            break; // conflicts oscillate at most once; safety net
        }
        for bi in 0..n {
            let b = BlockId::from_index(bi);
            let entry_state = state_in[bi];
            if entry_state == State::Unknown {
                continue;
            }
            let mut sink = Vec::new();
            let tops: &[&SpillPoint] = if b == cfg.entry() { &[] } else { &top[bi] };
            let mut s = apply(entry_state, tops, &mut sink);
            // Busy body: must be in saved state.
            if busy.contains(bi) && s != State::Saved {
                sink.push(PlacementError::BusyNotSaved { reg, block: b });
            }
            s = apply(s, &bottom[bi], &mut sink);
            // Returns must be in original state.
            if cfg.exit_blocks().contains(&b) && s == State::Saved {
                sink.push(PlacementError::NotRestoredAtExit { reg, block: b });
            }
            for e in sink {
                if !errors.contains(&e) {
                    errors.push(e);
                }
            }
            for &eid in cfg.succ_edges(b) {
                let mut sink = Vec::new();
                let to = cfg.edge(eid).to;
                let after = apply(s, &on_edge[eid.index()], &mut sink);
                for e in sink {
                    if !errors.contains(&e) {
                        errors.push(e);
                    }
                }
                let merged = state_in[to.index()].merge(after);
                if merged != state_in[to.index()] {
                    state_in[to.index()] = merged;
                    changed = true;
                }
                if merged == State::Conflict && reported_merge.insert(to.index()) {
                    errors.push(PlacementError::InconsistentMerge { reg, block: to });
                }
            }
        }
    }
}

/// Runs every technique through the retired implementations and verifies
/// the results — the frozen form of [`crate::run_suite`] with
/// [`crate::SuiteOptions::priced`].
///
/// # Panics
///
/// Panics if any produced placement fails validity checking.
pub fn run_suite_priced_reference(
    cfg: &Cfg,
    cyclic: &[CyclicRegion],
    pst: &Pst,
    usage: &CalleeSavedUsage,
    profile: &EdgeProfile,
    costs: &SpillCostModel,
) -> PlacementSuite {
    let entry_exit = entry_exit_placement(cfg, usage);
    let chow = chow_shrink_wrap_reference(cfg, cyclic, usage);
    debug_assert_eq!(chow, chow_shrink_wrap_with(cfg, cyclic, usage));
    let hierarchical_exec = hierarchical_placement_vs_reference(
        cfg,
        pst,
        usage,
        profile,
        CostModel::ExecutionCount,
        costs,
        &chow,
    )
    .placement;
    let hierarchical_jump = hierarchical_placement_vs_reference(
        cfg,
        pst,
        usage,
        profile,
        CostModel::JumpEdge,
        costs,
        &chow,
    )
    .placement;

    for (name, p) in [
        ("entry_exit", &entry_exit),
        ("chow", &chow),
        ("hierarchical_exec", &hierarchical_exec),
        ("hierarchical_jump", &hierarchical_jump),
    ] {
        let errs = check_placement_reference(cfg, usage, p);
        assert!(errs.is_empty(), "{name} placement invalid: {errs:?}\n{p}");
    }

    let predicted = [
        placement_cost_with_reference(CostModel::JumpEdge, costs, cfg, profile, &entry_exit),
        placement_cost_with_reference(CostModel::JumpEdge, costs, cfg, profile, &chow),
        placement_cost_with_reference(CostModel::JumpEdge, costs, cfg, profile, &hierarchical_exec),
        placement_cost_with_reference(CostModel::JumpEdge, costs, cfg, profile, &hierarchical_jump),
    ];

    PlacementSuite {
        entry_exit,
        chow,
        hierarchical_exec,
        hierarchical_jump,
        predicted,
    }
}

/// [`crate::placement_cost`]'s retired sibling for the execution-count
/// path (shared implementation is cheap; kept for completeness of the
/// frozen suite).
pub fn placement_model_cost_reference(
    model: CostModel,
    cfg: &Cfg,
    profile: &EdgeProfile,
    placement: &Placement,
    shares: &EdgeSharesReference,
) -> Cost {
    placement
        .points()
        .iter()
        .map(|p| location_cost(model, cfg, profile, p.loc, shares.share(p.loc)))
        .sum()
}
