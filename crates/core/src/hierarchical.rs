//! The hierarchical spill code placement algorithm — the paper's core
//! contribution (Section 4).
//!
//! ```text
//! HIERARCHICAL-SPILL-CODE-PLACEMENT
//! 1 compute PST
//! 2 compute shrink-wrapping save/restore locations   (modified variant)
//! 3 compute initial save/restore sets                (webs per cluster)
//! 4 traverse PST regions in topological order        (children first)
//! 5   for each callee-saved register allocated
//! 6     if cost(region boundaries) ≤ cost(contained sets)
//! 7       remove contained save/restore sets from region
//! 8       create new save/restore set at region boundaries
//! 9       propagate changes upward through hierarchy
//! ```
//!
//! The upward propagation of line 9 is realized by folding: each region's
//! surviving sets are handed to its parent, so by the time a region is
//! processed all descendants' decisions are final — exactly the paper's
//! topological-order guarantee. The final comparison at the PST root pits
//! the surviving sets against the procedure entry/exit placement.

use crate::cost::{Cost, CostModel, SpillCostModel};
use crate::entry_exit::entry_exit_placement;
use crate::location::{Placement, SpillKind, SpillLoc, SpillPoint};
use crate::modified::{modified_shrink_wrap, InitialSets};
use crate::overhead::placement_cost_with;
use crate::sets::{EdgeShares, SaveRestoreSet};
use crate::solver::RegionBusyCounts;
use crate::usage::CalleeSavedUsage;
use spillopt_ir::{Cfg, DenseBitSet, PReg};
use spillopt_profile::EdgeProfile;
use spillopt_pst::{Pst, RegionBoundary, RegionId};

/// One decision made while traversing the PST (for tests, examples, and
/// the harness's walkthrough output).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The region being analyzed.
    pub region: RegionId,
    /// The callee-saved register being analyzed.
    pub reg: PReg,
    /// Number of save/restore sets contained in the region.
    pub num_contained: usize,
    /// Total cost of the contained sets under the active model.
    pub contained_cost: Cost,
    /// Cost of save/restore at the region boundaries under the active
    /// model.
    pub boundary_cost: Cost,
    /// Whether the contained sets were replaced by a boundary set.
    pub replaced: bool,
}

/// The result of the hierarchical placement.
#[derive(Clone, Debug)]
pub struct HierarchicalResult {
    /// The final placement (union of the surviving sets).
    pub placement: Placement,
    /// The surviving save/restore sets.
    pub final_sets: Vec<SaveRestoreSet>,
    /// Every region/register decision, in traversal order.
    ///
    /// The trace describes the PST traversal. On every cost model (unit
    /// pricing included) the traversal's result may afterwards be
    /// replaced wholesale by the entry/exit placement or by Chow's
    /// shrink-wrapping in the final group-wise comparison (see
    /// [`hierarchical_placement_seeded`]); the trace then describes the
    /// traversal that was overridden, not the returned placement.
    pub trace: Vec<TraceEvent>,
}

/// Runs the hierarchical spill code placement algorithm under the
/// paper's unit (PA-RISC) costs.
///
/// `model` selects between the paper's two cost models; the jump edge
/// model additionally prices the jump blocks needed on critical jump
/// edges. Neither variant is proven optimal in-model. Against the exact
/// solver (`spillopt gap --json --seeds 300 --target all`), the
/// execution count variant reaches zero gap on 2,281 of the 2,282
/// stress functions the solver solves; the one miss, on riscv64-lp64
/// (which prices with these unit costs), is 66‰ above the optimum.
pub fn hierarchical_placement(
    cfg: &Cfg,
    pst: &Pst,
    usage: &CalleeSavedUsage,
    profile: &EdgeProfile,
    model: CostModel,
) -> HierarchicalResult {
    let cyclic = spillopt_ir::analysis::loops::sccs(cfg);
    let shrink_wrap = crate::chow::chow_shrink_wrap_with(cfg, &cyclic, usage);
    // Lines 2-3: initial sets from the modified shrink-wrapping, with the
    // jump-cost sharing the paper prescribes for them.
    let initial = modified_shrink_wrap(cfg, usage);
    hierarchical_placement_seeded(
        cfg,
        pst,
        usage,
        profile,
        model,
        &SpillCostModel::UNIT,
        &shrink_wrap,
        initial,
    )
}

/// A set in flight through the traversal, paired with its cost under the
/// active model. The cost of a set never changes once created (shares
/// are fixed by the initial solution), so it is computed exactly once
/// instead of at every ancestor region the set bubbles through.
///
/// `Clone` because [`ModelFold`] keeps every region's folded output
/// alive between folds and feeds copies to the parent, so a later
/// re-fold of the parent alone can reuse them.
#[derive(Clone, Debug)]
pub(crate) struct LiveSet {
    pub(crate) set: SaveRestoreSet,
    pub(crate) cost: Cost,
}

/// One register's candidacy at a region: its contained sets and the cost
/// of replacing them at the region boundary.
struct Candidate {
    reg: PReg,
    sets: Vec<LiveSet>,
    contained_cost: Cost,
    hoistable: bool,
    boundary: SaveRestoreSet,
    boundary_cost: Cost,
}

/// As [`hierarchical_placement`], priced with a target's
/// [`SpillCostModel`], with Chow's shrink-wrapping placement and the
/// initial sets (lines 2-3) supplied by the caller. The suite runs the
/// traversal once per cost model against the *same* initial solution
/// and already has Chow's placement.
///
/// With [`SpillCostModel::UNIT`] (the paper's PA-RISC accounting) the
/// traversal is the paper's. Other cost models change two things:
///
/// * every replace-decision compares target-priced costs (cheap
///   `push`/`pop` at procedure entry/exit on x86-64, paired initial
///   locations on AArch64);
/// * on pairing targets (`pair_size > 1`) the replace-decision at a
///   region boundary prices registers **in groups**: the first register
///   hoisted to a boundary pays full instruction (and jump) cost, the
///   second rides in the same `stp`/`ldp` for free, the third opens a
///   new pair, and so on. Registers are considered in decreasing order
///   of contained cost, so the groups that free the most dynamic count
///   fill the pairs first. This is where the paper's per-register
///   independence assumption breaks — a lone register's boundary
///   placement can be unprofitable while a pair's is profitable.
///
/// Every run ends with a group-wise comparison of the surviving sets
/// against both the entry/exit baseline and `shrink_wrap` under the
/// physically accurate accounting ([`placement_cost_with`]). It exists
/// because the traversal alone guarantees neither of the paper's "never
/// worse" claims:
///
/// * its replace decisions price *initial* sets with jump (and pair)
///   costs shared among the registers of the initial solution — an
///   approximation that diverges from the physically accurate accounting
///   once some of the sharers are hoisted away;
/// * its initial sets come from the **modified** shrink-wrapping, which
///   can cost more than Chow's original (hoisting a shared late restore
///   to per-path edges trades one location for several), and region
///   boundaries offer no way back to the cheaper shape.
///
/// Returning the cheapest of the three closes both gaps on every cost
/// model, unit pricing included; ties keep the paper's traversal result
/// untouched.
// The paper's parameter list, plus the two baselines the final
// comparison needs; a struct would only relocate the argument list.
#[allow(clippy::too_many_arguments)]
pub fn hierarchical_placement_seeded(
    cfg: &Cfg,
    pst: &Pst,
    usage: &CalleeSavedUsage,
    profile: &EdgeProfile,
    model: CostModel,
    costs: &SpillCostModel,
    shrink_wrap: &Placement,
    initial: InitialSets,
) -> HierarchicalResult {
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
    let entry_exit = entry_exit_placement(cfg, usage);
    let baselines = Baselines::priced(&ctx, model, &entry_exit, shrink_wrap);
    ModelFold::new(cfg, pst, model, initial).fold(&ctx, &vec![true; pst.num_regions()], &baselines)
}

/// Everything one region fold (and the root finalize) reads besides the
/// cost model: the shared analyses, the edge shares fixed by the initial
/// solution, and the profile-independent busy intersections. Both cost
/// models' folds share one context.
pub(crate) struct FoldCtx<'a> {
    pub(crate) cfg: &'a Cfg,
    pub(crate) pst: &'a Pst,
    pub(crate) usage: &'a CalleeSavedUsage,
    pub(crate) profile: &'a EdgeProfile,
    pub(crate) costs: &'a SpillCostModel,
    pub(crate) shares: &'a EdgeShares,
    /// Per-(region, register) busy-block counts: the hoistability test.
    pub(crate) busy_counts: &'a RegionBusyCounts,
}

/// The root finalize's two baselines, the entry/exit placement and
/// Chow's shrink-wrapping, each priced under the folding model on the
/// context's profile. Pricing is the caller's, so the suite prices the
/// jump model's pair once and reports those same costs as the two
/// baselines' predicted costs.
pub(crate) struct Baselines<'a> {
    pub(crate) entry_exit: &'a Placement,
    pub(crate) shrink_wrap: &'a Placement,
    /// `[entry_exit, shrink_wrap]` under the folding model.
    pub(crate) costs: [Cost; 2],
}

impl<'a> Baselines<'a> {
    /// Prices both baselines under `model` on `ctx`'s profile.
    pub(crate) fn priced(
        ctx: &FoldCtx<'_>,
        model: CostModel,
        entry_exit: &'a Placement,
        shrink_wrap: &'a Placement,
    ) -> Self {
        let price = |p| placement_cost_with(model, ctx.costs, ctx.cfg, ctx.profile, p);
        Baselines {
            entry_exit,
            shrink_wrap,
            costs: [price(entry_exit), price(shrink_wrap)],
        }
    }
}

/// One cost model's traversal state (line 4): the initial sets filed at
/// their home regions and every region's folded output, both dense and
/// indexed by the PST's preorder region numbering.
///
/// A cold run folds a fresh `ModelFold` with every region dirty. The
/// delta-driven memo ([`crate::incremental`]) keeps it and, after a
/// profile drift, folds it again over [`Pst::dirty_regions`]: a clean
/// region's home and folded sets keep their costs, which the dirty
/// mapping guarantees the drift left unchanged.
#[derive(Debug)]
pub(crate) struct ModelFold {
    model: CostModel,
    home_sets: Vec<Vec<LiveSet>>,
    folded: Vec<Vec<LiveSet>>,
}

impl ModelFold {
    /// Files every initial set at its home region: the innermost region
    /// containing the whole cluster and every location. Filing reads no
    /// profile, so the sets stay unpriced until their region is folded.
    pub(crate) fn new(cfg: &Cfg, pst: &Pst, model: CostModel, initial: InitialSets) -> Self {
        let mut home_sets: Vec<Vec<LiveSet>> = (0..pst.num_regions()).map(|_| Vec::new()).collect();
        for set in initial.sets {
            let home = home_region(cfg, pst, &set);
            home_sets[home.index()].push(LiveSet {
                set,
                cost: Cost::ZERO,
            });
        }
        ModelFold {
            model,
            home_sets,
            folded: (0..pst.num_regions()).map(|_| Vec::new()).collect(),
        }
    }

    /// Lines 4-9: folds the regions `dirty` marks children first, then
    /// runs the root finalize against both baselines, which must be
    /// priced under this fold's model on `ctx`'s profile.
    ///
    /// `dirty` is indexed by region and must be ancestor-closed (as
    /// [`Pst::dirty_regions`] returns it); the first fold of a fresh
    /// `ModelFold` must mark every region. The returned `trace` covers
    /// exactly the folded regions.
    pub(crate) fn fold(
        &mut self,
        ctx: &FoldCtx<'_>,
        dirty: &[bool],
        baselines: &Baselines<'_>,
    ) -> HierarchicalResult {
        let mut trace = Vec::new();
        for &r in ctx.pst.postorder() {
            if !dirty[r.index()] {
                continue;
            }
            for hs in &mut self.home_sets[r.index()] {
                hs.cost = hs
                    .set
                    .cost_with(self.model, ctx.costs, ctx.cfg, ctx.profile, ctx.shares);
            }
            let mut live: Vec<LiveSet> = Vec::new();
            for &c in &ctx.pst.region(r).children {
                live.extend(self.folded[c.index()].iter().cloned());
            }
            live.extend(self.home_sets[r.index()].iter().cloned());
            self.folded[r.index()] = fold_region(ctx, self.model, r, live, &mut trace);
        }
        let root_sets = &self.folded[ctx.pst.root().index()];
        let (placement, final_sets) = finalize_root(ctx, self.model, baselines, root_sets);
        HierarchicalResult {
            placement,
            final_sets,
            trace,
        }
    }
}

/// Lines 5-8 for one region: partitions the live sets per register,
/// prices each register's boundary hoist, and folds the surviving sets.
/// `live` must hold the children's folded outputs (in child order)
/// followed by the region's own home sets; the returned vector is what
/// the parent region sees.
fn fold_region(
    ctx: &FoldCtx<'_>,
    model: CostModel,
    r: RegionId,
    mut live: Vec<LiveSet>,
    trace: &mut Vec<TraceEvent>,
) -> Vec<LiveSet> {
    // Line 5: per callee-saved register.
    let mut regs: Vec<PReg> = live.iter().map(|s| s.set.reg).collect();
    regs.sort();
    regs.dedup();

    let mut candidates: Vec<Candidate> = Vec::new();
    for reg in regs {
        let (mine, rest): (Vec<_>, Vec<_>) = live.drain(..).partition(|s| s.set.reg == reg);
        live = rest;

        // Hoisting to this region's boundary is only valid if every
        // busy block of `reg` inside the region belongs to the
        // contained sets (otherwise another web of the same register
        // crosses the boundary).
        let busy_in_region = ctx
            .busy_counts
            .count(r, reg)
            .expect("set exists for used register");
        let contained_blocks: usize = mine.iter().map(|s| s.set.cluster.count()).sum();
        let hoistable = contained_blocks == busy_in_region;

        let contained_cost: Cost = mine.iter().map(|s| s.cost).sum();
        let boundary = boundary_set(ctx.cfg, ctx.pst, r, reg);
        let boundary_cost = boundary.cost_with(model, ctx.costs, ctx.cfg, ctx.profile, ctx.shares);

        candidates.push(Candidate {
            reg,
            sets: mine,
            contained_cost,
            hoistable,
            boundary,
            boundary_cost,
        });
    }

    let decisions = if ctx.costs.pair_size > 1 {
        decide_paired(model, ctx.costs, ctx.cfg, ctx.profile, &candidates)
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

    let mut surviving: Vec<LiveSet> = Vec::new();
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
            // Lines 7-8. The new set's cost is the full boundary
            // cost (ancestors see the set, not the marginal the
            // group decision charged it).
            let mut cluster = DenseBitSet::new(ctx.cfg.num_blocks());
            for s in &c.sets {
                cluster.union_with(&s.set.cluster);
            }
            surviving.push(LiveSet {
                set: SaveRestoreSet {
                    cluster,
                    ..c.boundary
                },
                cost: c.boundary_cost,
            });
        } else {
            surviving.extend(c.sets);
        }
    }
    surviving
}

/// The final group-wise comparison against both baselines (see the doc
/// comment of [`hierarchical_placement_seeded`]): shared-cost pricing of
/// initial sets and the modified-vs-Chow gap mean the traversal alone
/// can end costlier than entry/exit or shrink-wrapping; return the
/// cheapest of the three under the physically accurate accounting.
/// Ties keep the traversal's (the paper's) result, so the worked
/// examples are untouched. When the override fires, the caller's `trace`
/// keeps describing the overridden traversal (documented on
/// [`HierarchicalResult::trace`]). Only the returned sets are copied.
fn finalize_root(
    ctx: &FoldCtx<'_>,
    model: CostModel,
    baselines: &Baselines<'_>,
    root_sets: &[LiveSet],
) -> (Placement, Vec<SaveRestoreSet>) {
    let (cfg, usage, profile) = (ctx.cfg, ctx.usage, ctx.profile);
    let placement = Placement::from_points(
        root_sets
            .iter()
            .flat_map(|l| l.set.points.iter().copied())
            .collect(),
    );

    if !placement.points().is_empty() {
        let ours = placement_cost_with(model, ctx.costs, cfg, profile, &placement);
        let [ee_cost, sw_cost] = baselines.costs;
        if ee_cost.min(sw_cost) < ours {
            let winner = if ee_cost <= sw_cost {
                baselines.entry_exit
            } else {
                baselines.shrink_wrap
            };
            let final_sets = winner
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
            return (winner.clone(), final_sets);
        }
    }

    let final_sets = root_sets.iter().map(|l| l.set.clone()).collect();
    (placement, final_sets)
}

/// The pairing-aware group decision at one region boundary.
///
/// Hoistable candidates are taken in decreasing order of contained cost.
/// The boundary's save/restore instructions are shared `pair_size`-wide:
/// a candidate opening a new paired instruction is charged the full
/// boundary instruction cost (plus, for the first, the jump-block cost),
/// while candidates filling a previously opened pair ride for free. A
/// new pair is opened only when the next `pair_size` candidates together
/// free at least the instruction cost — by the descending sort, once a
/// group fails every later group fails too.
///
/// Returns, per candidate (in input order), whether it was replaced and
/// the marginal boundary cost it was charged.
fn decide_paired(
    model: CostModel,
    costs: &SpillCostModel,
    cfg: &Cfg,
    profile: &EdgeProfile,
    candidates: &[Candidate],
) -> Vec<(bool, Cost)> {
    let pair = costs.pair_size.max(1) as usize;

    // All candidates share the same boundary locations, so the
    // instruction-only and jump-only components are common.
    let (insn_only, jump_extra) = match candidates.iter().find(|c| c.hoistable) {
        Some(c) => {
            let insn_only = c.boundary.cost_with(
                CostModel::ExecutionCount,
                costs,
                cfg,
                profile,
                &EdgeShares::none(),
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
        // Groups are taken whole (free riders included below), so the
        // pairing parity is always clean here: a partial final group
        // exhausts `order` and ends the loop.
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

/// The innermost region containing every location and every cluster block
/// of a set.
pub(crate) fn home_region(cfg: &Cfg, pst: &Pst, set: &SaveRestoreSet) -> RegionId {
    let mut home: Option<RegionId> = None;
    let fold = |r: RegionId, home: &mut Option<RegionId>| {
        *home = Some(match home {
            None => r,
            Some(h) => pst.lca(*h, r),
        });
    };
    for b in set.cluster.iter() {
        fold(
            pst.innermost_region_of_block(spillopt_ir::BlockId::from_index(b)),
            &mut home,
        );
    }
    for p in &set.points {
        let r = match p.loc {
            SpillLoc::BlockTop(b) | SpillLoc::BlockBottom(b) => pst.innermost_region_of_block(b),
            SpillLoc::OnEdge(e) => pst.innermost_region_of_edge(cfg, e),
        };
        fold(r, &mut home);
    }
    home.unwrap_or_else(|| pst.root())
}

/// Builds the save/restore set at a region's boundaries for one register
/// (line 8). For the root region this is the procedure entry/exit
/// placement.
pub(crate) fn boundary_set(cfg: &Cfg, pst: &Pst, r: RegionId, reg: PReg) -> SaveRestoreSet {
    let region = pst.region(r);
    let mut points = Vec::new();
    match region.entry {
        RegionBoundary::ProcEntry => points.push(SpillPoint {
            reg,
            kind: SpillKind::Save,
            loc: SpillLoc::BlockTop(cfg.entry()),
        }),
        RegionBoundary::CfgEdge(e) => points.push(SpillPoint {
            reg,
            kind: SpillKind::Save,
            loc: SpillLoc::OnEdge(e),
        }),
        RegionBoundary::ReturnEdge(_) | RegionBoundary::ProcExits => {
            unreachable!("region entry cannot be an exit boundary")
        }
    }
    match region.exit {
        RegionBoundary::ProcExits => {
            for &x in cfg.exit_blocks() {
                points.push(SpillPoint {
                    reg,
                    kind: SpillKind::Restore,
                    loc: SpillLoc::BlockBottom(x),
                });
            }
        }
        RegionBoundary::CfgEdge(e) => points.push(SpillPoint {
            reg,
            kind: SpillKind::Restore,
            loc: SpillLoc::OnEdge(e),
        }),
        RegionBoundary::ReturnEdge(b) => points.push(SpillPoint {
            reg,
            kind: SpillKind::Restore,
            loc: SpillLoc::BlockBottom(b),
        }),
        RegionBoundary::ProcEntry => unreachable!("region exit cannot be the entry boundary"),
    }
    SaveRestoreSet {
        reg,
        points,
        cluster: DenseBitSet::new(cfg.num_blocks()),
        initial: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::location_cost;
    use crate::entry_exit::entry_exit_placement;
    use crate::validate::check_placement;
    use spillopt_ir::{BlockId, Cond, FunctionBuilder, Reg};
    use spillopt_profile::random_walk_profile;

    /// Busy block inside a loop: the hierarchical algorithm must hoist
    /// save/restore out of the loop when profitable.
    #[test]
    fn hoists_out_of_hot_loop() {
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
        let pst = Pst::compute(&cfg);

        // Hot loop: 100 entries, 1000 iterations.
        let mut counts = vec![0u64; cfg.num_edges()];
        counts[cfg.edge_between(entry, header).unwrap().index()] = 100;
        counts[cfg.edge_between(header, body).unwrap().index()] = 1000;
        counts[cfg.edge_between(body, header).unwrap().index()] = 1000;
        counts[cfg.edge_between(header, exit).unwrap().index()] = 100;
        let profile = spillopt_profile::EdgeProfile::new(&cfg, counts, 100);

        let mut usage = CalleeSavedUsage::new();
        let r = spillopt_ir::PReg::new(11);
        usage.set_busy(r, body, 4);

        let res = hierarchical_placement(&cfg, &pst, &usage, &profile, CostModel::ExecutionCount);
        assert!(check_placement(&cfg, &usage, &res.placement).is_empty());
        // The placement must not touch the loop body edges (cost 1000);
        // its cost must equal the loop-boundary cost of 200.
        let cost: Cost = res
            .placement
            .points()
            .iter()
            .map(|p| location_cost(CostModel::ExecutionCount, &cfg, &profile, p.loc, 1))
            .sum();
        assert_eq!(cost, Cost::from_count(200));
    }

    /// The guarantee of the paper: never worse than entry/exit and never
    /// worse than the initial (modified shrink-wrap) sets, under the
    /// execution count model.
    #[test]
    fn never_worse_than_baselines_on_random_profiles() {
        for seed in 0..10u64 {
            // Diamond with busy arm + loop after it.
            let mut fb = FunctionBuilder::new("g", 0);
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
            fb.branch(Cond::Gt, Reg::Virt(x), Reg::Virt(x), a, e);
            fb.switch_to(e);
            fb.ret(None);
            let f = fb.finish();
            let cfg = Cfg::compute(&f);
            let pst = Pst::compute(&cfg);
            let profile = random_walk_profile(&cfg, 200, 64, seed);

            let mut usage = CalleeSavedUsage::new();
            let r = spillopt_ir::PReg::new(11);
            usage.set_busy(r, b, 5);

            let res =
                hierarchical_placement(&cfg, &pst, &usage, &profile, CostModel::ExecutionCount);
            assert!(check_placement(&cfg, &usage, &res.placement).is_empty());

            let eval = |p: &Placement| -> Cost {
                p.points()
                    .iter()
                    .map(|pt| location_cost(CostModel::ExecutionCount, &cfg, &profile, pt.loc, 1))
                    .sum()
            };
            let hier = eval(&res.placement);
            let baseline = eval(&entry_exit_placement(&cfg, &usage));
            let initial = eval(&modified_shrink_wrap(&cfg, &usage).placement());
            assert!(
                hier <= baseline,
                "seed {seed}: {hier:?} > baseline {baseline:?}"
            );
            assert!(
                hier <= initial,
                "seed {seed}: {hier:?} > initial {initial:?}"
            );
        }
    }

    /// With everything cold except the entry, the tight initial sets win
    /// and survive.
    #[test]
    fn keeps_tight_sets_when_cold() {
        let mut fb = FunctionBuilder::new("c", 0);
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
        let pst = Pst::compute(&cfg);
        // b is cold: 1 of 100 executions.
        let mut counts = vec![0u64; cfg.num_edges()];
        counts[cfg.edge_between(a, b).unwrap().index()] = 1;
        counts[cfg.edge_between(a, c).unwrap().index()] = 99;
        counts[cfg.edge_between(b, d).unwrap().index()] = 1;
        counts[cfg.edge_between(c, d).unwrap().index()] = 99;
        let profile = spillopt_profile::EdgeProfile::new(&cfg, counts, 100);
        let mut usage = CalleeSavedUsage::new();
        let r = spillopt_ir::PReg::new(11);
        usage.set_busy(r, b, 4);
        let res = hierarchical_placement(&cfg, &pst, &usage, &profile, CostModel::ExecutionCount);
        // Save on a->b, restore on b->d: cost 2, beats entry/exit's 200.
        let cost: Cost = res
            .placement
            .points()
            .iter()
            .map(|p| location_cost(CostModel::ExecutionCount, &cfg, &profile, p.loc, 1))
            .sum();
        assert_eq!(cost, Cost::from_count(2));
        assert_eq!(res.final_sets.len(), 1);
        assert!(res.final_sets[0].initial);
        let _ = BlockId::from_index(0);
    }

    /// Pairing breaks per-register independence: two registers whose
    /// boundary hoists are individually unprofitable (200 > 160 each)
    /// hoist together on a pairing target, because one `stp`/`ldp` pair
    /// at the procedure boundary covers both (200 <= 160 + 160). Unit
    /// costs keep both registers' tight sets.
    #[test]
    fn pairing_hoists_registers_in_groups() {
        // Two diamonds in series: a -> {b, c} -> d -> {e, f} -> g.
        let mut fb = FunctionBuilder::new("p", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        let c = fb.create_block(None);
        let d = fb.create_block(None);
        let e = fb.create_block(None);
        let f = fb.create_block(None);
        let g = fb.create_block(None);
        fb.switch_to(a);
        let x = fb.li(0);
        fb.branch(Cond::Lt, Reg::Virt(x), Reg::Virt(x), c, b);
        fb.switch_to(b);
        fb.jump(d);
        fb.switch_to(c);
        fb.jump(d);
        fb.switch_to(d);
        fb.branch(Cond::Gt, Reg::Virt(x), Reg::Virt(x), f, e);
        fb.switch_to(e);
        fb.jump(g);
        fb.switch_to(f);
        fb.jump(g);
        fb.switch_to(g);
        fb.ret(None);
        let func = fb.finish();
        let cfg = Cfg::compute(&func);
        let pst = Pst::compute(&cfg);

        // Hot arms: 80 of 100 runs take b and e.
        let mut counts = vec![0u64; cfg.num_edges()];
        let set = |counts: &mut Vec<u64>, from, to, n| {
            counts[cfg.edge_between(from, to).unwrap().index()] = n;
        };
        set(&mut counts, a, b, 80);
        set(&mut counts, a, c, 20);
        set(&mut counts, b, d, 80);
        set(&mut counts, c, d, 20);
        set(&mut counts, d, e, 80);
        set(&mut counts, d, f, 20);
        set(&mut counts, e, g, 80);
        set(&mut counts, f, g, 20);
        let profile = spillopt_profile::EdgeProfile::new(&cfg, counts, 100);

        // One register busy in each hot arm.
        let mut usage = CalleeSavedUsage::new();
        let r1 = spillopt_ir::PReg::new(16);
        let r2 = spillopt_ir::PReg::new(17);
        usage.set_busy(r1, b, cfg.num_blocks());
        usage.set_busy(r2, e, cfg.num_blocks());

        let eval = |costs: &SpillCostModel, res: &HierarchicalResult| {
            placement_cost_with(CostModel::JumpEdge, costs, &cfg, &profile, &res.placement)
        };

        // Unit costs: each register keeps its tight sets (160 < 200).
        let unit = hierarchical_placement(&cfg, &pst, &usage, &profile, CostModel::JumpEdge);
        assert!(check_placement(&cfg, &usage, &unit.placement).is_empty());
        assert_eq!(eval(&SpillCostModel::UNIT, &unit), Cost::from_count(320));
        assert!(unit
            .placement
            .points()
            .iter()
            .all(|p| matches!(p.loc, SpillLoc::OnEdge(_))));

        // Pairing (stp/ldp): the pair hoists to entry/exit together —
        // one paired save (100) plus one paired restore (100) beats the
        // 320 the scattered singles cost.
        let paired = SpillCostModel {
            pair_size: 2,
            ..SpillCostModel::UNIT
        };
        let cyclic = spillopt_ir::analysis::loops::sccs(&cfg);
        let chow = crate::chow::chow_shrink_wrap_with(&cfg, &cyclic, &usage);
        let res = hierarchical_placement_seeded(
            &cfg,
            &pst,
            &usage,
            &profile,
            CostModel::JumpEdge,
            &paired,
            &chow,
            modified_shrink_wrap(&cfg, &usage),
        );
        assert!(check_placement(&cfg, &usage, &res.placement).is_empty());
        assert_eq!(eval(&paired, &res), Cost::from_count(200));
        for p in res.placement.points() {
            match (p.kind, p.loc) {
                (SpillKind::Save, SpillLoc::BlockTop(blk)) => assert_eq!(blk, a),
                (SpillKind::Restore, SpillLoc::BlockBottom(blk)) => assert_eq!(blk, g),
                other => panic!("expected entry/exit placement, got {other:?}"),
            }
        }
        // The root trace records the group decision: the first member
        // pays the paired instruction cost, the second rides free.
        let root_events: Vec<_> = res.trace.iter().filter(|t| t.replaced).collect();
        assert!(root_events.iter().any(|t| t.boundary_cost == Cost::ZERO));
    }
}
