//! The bit-parallel saved-region solver: all callee-saved registers of a
//! target at once.
//!
//! The retired solver ([`crate::dataflow`], kept as the differential
//! oracle) grows one saved region per register — each register pays its
//! own anticipation/availability fixpoints over the whole CFG. Targets
//! cap callee-saved registers far below the machine word (13 on the
//! paper's PA-RISC), so this module packs *all* of them into one word
//! per block ([`RegWords`]) and runs every transfer function as word
//! ops:
//!
//! * Chow's growth rules (loop absorption, anticipation/availability
//!   hoisting, jump-edge absorption) apply to all registers
//!   simultaneously ([`chow_grow_all`]); the per-register projection of
//!   the result equals [`crate::dataflow::chow_grow`] exactly, because
//!   every rule is a monotone inflationary operator and the least common
//!   closure is unique;
//! * the region boundary of every register falls out of **one** edge
//!   sweep (`w[from] ^ w[to]` masks) instead of one sweep per register
//!   ([`chow_points_all`]);
//! * the paper's initial save/restore sets are assembled from the same
//!   single sweep over per-register busy words plus a cluster labelling
//!   ([`initial_sets_all`]), replacing one boundary sweep per (register,
//!   cluster).
//!
//! One word is always enough: a [`CalleeSavedUsage`] never holds more
//! than 64 registers ([`spillopt_ir::target::MAX_CALLEE_SAVED`]), because
//! [`CalleeSavedUsage::from_function`] reads a [`spillopt_ir::Target`],
//! which [`spillopt_ir::Target::try_new`] caps at 64, and
//! [`CalleeSavedUsage::set_busy`] panics on a 65th register.

use crate::location::{SpillKind, SpillLoc, SpillPoint};
use crate::sets::SaveRestoreSet;
use crate::usage::CalleeSavedUsage;
use spillopt_ir::analysis::loops::CyclicRegion;
use spillopt_ir::{Cfg, DenseBitSet, DerivedCfg, PReg};

/// One membership word per block: bit `r` of `words[b]` means block `b`
/// is in register `r`'s set, with registers numbered by their
/// [`CalleeSavedUsage`] order.
#[derive(Clone, Debug)]
pub struct RegWords {
    /// Per-block membership words.
    pub words: Vec<u64>,
    /// Bit order: `regs[r]` is the register of bit `r`.
    pub regs: Vec<PReg>,
}

impl RegWords {
    /// Packs the busy sets of `usage` into per-block words.
    pub fn from_busy(num_blocks: usize, usage: &CalleeSavedUsage) -> Self {
        let regs: Vec<PReg> = usage.regs().map(|(r, _)| r).collect();
        let mut words = vec![0u64; num_blocks];
        for (bit, (_, busy)) in usage.regs().enumerate() {
            for b in busy.iter_ones() {
                words[b] |= 1 << bit;
            }
        }
        RegWords { words, regs }
    }

    /// Projects bit `r` out into a per-block set (for tests and
    /// differential checks).
    pub fn project(&self, bit: usize) -> DenseBitSet {
        let mut out = DenseBitSet::new(self.words.len());
        for (b, &w) in self.words.iter().enumerate() {
            if w & (1 << bit) != 0 {
                out.insert(b);
            }
        }
        out
    }
}

/// Grows every register's busy set into Chow's saved region in one
/// fixpoint over membership words. See [`crate::dataflow::chow_grow`]
/// for the rules; each is applied to all registers at once:
///
/// * **loop rule** — `any = OR, all = AND` over a cyclic region's words;
///   registers in `any & !all` absorb the whole region;
/// * **hoisting** — anticipation (`w[b] |= AND over successors`) and
///   availability (`w[b] |= AND over predecessors`) iterate as word ops
///   to their own fixpoints;
/// * **jump-edge rule** — for each critical jump edge, registers with
///   exactly one endpoint inside (`w[from] ^ w[to]`) absorb the other
///   endpoint.
pub fn chow_grow_all(
    derived: &DerivedCfg,
    entry: usize,
    cyclic: &[CyclicRegion],
    w: &mut RegWords,
) {
    let _s = spillopt_obs::span("solver_fixpoint");
    let n = derived.num_blocks();
    // The critical jump edges, from the derived edge tables.
    let mut jump_edges: Vec<(u32, u32)> = Vec::new();
    for e in derived.needs_jump.iter_ones() {
        jump_edges.push((derived.edge_from[e], derived.edge_to[e]));
    }

    let mut iterations: u64 = 0;
    loop {
        let mut changed = false;
        iterations += 1;
        spillopt_obs::fault::budget_tick("solver_fixpoint", 1);

        // 1. Loop rule.
        for region in cyclic {
            let mut any = 0u64;
            let mut all = !0u64;
            for b in region.blocks.iter_ones() {
                any |= w.words[b];
                all &= w.words[b];
            }
            let grow = any & !all;
            if grow != 0 {
                for b in region.blocks.iter_ones() {
                    w.words[b] |= grow;
                }
                changed = true;
            }
        }

        // 2. Hoisting closures, each to its own fixpoint (matching the
        // reference, which closes anticipation fully, then availability).
        let mut local = true;
        while local {
            local = false;
            for bi in (0..n).rev() {
                let succs = derived.succ.row(bi);
                if succs.is_empty() {
                    continue;
                }
                let mut all = !0u64;
                for &e in succs {
                    all &= w.words[derived.edge_to[e as usize] as usize];
                }
                let next = w.words[bi] | all;
                if next != w.words[bi] {
                    w.words[bi] = next;
                    local = true;
                    changed = true;
                }
            }
        }
        let mut local = true;
        while local {
            local = false;
            for bi in 0..n {
                if bi == entry {
                    continue;
                }
                let preds = derived.pred.row(bi);
                if preds.is_empty() {
                    continue;
                }
                let mut all = !0u64;
                for &e in preds {
                    all &= w.words[derived.edge_from[e as usize] as usize];
                }
                let next = w.words[bi] | all;
                if next != w.words[bi] {
                    w.words[bi] = next;
                    local = true;
                    changed = true;
                }
            }
        }

        // 3. Jump-edge rule: absorb the outside endpoint of any critical
        // jump edge crossed by a register's boundary.
        for &(from, to) in &jump_edges {
            let cross = w.words[from as usize] ^ w.words[to as usize];
            if cross != 0 {
                w.words[from as usize] |= cross;
                w.words[to as usize] |= cross;
                changed = true;
            }
        }

        if !changed {
            spillopt_obs::count("solver_fixpoint_iters", iterations);
            return;
        }
    }
}

/// Chow's shrink-wrapping placement for all used callee-saved registers
/// via the bit-parallel solver, as [`SpillPoint`]s (unsorted; the caller
/// builds the [`crate::Placement`], which sorts).
pub fn chow_points_all(
    cfg: &Cfg,
    derived: &DerivedCfg,
    cyclic: &[CyclicRegion],
    usage: &CalleeSavedUsage,
) -> Vec<SpillPoint> {
    let mut w = RegWords::from_busy(cfg.num_blocks(), usage);
    chow_grow_all(derived, cfg.entry().index(), cyclic, &mut w);
    chow_boundaries(cfg, &w)
}

/// Extracts every register's region-boundary placement from grown
/// membership words in one sweep over the entry, the edges, and the
/// exits.
fn chow_boundaries(cfg: &Cfg, w: &RegWords) -> Vec<SpillPoint> {
    let mut points = Vec::new();
    let entry = cfg.entry().index();
    let entry_word = w.words[entry];
    for (bit, &reg) in w.regs.iter().enumerate() {
        if entry_word & (1 << bit) != 0 {
            points.push(SpillPoint {
                reg,
                kind: SpillKind::Save,
                loc: SpillLoc::BlockTop(cfg.entry()),
            });
        }
    }
    for (id, e) in cfg.edges() {
        let (fw, tw) = (w.words[e.from.index()], w.words[e.to.index()]);
        let mut saves = !fw & tw;
        let mut restores = fw & !tw;
        debug_assert!(
            saves | restores == 0 || !cfg.needs_jump_block(id),
            "Chow placement reached a critical jump edge"
        );
        while saves != 0 {
            let bit = saves.trailing_zeros() as usize;
            saves &= saves - 1;
            points.push(SpillPoint {
                reg: w.regs[bit],
                kind: SpillKind::Save,
                loc: SpillLoc::OnEdge(id),
            });
        }
        while restores != 0 {
            let bit = restores.trailing_zeros() as usize;
            restores &= restores - 1;
            points.push(SpillPoint {
                reg: w.regs[bit],
                kind: SpillKind::Restore,
                loc: SpillLoc::OnEdge(id),
            });
        }
    }
    for &x in cfg.exit_blocks() {
        let mut word = w.words[x.index()];
        while word != 0 {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            points.push(SpillPoint {
                reg: w.regs[bit],
                kind: SpillKind::Restore,
                loc: SpillLoc::BlockBottom(x),
            });
        }
    }
    points
}

/// The paper's initial save/restore sets — one set per (register,
/// connected busy cluster) — assembled from a single edge sweep over the
/// busy membership words.
///
/// Produces exactly the sets of the retired per-cluster scan
/// ([`crate::reference::modified_shrink_wrap_reference`]): same set
/// order (registers in usage order, clusters by smallest block index),
/// same point order within each set (entry save, save edges ascending,
/// restore edges ascending, exit restores in exit-block order).
pub fn initial_sets_all(
    cfg: &Cfg,
    derived: &DerivedCfg,
    usage: &CalleeSavedUsage,
) -> Vec<SaveRestoreSet> {
    let n = cfg.num_blocks();
    let w = RegWords::from_busy(n, usage);
    let num_regs = w.regs.len();
    if num_regs == 0 {
        return Vec::new();
    }

    // Label the busy clusters of every register: labels[r][b] = dense
    // cluster id (discovery order = ascending smallest block index,
    // matching `busy_clusters`).
    let mut labels = vec![u32::MAX; num_regs * n];
    let mut cluster_blocks: Vec<Vec<DenseBitSet>> = vec![Vec::new(); num_regs];
    let mut stack: Vec<usize> = Vec::new();
    for (bit, (_, busy)) in usage.regs().enumerate() {
        let lab = &mut labels[bit * n..(bit + 1) * n];
        for start in busy.iter_ones() {
            if lab[start] != u32::MAX {
                continue;
            }
            let id = cluster_blocks[bit].len() as u32;
            let mut comp = DenseBitSet::new(n);
            lab[start] = id;
            comp.insert(start);
            stack.push(start);
            while let Some(b) = stack.pop() {
                let succs = derived
                    .succ
                    .row(b)
                    .iter()
                    .map(|&e| derived.edge_to[e as usize]);
                let preds = derived
                    .pred
                    .row(b)
                    .iter()
                    .map(|&e| derived.edge_from[e as usize]);
                for nb in succs.chain(preds) {
                    let i = nb as usize;
                    if busy.contains(i) && lab[i] == u32::MAX {
                        lab[i] = id;
                        comp.insert(i);
                        stack.push(i);
                    }
                }
            }
            cluster_blocks[bit].push(comp);
        }
    }

    // Per (register, cluster) point accumulators, filled in one sweep.
    let mut entry_save: Vec<Vec<bool>> = (0..num_regs)
        .map(|bit| vec![false; cluster_blocks[bit].len()])
        .collect();
    let mut saves: Vec<Vec<Vec<SpillPoint>>> = (0..num_regs)
        .map(|bit| vec![Vec::new(); cluster_blocks[bit].len()])
        .collect();
    let mut restores: Vec<Vec<Vec<SpillPoint>>> = (0..num_regs)
        .map(|bit| vec![Vec::new(); cluster_blocks[bit].len()])
        .collect();
    let mut exits: Vec<Vec<Vec<SpillPoint>>> = (0..num_regs)
        .map(|bit| vec![Vec::new(); cluster_blocks[bit].len()])
        .collect();

    let entry = cfg.entry().index();
    let mut word = w.words[entry];
    while word != 0 {
        let bit = word.trailing_zeros() as usize;
        word &= word - 1;
        let c = labels[bit * n + entry] as usize;
        entry_save[bit][c] = true;
    }
    for e in 0..derived.num_edges() {
        let (from, to) = (derived.edge_from[e] as usize, derived.edge_to[e] as usize);
        let (fw, tw) = (w.words[from], w.words[to]);
        let id = spillopt_ir::EdgeId::from_index(e);
        let mut save_mask = !fw & tw;
        while save_mask != 0 {
            let bit = save_mask.trailing_zeros() as usize;
            save_mask &= save_mask - 1;
            let c = labels[bit * n + to] as usize;
            saves[bit][c].push(SpillPoint {
                reg: w.regs[bit],
                kind: SpillKind::Save,
                loc: SpillLoc::OnEdge(id),
            });
        }
        let mut restore_mask = fw & !tw;
        while restore_mask != 0 {
            let bit = restore_mask.trailing_zeros() as usize;
            restore_mask &= restore_mask - 1;
            let c = labels[bit * n + from] as usize;
            restores[bit][c].push(SpillPoint {
                reg: w.regs[bit],
                kind: SpillKind::Restore,
                loc: SpillLoc::OnEdge(id),
            });
        }
    }
    for &x in cfg.exit_blocks() {
        let mut word = w.words[x.index()];
        while word != 0 {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            let c = labels[bit * n + x.index()] as usize;
            exits[bit][c].push(SpillPoint {
                reg: w.regs[bit],
                kind: SpillKind::Restore,
                loc: SpillLoc::BlockBottom(x),
            });
        }
    }

    let mut sets = Vec::new();
    for bit in 0..num_regs {
        let reg = w.regs[bit];
        for (c, cluster) in cluster_blocks[bit].drain(..).enumerate() {
            let mut points = Vec::with_capacity(
                entry_save[bit][c] as usize
                    + saves[bit][c].len()
                    + restores[bit][c].len()
                    + exits[bit][c].len(),
            );
            if entry_save[bit][c] {
                points.push(SpillPoint {
                    reg,
                    kind: SpillKind::Save,
                    loc: SpillLoc::BlockTop(cfg.entry()),
                });
            }
            points.append(&mut saves[bit][c]);
            points.append(&mut restores[bit][c]);
            points.append(&mut exits[bit][c]);
            sets.push(SaveRestoreSet {
                reg,
                points,
                cluster,
                initial: true,
            });
        }
    }
    sets
}

/// Per-(region, register) busy-block counts over a PST — the
/// profile-independent half of the hierarchical traversal's hoistability
/// test, solved bit-parallel: one sweep per region over the packed busy
/// words instead of one bitset intersection per (region, register) per
/// cost model per session.
///
/// Every hierarchical fold reads it: a cold run computes it once for
/// both cost models, and the delta-driven session memo
/// ([`crate::incremental`]) keeps it for every incremental refold.
#[derive(Clone, Debug)]
pub struct RegionBusyCounts {
    /// Bit order, as in [`RegWords::regs`] (usage order).
    regs: Vec<PReg>,
    /// `counts[region * regs.len() + bit]` = number of busy blocks of
    /// register `bit` inside that region.
    counts: Vec<u32>,
}

impl RegionBusyCounts {
    /// Counts, for every PST region and callee-saved register, the busy
    /// blocks of the register inside the region.
    pub fn compute(pst: &spillopt_pst::Pst, num_blocks: usize, usage: &CalleeSavedUsage) -> Self {
        let w = RegWords::from_busy(num_blocks, usage);
        let num_regs = w.regs.len();
        let mut counts = vec![0u32; pst.num_regions() * num_regs];
        for region in pst.regions() {
            let row = &mut counts[region.id.index() * num_regs..][..num_regs];
            for b in region.blocks.iter() {
                let mut word = w.words[b];
                while word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    row[bit] += 1;
                }
            }
        }
        RegionBusyCounts {
            regs: w.regs,
            counts,
        }
    }

    /// The busy-block count of `reg` inside `region`, or `None` if the
    /// register is not tracked (never busy anywhere).
    pub fn count(&self, region: spillopt_pst::RegionId, reg: PReg) -> Option<usize> {
        let bit = self.regs.iter().position(|&r| r == reg)?;
        Some(self.counts[region.index() * self.regs.len() + bit] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::chow_grow;
    use spillopt_ir::analysis::loops::sccs;
    use spillopt_ir::{BlockId, Cond, FunctionBuilder, Reg};

    /// A loopy multi-exit shape exercising every growth rule.
    fn shape() -> spillopt_ir::Function {
        let mut fb = FunctionBuilder::new("s", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        let c = fb.create_block(None);
        let d = fb.create_block(None);
        let e = fb.create_block(None);
        let f = fb.create_block(None);
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
        fb.branch(Cond::Eq, Reg::Virt(x), Reg::Virt(x), a, f);
        fb.switch_to(f);
        fb.ret(None);
        fb.finish()
    }

    #[test]
    fn bit_parallel_growth_matches_per_register() {
        let f = shape();
        let cfg = Cfg::compute(&f);
        let cyclic = sccs(&cfg);
        let n = cfg.num_blocks();
        // Several registers with different busy shapes.
        let mut usage = CalleeSavedUsage::new();
        for (i, blocks) in [vec![1], vec![2, 3], vec![4], vec![0, 5], vec![3]]
            .iter()
            .enumerate()
        {
            for &b in blocks {
                usage.set_busy(PReg::new(11 + i as u8), BlockId::from_index(b), n);
            }
        }
        let mut w = RegWords::from_busy(n, &usage);
        let derived = DerivedCfg::compute(&cfg);
        chow_grow_all(&derived, cfg.entry().index(), &cyclic, &mut w);
        for (bit, (_, busy)) in usage.regs().enumerate() {
            let expect = chow_grow(&cfg, &cyclic, busy);
            assert_eq!(w.project(bit), expect, "register bit {bit}");
        }
    }

    #[test]
    fn region_busy_counts_match_bitset_intersections() {
        let f = shape();
        let cfg = Cfg::compute(&f);
        let pst = spillopt_pst::Pst::compute(&cfg);
        let n = cfg.num_blocks();
        let mut usage = CalleeSavedUsage::new();
        for (i, blocks) in [vec![1], vec![2, 3], vec![0, 5], vec![4]]
            .iter()
            .enumerate()
        {
            for &b in blocks {
                usage.set_busy(PReg::new(11 + i as u8), BlockId::from_index(b), n);
            }
        }
        let counts = RegionBusyCounts::compute(&pst, n, &usage);
        let mut scratch = DenseBitSet::new(n);
        for region in pst.regions() {
            for (reg, busy) in usage.regs() {
                scratch.set_to_intersection(busy, &region.blocks);
                assert_eq!(
                    counts.count(region.id, reg),
                    Some(scratch.count()),
                    "region {} reg {reg:?}",
                    region.id
                );
            }
        }
        assert_eq!(counts.count(pst.root(), PReg::new(42)), None);
    }

    #[test]
    fn initial_sets_match_reference() {
        let f = shape();
        let cfg = Cfg::compute(&f);
        let n = cfg.num_blocks();
        let mut usage = CalleeSavedUsage::new();
        for (i, blocks) in [vec![1], vec![2, 5], vec![0, 3], vec![4]]
            .iter()
            .enumerate()
        {
            for &b in blocks {
                usage.set_busy(PReg::new(11 + i as u8), BlockId::from_index(b), n);
            }
        }
        let derived = DerivedCfg::compute(&cfg);
        let fast = initial_sets_all(&cfg, &derived, &usage);
        let slow = crate::reference::modified_shrink_wrap_reference(&cfg, &usage);
        assert_eq!(fast.len(), slow.sets.len());
        for (a, b) in fast.iter().zip(&slow.sets) {
            assert_eq!(a, b);
        }
    }
}
