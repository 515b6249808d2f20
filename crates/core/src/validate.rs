//! Static validity checking of save/restore placements.
//!
//! A placement is valid when, for every callee-saved register:
//!
//! * every *busy* block is executed in **saved** state (the original value
//!   is in memory, the register is free for the allocator);
//! * a save executes only in **original** state (saving twice would store
//!   an allocated variable over the saved original value);
//! * a restore executes only in saved state and never while the register
//!   is still busy;
//! * control-flow merges agree on the state;
//! * the register is in original state at every return (the register-
//!   usage convention).
//!
//! The checker is an abstract interpretation over block granularity with
//! the same point structure the placements use: block top → busy body →
//! block bottom → outgoing edge. Points at the *entry block's top* mean
//! "at the procedure entry, once per call" (the insertion pass realizes
//! them above any loop back to the entry block), so they execute on the
//! entry transition only, not on back edges into the entry block.

use crate::location::{Placement, SpillKind, SpillLoc, SpillPoint};
use crate::usage::CalleeSavedUsage;
use spillopt_ir::{BlockId, Cfg, EdgeId, PReg};
use std::fmt;

/// A validity violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// A save would execute in saved state (double save).
    DoubleSave {
        /// Offending point.
        point: SpillPoint,
    },
    /// A restore would execute in original state (no matching save).
    RestoreWithoutSave {
        /// Offending point.
        point: SpillPoint,
    },
    /// A busy block can execute with the register not saved.
    BusyNotSaved {
        /// The register.
        reg: PReg,
        /// The busy block reached in original state.
        block: BlockId,
    },
    /// A merge point joins saved and original states.
    InconsistentMerge {
        /// The register.
        reg: PReg,
        /// The block whose entry state conflicts.
        block: BlockId,
    },
    /// A return can execute in saved state (value never restored).
    NotRestoredAtExit {
        /// The register.
        reg: PReg,
        /// The return block.
        block: BlockId,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::DoubleSave { point } => write!(f, "double save at {point}"),
            PlacementError::RestoreWithoutSave { point } => {
                write!(f, "restore without save at {point}")
            }
            PlacementError::BusyNotSaved { reg, block } => {
                write!(f, "{reg} busy in {block} but not saved")
            }
            PlacementError::InconsistentMerge { reg, block } => {
                write!(f, "inconsistent save state for {reg} at {block}")
            }
            PlacementError::NotRestoredAtExit { reg, block } => {
                write!(f, "{reg} not restored at exit {block}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Checks `placement` against `usage`. Returns all violations (empty =
/// valid).
///
/// One-shot form of [`PlacementChecker`]: builds the checker for
/// `(cfg, usage)` and runs it once. A caller that checks several
/// placements of one function should build the checker once and reuse
/// it.
pub fn check_placement(
    cfg: &Cfg,
    usage: &CalleeSavedUsage,
    placement: &Placement,
) -> Vec<PlacementError> {
    PlacementChecker::new(cfg, usage).check(cfg, usage, placement)
}

/// `PlacementChecker::bit_of` entry of a register the usage does not list.
const NO_BIT: u8 = u8::MAX;

/// The placement validator of one `(cfg, usage)` pair, reusable across
/// any number of placements.
///
/// The checker runs the abstract interpretation for **all** registers at
/// once: each block's state is three machine words (known/saved/conflict
/// bit planes, one bit per register) and every transition — applying a
/// location's saves and restores, the busy-body and exit checks, the
/// merge at control-flow joins — is a handful of word ops. Per register
/// this follows exactly the retired per-register schedule
/// ([`crate::reference::check_placement_reference`]), so the reported
/// violation *set* is the same (the list order interleaves registers
/// instead of grouping them).
///
/// Everything that depends only on the CFG and the usage is computed once
/// by [`PlacementChecker::new`]: the register bit order with its
/// register→bit table, the per-block busy words, the exit flags, and the
/// flattened `(edge, target)` successor lists. [`PlacementChecker::check`]
/// then costs one scratch allocation and the fixpoint itself. Registers
/// that have points but no busy block take the bits after the usage
/// registers; more than 64 registers in all falls back to the reference.
#[derive(Clone, Debug)]
pub struct PlacementChecker {
    /// Usage registers in bit order (`usage.regs()` order, sorted).
    regs: Vec<PReg>,
    /// Bit of each usage register, indexed by [`PReg::index`]; [`NO_BIT`]
    /// for registers the usage does not list.
    bit_of: [u8; 256],
    /// Per-block busy words.
    busy: Vec<u64>,
    /// Per-block return flags.
    is_exit: Vec<bool>,
    /// Block `b`'s outgoing `(edge, target)` pairs are
    /// `succs[succ_start[b]..succ_start[b + 1]]`, in
    /// [`Cfg::succ_edges`] order.
    succ_start: Vec<u32>,
    succs: Vec<(u32, u32)>,
}

impl PlacementChecker {
    /// Precomputes the profile- and placement-independent tables for
    /// checking placements of `cfg` against `usage`.
    pub fn new(cfg: &Cfg, usage: &CalleeSavedUsage) -> Self {
        let n = cfg.num_blocks();
        let regs: Vec<PReg> = usage.regs().map(|(r, _)| r).collect();
        let mut bit_of = [NO_BIT; 256];
        let mut busy = vec![0u64; n];
        for (bit, (reg, set)) in usage.regs().enumerate() {
            bit_of[reg.index()] = bit as u8;
            for b in set.iter_ones() {
                busy[b] |= 1 << bit;
            }
        }
        let mut is_exit = vec![false; n];
        for &b in cfg.exit_blocks() {
            is_exit[b.index()] = true;
        }
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut succs = Vec::with_capacity(cfg.num_edges());
        succ_start.push(0);
        for bi in 0..n {
            for &eid in cfg.succ_edges(BlockId::from_index(bi)) {
                succs.push((eid.index() as u32, cfg.edge(eid).to.index() as u32));
            }
            succ_start.push(succs.len() as u32);
        }
        PlacementChecker {
            regs,
            bit_of,
            busy,
            is_exit,
            succ_start,
            succs,
        }
    }

    /// Checks `placement`. Returns all violations (empty = valid).
    ///
    /// `cfg` and `usage` must be the pair the checker was built from
    /// (only the >64-register fallback reads more of them than the entry
    /// block).
    ///
    /// # Panics
    ///
    /// Panics if the fixpoint has not converged after `4 · blocks + 8`
    /// passes. It cannot take more than `2 · blocks + 1`: registers never
    /// interact, a block's entry state for one register only ever moves
    /// up the lattice (unknown → saved or original → conflict, so at most
    /// twice), and a register whose states all hold for one pass holds
    /// for good. Hitting the cap is therefore a checker bug; stopping
    /// early instead would accept a placement whose violations were not
    /// all found yet.
    pub fn check(
        &self,
        cfg: &Cfg,
        usage: &CalleeSavedUsage,
        placement: &Placement,
    ) -> Vec<PlacementError> {
        self.check_counting_passes(cfg, usage, placement).0
    }

    /// [`PlacementChecker::check`], also returning the number of fixpoint
    /// passes it ran (zero on the reference fallback).
    fn check_counting_passes(
        &self,
        cfg: &Cfg,
        usage: &CalleeSavedUsage,
        placement: &Placement,
    ) -> (Vec<PlacementError>, usize) {
        let n = self.is_exit.len();
        let m = self.succs.len();
        debug_assert_eq!((n, m), (cfg.num_blocks(), cfg.num_edges()));
        // Bit order: usage registers, then placement-only registers in
        // ascending order (points are sorted by register first).
        let mut extra: Vec<PReg> = Vec::new();
        for p in placement.points() {
            if self.bit_of[p.reg.index()] == NO_BIT && extra.last() != Some(&p.reg) {
                extra.push(p.reg);
            }
        }
        let num_regs = self.regs.len() + extra.len();
        if num_regs > 64 {
            let errors = crate::reference::check_placement_reference(cfg, usage, placement);
            return (errors, 0);
        }
        let bit_of = |reg: PReg| -> usize {
            match self.bit_of[reg.index()] {
                NO_BIT => {
                    let i = extra.iter().position(|&r| r == reg);
                    self.regs.len() + i.expect("placement-only register in bit map")
                }
                bit => bit as usize,
            }
        };
        let reg_of = |bit: usize| -> PReg {
            match self.regs.get(bit) {
                Some(&r) => r,
                None => extra[bit - self.regs.len()],
            }
        };

        // One scratch allocation: the per-location save/restore words of
        // the placement, then the block-entry state planes.
        let mut scratch = vec![0u64; 8 * n + 2 * m];
        let (block_words, edge_words) = scratch.split_at_mut(8 * n);
        let (edge_save, edge_restore) = edge_words.split_at_mut(m);
        let mut planes = block_words.chunks_exact_mut(n);
        let mut plane = || planes.next().expect("eight block planes");
        let top_save = plane();
        let top_restore = plane();
        let bottom_save = plane();
        let bottom_restore = plane();
        let known_in = plane();
        let saved_in = plane();
        let conflict_in = plane();
        let reported_merge = plane();

        for p in placement.points() {
            let bit = 1u64 << bit_of(p.reg);
            match (p.loc, p.kind) {
                (SpillLoc::BlockTop(b), SpillKind::Save) => top_save[b.index()] |= bit,
                (SpillLoc::BlockTop(b), SpillKind::Restore) => top_restore[b.index()] |= bit,
                (SpillLoc::BlockBottom(b), SpillKind::Save) => bottom_save[b.index()] |= bit,
                (SpillLoc::BlockBottom(b), SpillKind::Restore) => bottom_restore[b.index()] |= bit,
                (SpillLoc::OnEdge(e), SpillKind::Save) => edge_save[e.index()] |= bit,
                (SpillLoc::OnEdge(e), SpillKind::Restore) => edge_restore[e.index()] |= bit,
            }
        }

        let mut errors: Vec<PlacementError> = Vec::new();
        fn push_unique(errors: &mut Vec<PlacementError>, e: PlacementError) {
            if !errors.contains(&e) {
                errors.push(e);
            }
        }
        // Applies the restores then the saves of one location to the
        // masked state planes, reporting per-bit violations.
        let apply = |restores: u64,
                     saves: u64,
                     mask: u64,
                     saved: &mut u64,
                     conflict: &mut u64,
                     loc: SpillLoc,
                     errors: &mut Vec<PlacementError>| {
            let r = restores & mask;
            if r != 0 {
                // Restore in Original (or never-reached) state: no save to
                // undo. Conflict-state restores are legal and re-anchor the
                // state to Original.
                let mut bad = r & !*saved & !*conflict;
                while bad != 0 {
                    let bit = bad.trailing_zeros() as usize;
                    bad &= bad - 1;
                    push_unique(
                        errors,
                        PlacementError::RestoreWithoutSave {
                            point: SpillPoint {
                                reg: reg_of(bit),
                                kind: SpillKind::Restore,
                                loc,
                            },
                        },
                    );
                }
                *saved &= !r;
                *conflict &= !r;
            }
            let s = saves & mask;
            if s != 0 {
                let mut bad = s & *saved & !*conflict;
                while bad != 0 {
                    let bit = bad.trailing_zeros() as usize;
                    bad &= bad - 1;
                    push_unique(
                        errors,
                        PlacementError::DoubleSave {
                            point: SpillPoint {
                                reg: reg_of(bit),
                                kind: SpillKind::Save,
                                loc,
                            },
                        },
                    );
                }
                *saved |= s;
                *conflict &= !s;
            }
        };

        // Block-entry state planes. `BlockTop(entry)` points execute on the
        // procedure-entry transition only — their physical realization
        // lives above any loop back to the entry block — so they are
        // applied once here, to seed the entry block's in-state, and
        // skipped when the entry block is (re)processed below. Back edges
        // into the entry block merge into the post-top state, exactly as
        // they reach the split entry physically.
        let all = if num_regs == 0 {
            0
        } else {
            u64::MAX >> (64 - num_regs)
        };
        let entry = cfg.entry().index();
        {
            let (mut s0, mut c0) = (0u64, 0u64);
            apply(
                top_restore[entry],
                top_save[entry],
                all,
                &mut s0,
                &mut c0,
                SpillLoc::BlockTop(cfg.entry()),
                &mut errors,
            );
            known_in[entry] = all;
            saved_in[entry] = s0;
            conflict_in[entry] = c0;
        }

        let cap = 4 * n + 8;
        let mut changed = true;
        let mut passes = 0usize;
        while changed {
            changed = false;
            passes += 1;
            assert!(
                passes <= cap,
                "placement check did not converge within its cap of {cap} passes"
            );
            for bi in 0..n {
                let b = BlockId::from_index(bi);
                let mask = known_in[bi];
                if mask == 0 {
                    continue;
                }
                let mut saved = saved_in[bi];
                let mut conflict = conflict_in[bi];
                if bi != entry {
                    apply(
                        top_restore[bi],
                        top_save[bi],
                        mask,
                        &mut saved,
                        &mut conflict,
                        SpillLoc::BlockTop(b),
                        &mut errors,
                    );
                }
                // Busy body: must be in saved state.
                let mut bad = self.busy[bi] & mask & (!saved | conflict);
                while bad != 0 {
                    let bit = bad.trailing_zeros() as usize;
                    bad &= bad - 1;
                    push_unique(
                        &mut errors,
                        PlacementError::BusyNotSaved {
                            reg: reg_of(bit),
                            block: b,
                        },
                    );
                }
                apply(
                    bottom_restore[bi],
                    bottom_save[bi],
                    mask,
                    &mut saved,
                    &mut conflict,
                    SpillLoc::BlockBottom(b),
                    &mut errors,
                );
                // Returns must be in original state.
                if self.is_exit[bi] {
                    let mut bad = mask & saved & !conflict;
                    while bad != 0 {
                        let bit = bad.trailing_zeros() as usize;
                        bad &= bad - 1;
                        push_unique(
                            &mut errors,
                            PlacementError::NotRestoredAtExit {
                                reg: reg_of(bit),
                                block: b,
                            },
                        );
                    }
                }
                let succs =
                    &self.succs[self.succ_start[bi] as usize..self.succ_start[bi + 1] as usize];
                for &(e, to) in succs {
                    let (e, to) = (e as usize, to as usize);
                    let (mut s_e, mut c_e) = (saved, conflict);
                    apply(
                        edge_restore[e],
                        edge_save[e],
                        mask,
                        &mut s_e,
                        &mut c_e,
                        SpillLoc::OnEdge(EdgeId::from_index(e)),
                        &mut errors,
                    );
                    // Merge into the target's entry state: newly known
                    // bits copy the incoming state; doubly known bits that
                    // disagree (or are already conflicted) conflict.
                    let (k_t, s_t, c_t) = (known_in[to], saved_in[to], conflict_in[to]);
                    let new_conflict = c_t | (mask & c_e) | (k_t & mask & (s_t ^ s_e));
                    let new_known = k_t | mask;
                    let new_saved = ((s_t & k_t) | (s_e & mask & !k_t)) & !new_conflict;
                    if (new_known, new_saved, new_conflict) != (k_t, s_t, c_t) {
                        known_in[to] = new_known;
                        saved_in[to] = new_saved;
                        conflict_in[to] = new_conflict;
                        changed = true;
                    }
                    let mut newly = new_conflict & !reported_merge[to];
                    reported_merge[to] |= newly;
                    while newly != 0 {
                        let bit = newly.trailing_zeros() as usize;
                        newly &= newly - 1;
                        errors.push(PlacementError::InconsistentMerge {
                            reg: reg_of(bit),
                            block: BlockId::from_index(to),
                        });
                    }
                }
            }
        }
        (errors, passes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry_exit::entry_exit_placement;
    use crate::location::Placement;
    use spillopt_ir::{Cond, FunctionBuilder, Reg};

    fn diamond() -> (spillopt_ir::Function, [BlockId; 4]) {
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
        (fb.finish(), [a, b, c, d])
    }

    #[test]
    fn entry_exit_is_always_valid() {
        let (f, [_, b, ..]) = diamond();
        let cfg = Cfg::compute(&f);
        let mut usage = CalleeSavedUsage::new();
        usage.set_busy(PReg::new(11), b, 4);
        let p = entry_exit_placement(&cfg, &usage);
        assert_eq!(check_placement(&cfg, &usage, &p), vec![]);
    }

    #[test]
    fn missing_save_is_caught() {
        let (f, [_, b, _, d]) = diamond();
        let cfg = Cfg::compute(&f);
        let mut usage = CalleeSavedUsage::new();
        let r = PReg::new(11);
        usage.set_busy(r, b, 4);
        // Restore without save.
        let p = Placement::from_points(vec![SpillPoint {
            reg: r,
            kind: SpillKind::Restore,
            loc: SpillLoc::BlockBottom(d),
        }]);
        let errs = check_placement(&cfg, &usage, &p);
        assert!(errs
            .iter()
            .any(|e| matches!(e, PlacementError::RestoreWithoutSave { .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, PlacementError::BusyNotSaved { .. })));
    }

    #[test]
    fn asymmetric_diamond_merge_is_caught() {
        let (f, [a, b, _, d]) = diamond();
        let cfg = Cfg::compute(&f);
        let mut usage = CalleeSavedUsage::new();
        let r = PReg::new(11);
        usage.set_busy(r, b, 4);
        // Save only on the busy arm, restore at the merged exit: the
        // merge at D sees saved/original conflict.
        let p = Placement::from_points(vec![
            SpillPoint {
                reg: r,
                kind: SpillKind::Save,
                loc: SpillLoc::OnEdge(cfg.edge_between(a, b).unwrap()),
            },
            SpillPoint {
                reg: r,
                kind: SpillKind::Restore,
                loc: SpillLoc::BlockBottom(d),
            },
        ]);
        let errs = check_placement(&cfg, &usage, &p);
        assert!(errs
            .iter()
            .any(|e| matches!(e, PlacementError::InconsistentMerge { .. })));
    }

    #[test]
    fn unrestored_exit_is_caught() {
        let (f, [a, b, _, _]) = diamond();
        let cfg = Cfg::compute(&f);
        let mut usage = CalleeSavedUsage::new();
        let r = PReg::new(11);
        usage.set_busy(r, b, 4);
        let p = Placement::from_points(vec![SpillPoint {
            reg: r,
            kind: SpillKind::Save,
            loc: SpillLoc::BlockTop(a),
        }]);
        let errs = check_placement(&cfg, &usage, &p);
        assert!(errs
            .iter()
            .any(|e| matches!(e, PlacementError::NotRestoredAtExit { .. })));
    }

    #[test]
    fn double_save_is_caught() {
        let (f, [a, b, _, d]) = diamond();
        let cfg = Cfg::compute(&f);
        let mut usage = CalleeSavedUsage::new();
        let r = PReg::new(11);
        usage.set_busy(r, b, 4);
        let p = Placement::from_points(vec![
            SpillPoint {
                reg: r,
                kind: SpillKind::Save,
                loc: SpillLoc::BlockTop(a),
            },
            SpillPoint {
                reg: r,
                kind: SpillKind::Save,
                loc: SpillLoc::OnEdge(cfg.edge_between(a, b).unwrap()),
            },
            SpillPoint {
                reg: r,
                kind: SpillKind::Restore,
                loc: SpillLoc::BlockBottom(d),
            },
        ]);
        let errs = check_placement(&cfg, &usage, &p);
        assert!(errs
            .iter()
            .any(|e| matches!(e, PlacementError::DoubleSave { .. })));
    }

    #[test]
    fn busy_range_past_a_restore_is_caught() {
        let (f, [a, b, _, d]) = diamond();
        let cfg = Cfg::compute(&f);
        let mut usage = CalleeSavedUsage::new();
        let r = PReg::new(11);
        usage.set_busy(r, b, 4);
        usage.set_busy(r, d, 4);
        // Restoring at the bottom of b while d (busy) follows leaves d
        // executing in original state.
        let p = Placement::from_points(vec![
            SpillPoint {
                reg: r,
                kind: SpillKind::Save,
                loc: SpillLoc::BlockTop(a),
            },
            SpillPoint {
                reg: r,
                kind: SpillKind::Restore,
                loc: SpillLoc::BlockBottom(b),
            },
        ]);
        let errs = check_placement(&cfg, &usage, &p);
        assert!(errs
            .iter()
            .any(|e| matches!(e, PlacementError::BusyNotSaved { block, .. } if *block == d)));
    }

    #[test]
    fn restore_at_bottom_of_busy_block_is_legal() {
        // The paper's own pattern: busy block with the restore as its last
        // instruction.
        let (f, [a, b, _, d]) = diamond();
        let cfg = Cfg::compute(&f);
        let mut usage = CalleeSavedUsage::new();
        let r = PReg::new(11);
        usage.set_busy(r, b, 4);
        let p = Placement::from_points(vec![
            SpillPoint {
                reg: r,
                kind: SpillKind::Save,
                loc: SpillLoc::BlockTop(a),
            },
            SpillPoint {
                reg: r,
                kind: SpillKind::Restore,
                loc: SpillLoc::BlockBottom(b),
            },
            SpillPoint {
                reg: r,
                kind: SpillKind::Restore,
                loc: SpillLoc::OnEdge(
                    cfg.edge_between(a, spillopt_ir::BlockId::from_index(2))
                        .unwrap(),
                ),
            },
        ]);
        let errs = check_placement(&cfg, &usage, &p);
        assert_eq!(errs, vec![]);
        let _ = d;
    }

    #[test]
    fn modified_shrink_wrap_is_valid_on_diamond() {
        let (f, [_, b, ..]) = diamond();
        let cfg = Cfg::compute(&f);
        let mut usage = CalleeSavedUsage::new();
        usage.set_busy(PReg::new(11), b, 4);
        let p = crate::modified::modified_shrink_wrap(&cfg, &usage).placement();
        assert_eq!(check_placement(&cfg, &usage, &p), vec![]);
        let c = crate::chow::chow_shrink_wrap(&cfg, &usage);
        assert_eq!(check_placement(&cfg, &usage, &c), vec![]);
    }

    fn point(reg: PReg, kind: SpillKind, loc: SpillLoc) -> SpillPoint {
        SpillPoint { reg, kind, loc }
    }

    /// The reported violations as a set, for comparing against the
    /// per-register reference (which groups its list by register).
    fn as_set(errors: &[PlacementError]) -> Vec<String> {
        let mut set: Vec<String> = errors.iter().map(|e| format!("{e:?}")).collect();
        set.sort();
        set.dedup();
        set
    }

    /// Runs `checker` on `p` and asserts it returns exactly
    /// [`check_placement`]'s list and the reference's violation set.
    fn agrees(
        checker: &PlacementChecker,
        cfg: &Cfg,
        usage: &CalleeSavedUsage,
        p: &Placement,
    ) -> Vec<PlacementError> {
        let errors = checker.check(cfg, usage, p);
        assert_eq!(errors, check_placement(cfg, usage, p), "{p}");
        let reference = crate::reference::check_placement_reference(cfg, usage, p);
        assert_eq!(as_set(&errors), as_set(&reference), "{p}");
        errors
    }

    /// One checker, reused over the suite's four placements and over
    /// hand-made placements breaking each validity rule in turn, agrees
    /// with a fresh check and with the reference on every one; the
    /// invalid ones report the rule they break.
    #[test]
    fn reused_checker_agrees_with_fresh_checks_and_the_reference() {
        let (f, [a, b, c, d]) = diamond();
        let cfg = Cfg::compute(&f);
        let r = PReg::new(11);
        let r2 = PReg::new(12);
        let mut usage = CalleeSavedUsage::new();
        usage.set_busy(r, b, 4);
        usage.set_busy(r2, c, 4);
        usage.set_busy(r2, d, 4);
        let profile = spillopt_profile::EdgeProfile::new(
            &cfg,
            cfg.edge_ids().map(|e| 10 + e.index() as u64).collect(),
            30,
        );
        let inputs = crate::SuiteInputs::compute(&cfg, &usage, &profile);
        let suite =
            crate::run_suite(&cfg, &inputs, &crate::SuiteOptions::default()).expect("valid suite");

        let checker = PlacementChecker::new(&cfg, &usage);
        for p in [
            &suite.entry_exit,
            &suite.chow,
            &suite.hierarchical_exec,
            &suite.hierarchical_jump,
        ] {
            assert_eq!(agrees(&checker, &cfg, &usage, p), vec![]);
        }

        let ab = SpillLoc::OnEdge(cfg.edge_between(a, b).unwrap());
        let ac = SpillLoc::OnEdge(cfg.edge_between(a, c).unwrap());
        // r2 saved and restored around its own busy blocks throughout.
        let r2_ok = [
            point(r2, SpillKind::Save, SpillLoc::BlockTop(a)),
            point(r2, SpillKind::Restore, SpillLoc::BlockBottom(d)),
        ];
        let with_r2 = |points: &[SpillPoint]| {
            Placement::from_points(points.iter().chain(&r2_ok).copied().collect())
        };
        type Reports = fn(&PlacementError) -> bool;
        let cases: [(&str, Placement, Reports); 6] = [
            (
                "double save",
                with_r2(&[
                    point(r, SpillKind::Save, SpillLoc::BlockTop(a)),
                    point(r, SpillKind::Save, ab),
                    point(r, SpillKind::Restore, SpillLoc::BlockBottom(d)),
                ]),
                |e| matches!(e, PlacementError::DoubleSave { .. }),
            ),
            (
                "restore without save",
                with_r2(&[
                    point(r, SpillKind::Save, ab),
                    point(r, SpillKind::Restore, SpillLoc::BlockBottom(b)),
                    point(r, SpillKind::Restore, ac),
                ]),
                |e| matches!(e, PlacementError::RestoreWithoutSave { .. }),
            ),
            (
                "busy not saved",
                with_r2(&[
                    point(r, SpillKind::Save, SpillLoc::BlockBottom(b)),
                    point(r, SpillKind::Restore, SpillLoc::BlockBottom(d)),
                ]),
                |e| matches!(e, PlacementError::BusyNotSaved { .. }),
            ),
            (
                "merge conflict",
                with_r2(&[
                    point(r, SpillKind::Save, ab),
                    point(r, SpillKind::Restore, SpillLoc::BlockBottom(d)),
                ]),
                |e| matches!(e, PlacementError::InconsistentMerge { .. }),
            ),
            (
                "not restored at exit",
                with_r2(&[point(r, SpillKind::Save, SpillLoc::BlockTop(a))]),
                |e| matches!(e, PlacementError::NotRestoredAtExit { .. }),
            ),
            (
                // r13 has points but no busy block: it takes the bit
                // after the usage registers, and its unmatched restore
                // is reported under its own name.
                "placement-only register",
                with_r2(&[
                    point(r, SpillKind::Save, SpillLoc::BlockTop(a)),
                    point(r, SpillKind::Restore, SpillLoc::BlockBottom(d)),
                    point(PReg::new(13), SpillKind::Restore, SpillLoc::BlockTop(d)),
                ]),
                |e| {
                    matches!(e, PlacementError::RestoreWithoutSave { point }
                        if point.reg == PReg::new(13))
                },
            ),
        ];
        // Interleave valid and invalid placements through the same
        // checker: nothing of one check may leak into the next.
        for (what, p, expected) in &cases {
            let errors = agrees(&checker, &cfg, &usage, p);
            assert!(errors.iter().any(expected), "{what}: {errors:?}");
            assert!(errors.iter().all(|e| match e {
                PlacementError::DoubleSave { point }
                | PlacementError::RestoreWithoutSave { point } => point.reg != r2,
                PlacementError::BusyNotSaved { reg, .. }
                | PlacementError::InconsistentMerge { reg, .. }
                | PlacementError::NotRestoredAtExit { reg, .. } => *reg != r2,
            }));
            assert_eq!(agrees(&checker, &cfg, &usage, &suite.chow), vec![]);
        }
    }

    /// More than 64 registers in all takes the reference path; a usage
    /// holds at most 64, so only placement-only registers can push it
    /// over, however few the usage has. The checker then returns the
    /// reference's list verbatim.
    #[test]
    fn over_64_registers_fall_back_to_the_reference() {
        let (f, [a, b, _, d]) = diamond();
        let cfg = Cfg::compute(&f);
        for (used, placement_only) in [(64u8, 1u8), (1, 64)] {
            let mut usage = CalleeSavedUsage::new();
            for r in 0..used {
                usage.set_busy(PReg::new(r), b, 4);
            }
            let checker = PlacementChecker::new(&cfg, &usage);
            let mut points: Vec<SpillPoint> = (0..used + placement_only)
                .flat_map(|r| {
                    [
                        point(PReg::new(r), SpillKind::Save, SpillLoc::BlockTop(a)),
                        point(PReg::new(r), SpillKind::Restore, SpillLoc::BlockBottom(d)),
                    ]
                })
                .collect();
            let valid = Placement::from_points(points.clone());
            assert_eq!(agrees(&checker, &cfg, &usage, &valid), vec![]);
            // Drop the first register's save: a restore without save and
            // a busy block in original state.
            points.remove(0);
            let broken = Placement::from_points(points);
            let (errors, passes) = checker.check_counting_passes(&cfg, &usage, &broken);
            assert_eq!(
                passes, 0,
                "{used}+{placement_only} registers took the word path"
            );
            assert_eq!(
                errors,
                crate::reference::check_placement_reference(&cfg, &usage, &broken)
            );
            assert!(!errors.is_empty());
        }
    }

    /// The worst block order for the round-robin fixpoint: every edge but
    /// the entry's runs from a higher block index to a lower one, so one
    /// pass moves the state only one block along the chain, and a loop
    /// closes the chain with a merge conflict that must travel it again.
    /// The check still converges within the documented `2 · blocks + 1`
    /// passes (half its cap) and agrees with the reference, valid and
    /// invalid alike.
    #[test]
    fn against_the_flow_order_converges_under_the_cap() {
        const CHAIN: usize = 12;
        let mut fb = FunctionBuilder::new("against", 0);
        let entry = fb.create_block(None);
        let exit = fb.create_block(None);
        let chain: Vec<BlockId> = (0..CHAIN).map(|_| fb.create_block(None)).collect();
        fb.switch_to(entry);
        let x = fb.li(0);
        fb.jump(chain[CHAIN - 1]);
        for i in (1..CHAIN).rev() {
            fb.switch_to(chain[i]);
            fb.jump(chain[i - 1]);
        }
        // The chain's last block loops back to its head or leaves.
        fb.switch_to(chain[0]);
        fb.branch(Cond::Lt, Reg::Virt(x), Reg::Virt(x), chain[CHAIN - 1], exit);
        fb.switch_to(exit);
        fb.ret(None);
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.entry(), entry);
        let n = cfg.num_blocks();
        let back = SpillLoc::OnEdge(cfg.edge_between(chain[0], chain[CHAIN - 1]).unwrap());

        let r = PReg::new(11);
        let mut usage = CalleeSavedUsage::new();
        usage.set_busy(r, chain[CHAIN / 2], n);
        let checker = PlacementChecker::new(&cfg, &usage);
        let valid = Placement::from_points(vec![
            point(r, SpillKind::Save, SpillLoc::BlockTop(entry)),
            point(r, SpillKind::Restore, SpillLoc::BlockBottom(exit)),
        ]);
        // Restoring on the back edge meets the saved state from the entry
        // at the chain's head: a conflict that then flows down the chain.
        let conflicting = Placement::from_points(vec![
            point(r, SpillKind::Save, SpillLoc::BlockTop(entry)),
            point(r, SpillKind::Restore, back),
            point(r, SpillKind::Restore, SpillLoc::BlockBottom(exit)),
        ]);
        for (p, valid) in [(&valid, true), (&conflicting, false)] {
            let errors = agrees(&checker, &cfg, &usage, p);
            assert_eq!(errors.is_empty(), valid, "{errors:?}");
            let (_, passes) = checker.check_counting_passes(&cfg, &usage, p);
            assert!(passes >= CHAIN, "{passes} passes: not the worst order");
            assert!(passes <= 2 * n + 1, "{passes} passes over the bound");
        }
        let errors = checker.check(&cfg, &usage, &conflicting);
        assert!(errors.iter().any(|e| matches!(
            e,
            PlacementError::InconsistentMerge { block, .. } if *block == chain[CHAIN - 1]
        )));
    }
}
