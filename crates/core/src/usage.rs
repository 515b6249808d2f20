//! Callee-saved register usage: which registers the allocator used, and in
//! which blocks each is *busy* (holds an allocated variable and must not be
//! restored over).

use spillopt_ir::target::MAX_CALLEE_SAVED;
use spillopt_ir::{BlockId, Cfg, DenseBitSet, Function, Liveness, PReg, Reg, Target};

/// For each callee-saved register the allocator used, the set of blocks
/// where it is busy. This — together with the profile — is the entire
/// input of the placement problem.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CalleeSavedUsage {
    entries: Vec<(PReg, DenseBitSet)>,
}

impl CalleeSavedUsage {
    /// Creates an empty usage map.
    pub fn new() -> Self {
        CalleeSavedUsage::default()
    }

    /// Marks `reg` busy in `block`. `num_blocks` sizes the bitset on first
    /// use of a register.
    ///
    /// # Panics
    ///
    /// Panics if `reg` would be the 65th distinct register: a usage
    /// holds at most [`MAX_CALLEE_SAVED`] registers, the bound
    /// [`Target::try_new`] puts on callee-saved registers, so the
    /// placement solvers always fit every register in one word.
    pub fn set_busy(&mut self, reg: PReg, block: BlockId, num_blocks: usize) {
        match self.entries.iter_mut().find(|(r, _)| *r == reg) {
            Some((_, set)) => {
                set.insert(block.index());
            }
            None => {
                assert!(
                    self.entries.len() < MAX_CALLEE_SAVED,
                    "more than {MAX_CALLEE_SAVED} callee-saved registers in use"
                );
                let mut set = DenseBitSet::new(num_blocks);
                set.insert(block.index());
                self.entries.push((reg, set));
                self.entries.sort_by_key(|(r, _)| *r);
            }
        }
    }

    /// The used registers with their busy sets, in register order.
    pub fn regs(&self) -> impl Iterator<Item = (PReg, &DenseBitSet)> + '_ {
        self.entries.iter().map(|(r, s)| (*r, s))
    }

    /// The busy set of `reg`, if used.
    pub fn busy(&self, reg: PReg) -> Option<&DenseBitSet> {
        self.entries.iter().find(|(r, _)| *r == reg).map(|(_, s)| s)
    }

    /// Number of callee-saved registers used.
    pub fn num_regs(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no callee-saved register is used (no save/restore
    /// code needed at all).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Derives usage from a (post-register-allocation) function: a
    /// callee-saved register is busy in every block where it is live-in,
    /// live-out, defined, or used.
    ///
    /// This is what the paper's pass receives from the register
    /// allocator; `spillopt-regalloc` exports the allocated function's
    /// CFG for it, but any allocator's output can be analyzed with this
    /// function.
    ///
    /// The liveness it needs is computed only over the target's
    /// callee-saved registers, one `u64` word per block with one bit per
    /// register (its position in [`Target::callee_saved`]; at most 64,
    /// which [`Target::try_new`] enforces). One scan of each block's
    /// operands builds its upward-exposed uses, defs and touched
    /// registers; one backward fixpoint over the reachable blocks in
    /// postorder gives live-in and live-out (unreachable blocks keep
    /// empty sets); busy = touched | live-in | live-out. That is exactly
    /// [`CalleeSavedUsage::from_liveness`] over a full
    /// [`Liveness::compute`]: gen/kill liveness is separable register
    /// by register, and calls clobber only caller-saved registers (which
    /// [`Target::try_new`] keeps disjoint from the callee-saved ones), so
    /// every callee-saved register's kill set is just its defs.
    ///
    /// The `liveness` trace span covers the scan and the fixpoint, the
    /// `callee_saved_usage` span the busy sets.
    pub fn from_function(func: &Function, cfg: &Cfg, target: &Target) -> Self {
        let n = func.num_blocks();
        let (touched, live_in, live_out) = {
            let _s = spillopt_obs::span("liveness");
            let bit = |r: Reg| match r {
                Reg::Phys(p) => target.callee_saved_slot(p).map_or(0, |slot| 1u64 << slot),
                Reg::Virt(_) => 0,
            };
            let mut gen = vec![0u64; n];
            let mut kill = vec![0u64; n];
            let mut touched = vec![0u64; n];
            for b in func.block_ids() {
                let (mut g, mut k, mut t) = (0u64, 0u64, 0u64);
                for inst in &func.block(b).insts {
                    inst.for_each_use(|r| {
                        let m = bit(r);
                        g |= m & !k;
                        t |= m;
                    });
                    inst.for_each_def(|r| {
                        let m = bit(r);
                        k |= m;
                        t |= m;
                    });
                }
                gen[b.index()] = g;
                kill[b.index()] = k;
                touched[b.index()] = t;
            }
            let order = cfg.reachable_postorder();
            let mut live_in = vec![0u64; n];
            for &b in &order {
                live_in[b] = gen[b];
            }
            let mut live_out = vec![0u64; n];
            let mut changed = true;
            while changed {
                changed = false;
                for &b in &order {
                    let out = cfg
                        .succ_blocks(BlockId::from_index(b))
                        .fold(0, |acc, s| acc | live_in[s.index()]);
                    live_out[b] = out;
                    let inn = gen[b] | (out & !kill[b]);
                    if inn != live_in[b] {
                        live_in[b] = inn;
                        changed = true;
                    }
                }
            }
            (touched, live_in, live_out)
        };

        let _s = spillopt_obs::span("callee_saved_usage");
        let callee = target.callee_saved();
        let mut sets: Vec<Option<DenseBitSet>> = vec![None; callee.len()];
        for b in 0..n {
            let mut busy = touched[b] | live_in[b] | live_out[b];
            while busy != 0 {
                let slot = busy.trailing_zeros() as usize;
                busy &= busy - 1;
                sets[slot]
                    .get_or_insert_with(|| DenseBitSet::new(n))
                    .insert(b);
            }
        }
        let mut entries: Vec<(PReg, DenseBitSet)> = callee
            .iter()
            .zip(sets)
            .filter_map(|(&p, set)| Some((p, set?)))
            .collect();
        entries.sort_by_key(|(r, _)| *r);
        CalleeSavedUsage { entries }
    }

    /// As [`CalleeSavedUsage::from_function`], read off a full
    /// [`Liveness`] (every virtual and physical register) instead of the
    /// callee-saved-only words. The reference derivation: the frozen
    /// reference pipeline (`spillopt-driver`'s `refimpl`) and the
    /// benchmark's replay use it, and the identity tests hold
    /// [`CalleeSavedUsage::from_function`] equal to it.
    pub fn from_liveness(func: &Function, target: &Target, liveness: &Liveness) -> Self {
        let mut usage = CalleeSavedUsage::new();
        let n = func.num_blocks();
        for b in func.block_ids() {
            let mark = |r: Reg, usage: &mut CalleeSavedUsage| {
                if let Reg::Phys(p) = r {
                    if target.is_callee_saved(p) {
                        usage.set_busy(p, b, n);
                    }
                }
            };
            for inst in &func.block(b).insts {
                inst.for_each_use(|r| mark(r, &mut usage));
                inst.for_each_def(|r| mark(r, &mut usage));
            }
            let universe = liveness.universe();
            for &p in target.callee_saved() {
                let idx = universe.index(Reg::Phys(p));
                if liveness.live_in(b).contains(idx) || liveness.live_out(b).contains(idx) {
                    usage.set_busy(p, b, n);
                }
            }
        }
        usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_ir::{Cond, FunctionBuilder, InstKind, TargetError};

    /// The word-parallel derivation, held equal to the full-liveness
    /// reference.
    fn derive(f: &Function, target: &Target) -> CalleeSavedUsage {
        let cfg = Cfg::compute(f);
        let word = CalleeSavedUsage::from_function(f, &cfg, target);
        let full = Liveness::compute(f, &cfg, target);
        assert_eq!(word, CalleeSavedUsage::from_liveness(f, target, &full));
        word
    }

    /// The blocks where `reg` is busy, ascending.
    fn busy_blocks(u: &CalleeSavedUsage, reg: PReg) -> Vec<usize> {
        u.busy(reg).map_or_else(Vec::new, |s| s.iter().collect())
    }

    fn li(fb: &mut FunctionBuilder, reg: PReg, imm: i64) {
        fb.emit(InstKind::LoadImm {
            dst: Reg::Phys(reg),
            imm,
        });
    }

    #[test]
    fn read_before_any_def_is_live_in_at_entry() {
        let r11 = PReg::new(11);
        let mut fb = FunctionBuilder::new("f", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        fb.switch_to(a);
        fb.jump(b);
        fb.switch_to(b);
        fb.ret(Some(Reg::Phys(r11)));
        let u = derive(&fb.finish(), &Target::default());
        assert_eq!(busy_blocks(&u, r11), vec![a.index(), b.index()]);
    }

    #[test]
    fn value_carried_around_a_loop_back_edge() {
        // r12 is defined before the loop and read only after it exits,
        // so it is live around the back edge: busy in the body, which
        // never touches it. (The body comes first in postorder, so this
        // takes a second pass of the fixpoint.)
        let r12 = PReg::new(12);
        let mut fb = FunctionBuilder::new("f", 0);
        let pre = fb.create_block(None);
        let header = fb.create_block(None);
        let exit = fb.create_block(None);
        let body = fb.create_block(None);
        fb.switch_to(pre);
        li(&mut fb, r12, 0);
        fb.jump(header);
        fb.switch_to(header);
        let n = fb.li(10);
        fb.branch(Cond::Lt, Reg::Virt(n), Reg::Virt(n), body, exit);
        fb.switch_to(exit);
        fb.ret(Some(Reg::Phys(r12)));
        fb.switch_to(body);
        fb.jump(header);
        let u = derive(&fb.finish(), &Target::default());
        assert_eq!(
            busy_blocks(&u, r12),
            vec![pre.index(), header.index(), exit.index(), body.index()]
        );
    }

    #[test]
    fn unreachable_block_is_busy_only_where_touched() {
        // `dead` reads r12 and jumps into `b`, where r13 is live-in. It
        // is unreachable, so it keeps empty live sets: busy for r12 (it
        // touches it), not for r13 (live into its successor).
        let (r12, r13) = (PReg::new(12), PReg::new(13));
        let mut fb = FunctionBuilder::new("f", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        let dead = fb.create_block(None);
        fb.switch_to(a);
        li(&mut fb, r13, 1);
        fb.jump(b);
        fb.switch_to(b);
        fb.ret(Some(Reg::Phys(r13)));
        fb.switch_to(dead);
        fb.mov(Reg::Phys(PReg::new(1)), Reg::Phys(r12));
        fb.jump(b);
        let u = derive(&fb.finish(), &Target::default());
        assert_eq!(busy_blocks(&u, r12), vec![dead.index()]);
        assert_eq!(busy_blocks(&u, r13), vec![a.index(), b.index()]);
    }

    #[test]
    fn dead_def_is_busy_only_in_its_block() {
        let r14 = PReg::new(14);
        let mut fb = FunctionBuilder::new("f", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        fb.switch_to(a);
        li(&mut fb, r14, 5);
        fb.jump(b);
        fb.switch_to(b);
        fb.ret(None);
        let u = derive(&fb.finish(), &Target::default());
        assert_eq!(busy_blocks(&u, r14), vec![a.index()]);
        assert_eq!(u.num_regs(), 1);
    }

    #[test]
    fn sixty_four_callee_saved_registers_fill_the_word() {
        // r0 caller-saved; r1..=r64 callee-saved, r64 in the top bit.
        let wide = |n: u8| {
            Target::try_new(
                "wide",
                vec![PReg::new(0)],
                (1..=n).map(PReg::new).collect(),
                PReg::new(0),
                vec![],
            )
        };
        assert_eq!(wide(65).unwrap_err(), TargetError::TooManyCalleeSaved(65));
        let target = wide(64).expect("64 callee-saved registers fit");
        let (r1, r64) = (PReg::new(1), PReg::new(64));
        let mut fb = FunctionBuilder::with_target("f", 0, target.clone());
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        let c = fb.create_block(None);
        fb.switch_to(a);
        li(&mut fb, r64, 2);
        li(&mut fb, r1, 3);
        fb.jump(b);
        fb.switch_to(b);
        fb.jump(c);
        fb.switch_to(c);
        fb.ret(Some(Reg::Phys(r64)));
        let u = derive(&fb.finish(), &target);
        assert_eq!(busy_blocks(&u, r64), vec![a.index(), b.index(), c.index()]);
        assert_eq!(busy_blocks(&u, r1), vec![a.index()]);
        let regs: Vec<PReg> = u.regs().map(|(r, _)| r).collect();
        assert_eq!(regs, vec![r1, r64]);
    }

    #[test]
    fn set_and_query() {
        let mut u = CalleeSavedUsage::new();
        let r11 = PReg::new(11);
        let r12 = PReg::new(12);
        u.set_busy(r12, BlockId::from_index(2), 4);
        u.set_busy(r11, BlockId::from_index(1), 4);
        u.set_busy(r11, BlockId::from_index(2), 4);
        assert_eq!(u.num_regs(), 2);
        let regs: Vec<PReg> = u.regs().map(|(r, _)| r).collect();
        assert_eq!(regs, vec![r11, r12]); // sorted
        assert!(u.busy(r11).unwrap().contains(1));
        assert!(u.busy(r11).unwrap().contains(2));
        assert!(!u.busy(r12).unwrap().contains(1));
        assert!(u.busy(PReg::new(13)).is_none());
        assert!(!u.is_empty());
    }

    #[test]
    #[should_panic(expected = "more than 64 callee-saved registers")]
    fn sixty_fifth_register_panics() {
        let mut u = CalleeSavedUsage::new();
        let b = BlockId::from_index(0);
        for r in 0..MAX_CALLEE_SAVED as u8 {
            u.set_busy(PReg::new(r), b, 1);
        }
        // A register already in use is still accepted.
        u.set_busy(PReg::new(0), b, 1);
        assert_eq!(u.num_regs(), MAX_CALLEE_SAVED);
        u.set_busy(PReg::new(MAX_CALLEE_SAVED as u8), b, 1);
    }

    #[test]
    fn from_function_finds_live_ranges() {
        // r11 defined in block A, used in block C: busy in A, B (live
        // through), C.
        let target = Target::default();
        let r11 = PReg::new(11);
        let mut fb = FunctionBuilder::new("f", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        let c = fb.create_block(None);
        fb.switch_to(a);
        fb.emit(InstKind::LoadImm {
            dst: Reg::Phys(r11),
            imm: 3,
        });
        fb.jump(b);
        fb.switch_to(b);
        fb.jump(c);
        fb.switch_to(c);
        fb.ret(Some(Reg::Phys(r11)));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let u = CalleeSavedUsage::from_function(&f, &cfg, &target);
        let busy = u.busy(r11).expect("r11 used");
        assert!(busy.contains(a.index()));
        assert!(busy.contains(b.index()));
        assert!(busy.contains(c.index()));
        assert_eq!(u.num_regs(), 1);
    }
}
