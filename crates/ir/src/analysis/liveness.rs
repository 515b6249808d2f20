//! Live-register analysis over both virtual and physical registers.

use crate::bitset::{BitMatrix, BitRow, DenseBitSet};
use crate::cfg::Cfg;
use crate::function::Function;
use crate::ids::{BlockId, PReg, Reg, VReg};
use crate::target::Target;

/// Dense index space over a function's registers: virtual registers first,
/// then physical registers.
#[derive(Clone, Debug)]
pub struct RegUniverse {
    num_vregs: usize,
    num_pregs: usize,
}

impl RegUniverse {
    /// Builds the universe for `func` under `target`.
    pub fn new(func: &Function, target: &Target) -> Self {
        RegUniverse {
            num_vregs: func.num_vregs(),
            num_pregs: target.reg_index_limit(),
        }
    }

    /// Total number of register indices.
    pub fn len(&self) -> usize {
        self.num_vregs + self.num_pregs
    }

    /// Returns `true` when the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the number of virtual registers.
    pub fn num_vregs(&self) -> usize {
        self.num_vregs
    }

    /// Maps a register to its dense index.
    pub fn index(&self, r: Reg) -> usize {
        match r {
            Reg::Virt(v) => {
                debug_assert!(v.index() < self.num_vregs);
                v.index()
            }
            Reg::Phys(p) => {
                debug_assert!(p.index() < self.num_pregs);
                self.num_vregs + p.index()
            }
        }
    }

    /// Maps a dense index back to a register.
    pub fn reg(&self, i: usize) -> Reg {
        if i < self.num_vregs {
            Reg::Virt(VReg::from_index(i))
        } else {
            Reg::Phys(PReg::new((i - self.num_vregs) as u8))
        }
    }
}

/// Per-block liveness sets.
///
/// Storage is flat: live-in and live-out are one [`BitMatrix`] each,
/// one row per block over the [`RegUniverse`], so a function's liveness
/// is a fixed handful of allocations whatever its block count.
/// [`Liveness::live_in`] and [`Liveness::live_out`] return a borrowed
/// row view ([`BitRow`]), and [`Liveness::for_each_inst_backwards`]
/// walks a block with a live set the caller owns, so a pass that walks
/// every block allocates that set once.
#[derive(Clone, Debug)]
pub struct Liveness {
    universe: RegUniverse,
    live_in: BitMatrix,
    live_out: BitMatrix,
}

impl Liveness {
    /// Computes per-block liveness by backward iteration to a fixpoint.
    ///
    /// Calls implicitly define (clobber) all caller-saved physical
    /// registers of `target`.
    ///
    /// The iteration exploits monotonicity: may-liveness sets only grow,
    /// so each visit unions `live_in` of the successors into `live_out`
    /// and applies the transfer function `in |= out \ kill` as fused
    /// word loops in place — no per-visit allocation or set comparison.
    /// Live-in is seeded with each reachable block's upward-exposed uses
    /// (gen) in place, and kill lives in a third matrix that is dropped
    /// on return: three matrices and the traversal order are the whole
    /// allocation. The fixpoint is unique, so the result is identical
    /// to the reference implementation ([`Liveness::compute_reference`]).
    pub fn compute(func: &Function, cfg: &Cfg, target: &Target) -> Self {
        let universe = RegUniverse::new(func, target);
        let n = func.num_blocks();
        let mut live_in = BitMatrix::new(n, universe.len());
        let mut kill = BitMatrix::new(n, universe.len()); // defs

        // Seed live_in of every reachable block with gen (gen is always
        // in the fixpoint; unreachable blocks keep empty rows, matching
        // the reference), then iterate in postorder (successors first)
        // until stable.
        let order = cfg.reachable_postorder();
        for &bi in &order {
            for inst in &func.block(BlockId::from_index(bi)).insts {
                inst.for_each_use(|r| {
                    let i = universe.index(r);
                    if !kill.contains(bi, i) {
                        live_in.set(bi, i);
                    }
                });
                inst.for_each_def(|r| {
                    kill.set(bi, universe.index(r));
                });
                inst.for_each_clobber(target, |p| {
                    kill.set(bi, universe.index(Reg::Phys(p)));
                });
            }
        }

        let mut live_out = BitMatrix::new(n, universe.len());
        let mut changed = true;
        while changed {
            changed = false;
            for &bi in &order {
                let b = BlockId::from_index(bi);
                let mut out_changed = false;
                for s in cfg.succ_blocks(b) {
                    out_changed |= live_out.row_union_row(bi, &live_in, s.index());
                }
                if out_changed {
                    changed = true;
                    changed |= live_in.row_union_subtracted(bi, &live_out, &kill);
                }
            }
        }

        Liveness {
            universe,
            live_in,
            live_out,
        }
    }

    /// The retired per-visit-allocating implementation, kept verbatim as
    /// the reference for differential tests (the module-scale one is
    /// `tests/differential_solver.rs`). Same unique fixpoint as
    /// [`Liveness::compute`].
    pub fn compute_reference(func: &Function, cfg: &Cfg, target: &Target) -> Self {
        let universe = RegUniverse::new(func, target);
        let n = func.num_blocks();
        let mut gen = vec![DenseBitSet::new(universe.len()); n]; // upward-exposed uses
        let mut kill = vec![DenseBitSet::new(universe.len()); n]; // defs

        for b in func.block_ids() {
            let (g, k) = (&mut gen[b.index()], &mut kill[b.index()]);
            for inst in &func.block(b).insts {
                inst.for_each_use(|r| {
                    let i = universe.index(r);
                    if !k.contains(i) {
                        g.insert(i);
                    }
                });
                inst.for_each_def(|r| {
                    k.insert(universe.index(r));
                });
                inst.for_each_clobber(target, |p| {
                    k.insert(universe.index(Reg::Phys(p)));
                });
            }
        }

        let mut live_in = vec![DenseBitSet::new(universe.len()); n];
        let mut live_out = vec![DenseBitSet::new(universe.len()); n];

        // Worklist over postorder for fast convergence.
        let graph = crate::analysis::graph::Graph::from_cfg(cfg);
        let order = graph.postorder(cfg.entry().index());
        let mut changed = true;
        while changed {
            changed = false;
            for &bi in &order {
                let b = BlockId::from_index(bi);
                let mut out = DenseBitSet::new(universe.len());
                for s in cfg.succ_blocks(b) {
                    out.union_with(&live_in[s.index()]);
                }
                let mut inn = out.clone();
                inn.subtract(&kill[bi]);
                inn.union_with(&gen[bi]);
                if out != live_out[bi] {
                    live_out[bi] = out;
                    changed = true;
                }
                if inn != live_in[bi] {
                    live_in[bi] = inn;
                    changed = true;
                }
            }
        }

        let flat = |sets: Vec<DenseBitSet>| {
            let mut m = BitMatrix::new(n, universe.len());
            for (bi, set) in sets.iter().enumerate() {
                m.row_union_words(bi, set.words());
            }
            m
        };
        Liveness {
            live_in: flat(live_in),
            live_out: flat(live_out),
            universe,
        }
    }

    /// Returns the register index space.
    pub fn universe(&self) -> &RegUniverse {
        &self.universe
    }

    /// Registers live at entry to `b`.
    pub fn live_in(&self, b: BlockId) -> BitRow<'_> {
        self.live_in.row(b.index())
    }

    /// Registers live at exit of `b`.
    pub fn live_out(&self, b: BlockId) -> BitRow<'_> {
        self.live_out.row(b.index())
    }

    /// Walks block `b` backwards, invoking `visit(inst_index, live_after)`
    /// for each instruction with the set of registers live *after* it.
    ///
    /// `live` is the caller's scratch set over the universe: the walk
    /// overwrites it with `b`'s live-out and updates it to live-before
    /// each instruction as it proceeds (on return it holds `b`'s
    /// live-in), so a caller walking many blocks reuses one set.
    ///
    /// # Panics
    ///
    /// Panics if `live`'s capacity is not the universe's size.
    pub fn for_each_inst_backwards(
        &self,
        func: &Function,
        target: &Target,
        b: BlockId,
        live: &mut DenseBitSet,
        mut visit: impl FnMut(usize, &DenseBitSet),
    ) {
        live.copy_from_words(self.live_out.row_words(b.index()));
        let insts = &func.block(b).insts;
        for (i, inst) in insts.iter().enumerate().rev() {
            visit(i, live);
            inst.for_each_def(|r| {
                live.remove(self.universe.index(r));
            });
            inst.for_each_clobber(target, |p| {
                live.remove(self.universe.index(Reg::Phys(p)));
            });
            inst.for_each_use(|r| {
                live.insert(self.universe.index(r));
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Callee, Cond};

    /// The rewritten fixpoint must agree exactly with the reference on
    /// every block of a branchy, loopy function.
    #[test]
    fn fast_matches_reference() {
        let mut fb = FunctionBuilder::new("f", 0);
        let a = fb.create_block(None);
        let h = fb.create_block(None);
        let body = fb.create_block(None);
        let e = fb.create_block(None);
        fb.switch_to(a);
        let i = fb.li(0);
        let n = fb.li(10);
        fb.jump(h);
        fb.switch_to(h);
        fb.branch(Cond::Ge, Reg::Virt(i), Reg::Virt(n), e, body);
        fb.switch_to(body);
        let _ = fb.call(Callee::External(0), &[]);
        fb.emit(crate::inst::InstKind::BinImm {
            op: BinOp::Add,
            dst: Reg::Virt(i),
            lhs: Reg::Virt(i),
            imm: 1,
        });
        fb.jump(h);
        fb.switch_to(e);
        fb.ret(Some(Reg::Virt(i)));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let t = Target::default();
        let fast = Liveness::compute(&f, &cfg, &t);
        let slow = Liveness::compute_reference(&f, &cfg, &t);
        for b in f.block_ids() {
            assert_eq!(fast.live_in(b), slow.live_in(b), "live_in {b}");
            assert_eq!(fast.live_out(b), slow.live_out(b), "live_out {b}");
        }
    }

    #[test]
    fn liveness_across_branches() {
        // v0 defined in entry, used in both arms; v1 defined and used only
        // in one arm.
        let mut fb = FunctionBuilder::new("f", 0);
        let a = fb.create_block(Some("A"));
        let b = fb.create_block(Some("B"));
        let c = fb.create_block(Some("C"));
        fb.switch_to(a);
        let v0 = fb.li(1);
        fb.branch(Cond::Lt, Reg::Virt(v0), Reg::Virt(v0), c, b);
        fb.switch_to(b);
        let v1 = fb.bin(BinOp::Add, Reg::Virt(v0), Reg::Virt(v0));
        fb.ret(Some(Reg::Virt(v1)));
        fb.switch_to(c);
        fb.ret(Some(Reg::Virt(v0)));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let t = Target::default();
        let lv = Liveness::compute(&f, &cfg, &t);
        let u = lv.universe();
        assert!(lv.live_out(a).contains(u.index(Reg::Virt(v0))));
        assert!(lv.live_in(b).contains(u.index(Reg::Virt(v0))));
        assert!(lv.live_in(c).contains(u.index(Reg::Virt(v0))));
        assert!(!lv.live_in(b).contains(u.index(Reg::Virt(v1))));
        assert!(!lv.live_in(a).contains(u.index(Reg::Virt(v0))));
    }

    #[test]
    fn loop_keeps_counter_alive() {
        let mut fb = FunctionBuilder::new("g", 0);
        let a = fb.create_block(None);
        let h = fb.create_block(None);
        let body = fb.create_block(None);
        let e = fb.create_block(None);
        fb.switch_to(a);
        let i = fb.li(0);
        let n = fb.li(10);
        fb.jump(h);
        fb.switch_to(h);
        fb.branch(Cond::Ge, Reg::Virt(i), Reg::Virt(n), e, body);
        fb.switch_to(body);
        // i = i + 1 (reuse the same vreg to model a mutable counter)
        fb.emit(crate::inst::InstKind::BinImm {
            op: BinOp::Add,
            dst: Reg::Virt(i),
            lhs: Reg::Virt(i),
            imm: 1,
        });
        fb.jump(h);
        fb.switch_to(e);
        fb.ret(None);
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let t = Target::default();
        let lv = Liveness::compute(&f, &cfg, &t);
        let u = lv.universe();
        let ii = u.index(Reg::Virt(i));
        assert!(lv.live_in(h).contains(ii));
        assert!(lv.live_out(body).contains(ii));
        assert!(!lv.live_out(e).contains(ii));
    }

    #[test]
    fn calls_clobber_caller_saved() {
        let mut fb = FunctionBuilder::new("h", 0);
        let a = fb.create_block(None);
        fb.switch_to(a);
        let v = fb.li(5);
        let _r = fb.call(Callee::External(0), &[]);
        fb.ret(Some(Reg::Virt(v)));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let t = Target::default();
        let lv = Liveness::compute(&f, &cfg, &t);
        // Walk backwards checking that v is live across the call.
        let u = lv.universe();
        let vi = u.index(Reg::Virt(v));
        let mut live_across_call = false;
        let mut scratch = DenseBitSet::new(u.len());
        lv.for_each_inst_backwards(&f, &t, a, &mut scratch, |idx, live| {
            let inst = &f.block(a).insts[idx];
            if matches!(inst.kind, crate::inst::InstKind::Call { .. }) && live.contains(vi) {
                live_across_call = true;
            }
        });
        assert!(live_across_call);
    }

    #[test]
    fn universe_roundtrip() {
        let mut f = Function::new("u");
        let _ = f.new_vreg();
        let _ = f.new_vreg();
        let t = Target::default();
        let u = RegUniverse::new(&f, &t);
        assert_eq!(u.len(), 2 + t.reg_index_limit());
        for i in 0..u.len() {
            assert_eq!(u.index(u.reg(i)), i);
        }
    }
}
