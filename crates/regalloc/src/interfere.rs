//! Interference graph construction.

use spillopt_ir::{BitMatrix, Cfg, DenseBitSet, Function, InstKind, Liveness, Reg, Target};

/// An interference graph over the register universe (virtual registers
/// followed by physical registers; physical nodes are precolored).
///
/// The adjacency is one symmetric [`BitMatrix`] and nothing else: a
/// node's neighbors are the set bits of its row, in ascending order, and
/// its degree is the row's popcount. There are no per-node lists.
#[derive(Clone, Debug)]
pub struct InterferenceGraph {
    n: usize,
    num_vregs: usize,
    matrix: BitMatrix,
    /// Move-related pairs (both virtual) for coalescing.
    pub moves: Vec<(u32, u32)>,
    /// Virtual registers live across at least one call site.
    pub crosses_call: DenseBitSet,
    /// Use/def frequency per node, weighted by block execution counts.
    pub weight: Vec<u64>,
}

impl InterferenceGraph {
    /// Builds the interference graph of `func` using `block_weight` as the
    /// per-block frequency for spill costs.
    ///
    /// The adjacency accumulates word-parallel: the precolored clique is
    /// filled one row mask at a time, a def's row ORs in the whole
    /// live-after set at once, and symmetry is restored in one pass at
    /// the end. The resulting matrix is identical to
    /// [`InterferenceGraph::build_reference`]'s.
    pub fn build(
        func: &Function,
        _cfg: &Cfg,
        target: &Target,
        liveness: &Liveness,
        block_weight: &[u64],
    ) -> Self {
        let universe = liveness.universe();
        let n = universe.len();
        let num_vregs = universe.num_vregs();
        let mut g = InterferenceGraph {
            n,
            num_vregs,
            matrix: BitMatrix::new(n, n),
            moves: Vec::new(),
            crosses_call: DenseBitSet::new(num_vregs),
            weight: vec![0; n],
        };

        // All physical registers mutually interfere (they are distinct
        // resources): each physical row gets the mask of every physical
        // node but itself.
        let mut phys = DenseBitSet::new(n);
        for p in num_vregs..n {
            phys.insert(p);
        }
        for a in num_vregs..n {
            g.matrix.row_union_words(a, phys.words());
            g.matrix.unset(a, a);
        }

        for b in func.block_ids() {
            let w = block_weight[b.index()];
            liveness.for_each_inst_backwards(func, target, b, |idx, live_after| {
                let inst = &func.block(b).insts[idx];
                // Spill-cost weights: every mention of a node costs.
                inst.for_each_use(|r| {
                    let i = universe.index(r);
                    g.weight[i] = g.weight[i].saturating_add(w);
                });
                inst.for_each_def(|r| {
                    let i = universe.index(r);
                    g.weight[i] = g.weight[i].saturating_add(w);
                });

                // A def interferes with everything live after it, except
                // that a move's destination does not interfere with its
                // source (classic coalescing-friendly rule).
                let move_src: Option<usize> = match &inst.kind {
                    InstKind::Move { src, .. } => Some(universe.index(*src)),
                    _ => None,
                };
                inst.for_each_def(|r| {
                    let d = universe.index(r);
                    // The move-source exemption only skips *adding* the
                    // edge here; an edge recorded into this row by some
                    // other instruction must survive the union+unset.
                    let src_had = move_src.map(|s| g.matrix.contains(d, s));
                    g.matrix.row_union_words(d, live_after.words());
                    g.matrix.unset(d, d);
                    if let (Some(s), Some(false)) = (move_src, src_had) {
                        g.matrix.unset(d, s);
                    }
                });
                inst.for_each_clobber(target, |p| {
                    let d = universe.index(Reg::Phys(p));
                    g.matrix.row_union_words(d, live_after.words());
                    g.matrix.unset(d, d);
                });
                if matches!(inst.kind, InstKind::Call { .. }) {
                    for l in live_after.iter() {
                        if l < num_vregs {
                            g.crosses_call.insert(l);
                        }
                    }
                    // Exclude the call's own definition: it is written
                    // after the call completes.
                    inst.for_each_def(|r| {
                        let d = universe.index(r);
                        if d < num_vregs {
                            g.crosses_call.remove(d);
                        }
                    });
                }
                // Record vreg-vreg moves for coalescing.
                if let InstKind::Move { dst, src } = &inst.kind {
                    if dst.is_virt() && src.is_virt() {
                        g.moves
                            .push((universe.index(*dst) as u32, universe.index(*src) as u32));
                    }
                }
            });
        }

        // Symmetrize: rows accumulated def-side only.
        let mut scratch: Vec<usize> = Vec::new();
        for r in 0..n {
            scratch.clear();
            scratch.extend(g.matrix.row_iter(r));
            for &c in &scratch {
                g.matrix.set(c, r);
            }
        }
        g
    }

    /// The retired push-per-edge construction, kept verbatim as the
    /// reference for differential tests. Same interference relation as
    /// [`InterferenceGraph::build`].
    pub fn build_reference(
        func: &Function,
        _cfg: &Cfg,
        target: &Target,
        liveness: &Liveness,
        block_weight: &[u64],
    ) -> Self {
        let universe = liveness.universe();
        let n = universe.len();
        let num_vregs = universe.num_vregs();
        let mut g = InterferenceGraph {
            n,
            num_vregs,
            matrix: BitMatrix::new(n, n),
            moves: Vec::new(),
            crosses_call: DenseBitSet::new(num_vregs),
            weight: vec![0; n],
        };

        // All physical registers mutually interfere (they are distinct
        // resources).
        for a in num_vregs..n {
            for b in num_vregs + 1 + (a - num_vregs)..n {
                g.add_edge(a, b);
            }
        }

        for b in func.block_ids() {
            let w = block_weight[b.index()];
            liveness.for_each_inst_backwards(func, target, b, |idx, live_after| {
                let inst = &func.block(b).insts[idx];
                // Spill-cost weights: every mention of a node costs.
                inst.for_each_use(|r| {
                    let i = universe.index(r);
                    g.weight[i] = g.weight[i].saturating_add(w);
                });
                inst.for_each_def(|r| {
                    let i = universe.index(r);
                    g.weight[i] = g.weight[i].saturating_add(w);
                });

                // A def interferes with everything live after it, except
                // that a move's destination does not interfere with its
                // source (classic coalescing-friendly rule).
                let move_src: Option<usize> = match &inst.kind {
                    InstKind::Move { src, .. } => Some(universe.index(*src)),
                    _ => None,
                };
                inst.for_each_def(|r| {
                    let d = universe.index(r);
                    for l in live_after.iter() {
                        if l != d && Some(l) != move_src {
                            g.add_edge(d, l);
                        }
                    }
                });
                inst.for_each_clobber(target, |p| {
                    let d = universe.index(Reg::Phys(p));
                    for l in live_after.iter() {
                        if l != d {
                            g.add_edge(d, l);
                        }
                    }
                });
                if matches!(inst.kind, InstKind::Call { .. }) {
                    for l in live_after.iter() {
                        if l < num_vregs {
                            g.crosses_call.insert(l);
                        }
                    }
                    // Exclude the call's own definition: it is written
                    // after the call completes.
                    inst.for_each_def(|r| {
                        let d = universe.index(r);
                        if d < num_vregs {
                            g.crosses_call.remove(d);
                        }
                    });
                }
                // Record vreg-vreg moves for coalescing.
                if let InstKind::Move { dst, src } = &inst.kind {
                    if dst.is_virt() && src.is_virt() {
                        g.moves
                            .push((universe.index(*dst) as u32, universe.index(*src) as u32));
                    }
                }
            });
        }
        g
    }

    /// Number of nodes (virtual + physical).
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of virtual-register nodes.
    pub fn num_vregs(&self) -> usize {
        self.num_vregs
    }

    /// Returns `true` if node `i` is a precolored physical register.
    pub fn is_precolored(&self, i: usize) -> bool {
        i >= self.num_vregs
    }

    /// Adds an interference edge (a no-op for `a == b`).
    pub fn add_edge(&mut self, a: usize, b: usize) {
        if a != b {
            self.matrix.set(a, b);
            self.matrix.set(b, a);
        }
    }

    /// Returns `true` if `a` and `b` interfere.
    pub fn interferes(&self, a: usize, b: usize) -> bool {
        self.matrix.contains(a, b)
    }

    /// The words of node `i`'s adjacency row (over all nodes).
    pub fn adjacency_words(&self, i: usize) -> &[u64] {
        self.matrix.row_words(i)
    }

    /// The neighbors of node `i`: the set bits of its adjacency row, in
    /// ascending order.
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.matrix.row_iter(i)
    }

    /// The degree of node `i`: the popcount of its adjacency row.
    pub fn degree(&self, i: usize) -> usize {
        self.matrix.row_count(i)
    }

    /// The universe-relative index of a physical register node.
    pub fn preg_node(&self, p: spillopt_ir::PReg) -> usize {
        self.num_vregs + p.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_ir::{BinOp, Callee, FunctionBuilder, Liveness};

    #[test]
    fn simultaneously_live_vregs_interfere() {
        let mut fb = FunctionBuilder::new("f", 0);
        let b = fb.create_block(None);
        fb.switch_to(b);
        let x = fb.li(1);
        let y = fb.li(2);
        let z = fb.bin(BinOp::Add, Reg::Virt(x), Reg::Virt(y));
        fb.ret(Some(Reg::Virt(z)));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let t = Target::default();
        let lv = Liveness::compute(&f, &cfg, &t);
        let g = InterferenceGraph::build(&f, &cfg, &t, &lv, &vec![1; f.num_blocks()]);
        assert!(g.interferes(x.index(), y.index()));
        // z defined from x,y: z does not interfere with x (x dead after).
        assert!(!g.interferes(z.index(), x.index()));
    }

    #[test]
    fn call_crossing_vreg_interferes_with_caller_saved() {
        let mut fb = FunctionBuilder::new("g", 0);
        let b = fb.create_block(None);
        fb.switch_to(b);
        let x = fb.li(1);
        let _r = fb.call(Callee::External(0), &[]);
        fb.ret(Some(Reg::Virt(x)));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let t = Target::default();
        let lv = Liveness::compute(&f, &cfg, &t);
        let g = InterferenceGraph::build(&f, &cfg, &t, &lv, &vec![1; f.num_blocks()]);
        assert!(g.crosses_call.contains(x.index()));
        for &p in t.caller_saved() {
            assert!(
                g.interferes(x.index(), g.preg_node(p)),
                "x must interfere with caller-saved {p}"
            );
        }
        for &p in t.callee_saved() {
            assert!(!g.interferes(x.index(), g.preg_node(p)));
        }
    }

    #[test]
    fn call_result_does_not_cross_its_own_call() {
        let mut fb = FunctionBuilder::new("h", 0);
        let b = fb.create_block(None);
        fb.switch_to(b);
        let r = fb.call(Callee::External(0), &[]);
        fb.ret(Some(Reg::Virt(r)));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let t = Target::default();
        let lv = Liveness::compute(&f, &cfg, &t);
        let g = InterferenceGraph::build(&f, &cfg, &t, &lv, &vec![1; f.num_blocks()]);
        assert!(!g.crosses_call.contains(r.index()));
    }

    #[test]
    fn move_operands_recorded_not_interfering() {
        let mut fb = FunctionBuilder::new("m", 0);
        let b = fb.create_block(None);
        fb.switch_to(b);
        let x = fb.li(1);
        let y = fb.new_vreg();
        fb.mov(Reg::Virt(y), Reg::Virt(x));
        fb.ret(Some(Reg::Virt(y)));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let t = Target::default();
        let lv = Liveness::compute(&f, &cfg, &t);
        let g = InterferenceGraph::build(&f, &cfg, &t, &lv, &vec![1; f.num_blocks()]);
        assert!(!g.interferes(x.index(), y.index()));
        assert!(g.moves.contains(&(y.index() as u32, x.index() as u32)));
    }

    /// The word-parallel build and the reference build must agree on the
    /// whole interference relation, degrees, weights, moves, and
    /// call-crossing sets.
    #[test]
    fn fast_build_matches_reference() {
        let mut fb = FunctionBuilder::new("d", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        let c = fb.create_block(None);
        fb.switch_to(a);
        let x = fb.li(1);
        let y = fb.li(2);
        let m = fb.new_vreg();
        fb.mov(Reg::Virt(m), Reg::Virt(x));
        fb.branch(spillopt_ir::Cond::Lt, Reg::Virt(m), Reg::Virt(y), c, b);
        fb.switch_to(b);
        let _r = fb.call(Callee::External(0), &[]);
        let z = fb.bin(BinOp::Add, Reg::Virt(m), Reg::Virt(y));
        fb.ret(Some(Reg::Virt(z)));
        fb.switch_to(c);
        fb.ret(Some(Reg::Virt(y)));
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let t = Target::default();
        let lv = Liveness::compute(&f, &cfg, &t);
        let w = vec![3; f.num_blocks()];
        let fast = InterferenceGraph::build(&f, &cfg, &t, &lv, &w);
        let slow = InterferenceGraph::build_reference(&f, &cfg, &t, &lv, &w);
        assert_eq!(fast.num_nodes(), slow.num_nodes());
        for i in 0..fast.num_nodes() {
            for j in 0..fast.num_nodes() {
                assert_eq!(
                    fast.interferes(i, j),
                    slow.interferes(i, j),
                    "edge ({i},{j})"
                );
            }
            assert_eq!(fast.degree(i), slow.degree(i), "degree of {i}");
        }
        assert_eq!(fast.weight, slow.weight);
        assert_eq!(fast.moves, slow.moves);
        assert_eq!(fast.crosses_call, slow.crosses_call);
    }
}
