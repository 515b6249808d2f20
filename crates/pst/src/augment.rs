//! The augmented graph on which SESE regions are defined.
//!
//! Following Johnson, Pearson & Pingali (PLDI'94), the CFG is augmented
//! with a virtual END node fed by every return block, and a virtual
//! END -> entry edge that closes every entry-to-exit path into a cycle.
//! Cycle equivalence is computed on the *undirected* version of this
//! multigraph. [`crate::Pst::compute`] needs nothing more; the
//! dominance-based reference construction and [`crate::verify_pst`]
//! compute dominance between edges on a *split graph* in which every
//! augmented edge receives a mid-point node, so that edge
//! dominance/post-dominance reduce to plain node dominance of mid-points.

use spillopt_ir::analysis::dom::DomTree;
use spillopt_ir::{BlockId, Cfg, EdgeId, Graph};

/// Identity of an augmented edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AugEdgeRef {
    /// A real CFG edge.
    Cfg(EdgeId),
    /// The virtual edge from a return block to END.
    Ret(BlockId),
    /// The virtual END -> entry edge.
    Top,
}

/// One edge of the augmented graph.
#[derive(Clone, Copy, Debug)]
pub struct AugEdge {
    /// Source node (block index, or END).
    pub from: usize,
    /// Target node (block index, or END).
    pub to: usize,
    /// What the edge is.
    pub what: AugEdgeRef,
}

/// The augmented graph plus its split-graph dominator structures.
#[derive(Debug)]
pub struct AugGraph {
    /// Number of CFG blocks (END has index `num_blocks`).
    pub num_blocks: usize,
    /// All augmented edges; the `Top` edge is last.
    pub edges: Vec<AugEdge>,
    /// Dominator tree of the split graph, rooted at the entry block.
    pub doms: DomTree,
    /// Post-dominator tree of the split graph, rooted at END.
    pub pdoms: DomTree,
}

impl AugGraph {
    /// Builds the augmented graph of `cfg` and computes split-graph
    /// dominators and post-dominators with the reference dominator
    /// algorithm (post-dominators over a reversed clone).
    pub fn build(cfg: &Cfg) -> Self {
        let n = cfg.num_blocks();
        let end = n;
        let mut edges = Vec::with_capacity(cfg.num_edges() + cfg.exit_blocks().len() + 1);
        for (id, e) in cfg.edges() {
            edges.push(AugEdge {
                from: e.from.index(),
                to: e.to.index(),
                what: AugEdgeRef::Cfg(id),
            });
        }
        for &b in cfg.exit_blocks() {
            edges.push(AugEdge {
                from: b.index(),
                to: end,
                what: AugEdgeRef::Ret(b),
            });
        }
        edges.push(AugEdge {
            from: end,
            to: cfg.entry().index(),
            what: AugEdgeRef::Top,
        });

        // Split graph: nodes 0..=n are blocks + END; node n+1+i is the
        // mid-point of augmented edge i.
        let m = edges.len();
        let split_edges: Vec<(usize, usize)> = edges
            .iter()
            .enumerate()
            .flat_map(|(i, e)| [(e.from, n + 1 + i), (n + 1 + i, e.to)])
            .collect();
        let split = Graph::from_edges(n + 1 + m, &split_edges);
        let doms = DomTree::compute_reference(&split, cfg.entry().index());
        let pdoms = DomTree::compute_reference(&split.reversed(), end);

        AugGraph {
            num_blocks: n,
            edges,
            doms,
            pdoms,
        }
    }

    /// Split-graph node index of the mid-point of augmented edge `i`.
    pub fn mid(&self, i: usize) -> usize {
        self.num_blocks + 1 + i
    }

    /// Returns `true` if augmented edge `a` dominates augmented edge `b`
    /// (every path from procedure entry through `b` first crosses `a`).
    pub fn edge_dominates(&self, a: usize, b: usize) -> bool {
        self.doms.dominates(self.mid(a), self.mid(b))
    }

    /// Returns `true` if augmented edge `a` post-dominates augmented edge
    /// `b` (every path from `b` to procedure exit crosses `a`).
    pub fn edge_postdominates(&self, a: usize, b: usize) -> bool {
        self.pdoms.dominates(self.mid(a), self.mid(b))
    }

    /// Returns `true` if augmented edge `e` dominates block `b`.
    pub fn edge_dominates_block(&self, e: usize, b: usize) -> bool {
        self.doms.dominates(self.mid(e), b)
    }

    /// Returns `true` if augmented edge `e` post-dominates block `b`.
    pub fn edge_postdominates_block(&self, e: usize, b: usize) -> bool {
        self.pdoms.dominates(self.mid(e), b)
    }

    /// Dominator-tree depth of edge `e`'s mid-point (used to order a cycle
    /// equivalence class into its dominance chain).
    pub fn edge_depth(&self, e: usize) -> usize {
        self.doms.depth(self.mid(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_ir::{Cond, FunctionBuilder, Reg};

    /// A -> B -> {C,D} -> E -> ret, with the branch in B.
    fn sample() -> (spillopt_ir::Function, Vec<BlockId>) {
        let mut fb = FunctionBuilder::new("s", 0);
        let a = fb.create_block(Some("A"));
        let b = fb.create_block(Some("B"));
        let c = fb.create_block(Some("C"));
        let d = fb.create_block(Some("D"));
        let e = fb.create_block(Some("E"));
        fb.switch_to(a);
        fb.jump(b);
        fb.switch_to(b);
        let x = fb.li(0);
        fb.branch(Cond::Lt, Reg::Virt(x), Reg::Virt(x), d, c);
        fb.switch_to(c);
        fb.jump(e);
        fb.switch_to(d);
        fb.jump(e);
        fb.switch_to(e);
        fb.ret(None);
        (fb.finish(), vec![a, b, c, d, e])
    }

    #[test]
    fn builds_expected_edge_count() {
        let (f, _) = sample();
        let cfg = Cfg::compute(&f);
        let aug = AugGraph::build(&cfg);
        // 6 CFG edges + 1 return edge + top edge.
        assert_eq!(aug.edges.len(), cfg.num_edges() + 1 + 1);
        assert!(matches!(aug.edges.last().unwrap().what, AugEdgeRef::Top));
    }

    #[test]
    fn edge_dominance_matches_intuition() {
        let (f, blocks) = sample();
        let cfg = Cfg::compute(&f);
        let aug = AugGraph::build(&cfg);
        let (a, b, c, _d, e) = (blocks[0], blocks[1], blocks[2], blocks[3], blocks[4]);
        let find = |from: BlockId, to: BlockId| {
            let id = cfg.edge_between(from, to).unwrap();
            aug.edges
                .iter()
                .position(|x| x.what == AugEdgeRef::Cfg(id))
                .unwrap()
        };
        let ab = find(a, b);
        let bc = find(b, c);
        let ce = find(c, e);
        // A->B dominates everything downstream.
        assert!(aug.edge_dominates(ab, bc));
        assert!(aug.edge_dominates(ab, ce));
        assert!(!aug.edge_dominates(bc, ab));
        // C->E does not dominate B->C.
        assert!(!aug.edge_dominates(ce, bc));
        // B->C postdominates nothing upstream of the branch (D path
        // bypasses it)...
        assert!(!aug.edge_postdominates(bc, ab));
        // ...but C->E postdominates B->C.
        assert!(aug.edge_postdominates(ce, bc));
        // Edge-block relations.
        assert!(aug.edge_dominates_block(ab, b.index()));
        assert!(aug.edge_dominates_block(ab, e.index()));
        assert!(!aug.edge_dominates_block(bc, e.index()) || cfg.num_blocks() == 0);
        // Depth increases along the chain.
        assert!(aug.edge_depth(ab) < aug.edge_depth(bc));
    }

    #[test]
    fn return_edge_postdominates_all() {
        let (f, blocks) = sample();
        let cfg = Cfg::compute(&f);
        let aug = AugGraph::build(&cfg);
        let ret_edge = aug
            .edges
            .iter()
            .position(|x| matches!(x.what, AugEdgeRef::Ret(_)))
            .unwrap();
        for b in &blocks {
            assert!(aug.edge_postdominates_block(ret_edge, b.index()));
        }
    }
}
