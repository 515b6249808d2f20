//! Derived CFG structures, computed once per function and reused by
//! every analysis and placement technique.
//!
//! The [`Cfg`] snapshot stores its adjacency as edge ids, and every pass
//! that needs an order, an exit test, or an edge classification would
//! recompute it locally. [`DerivedCfg`] flattens all of that into dense,
//! index-addressed tables:
//!
//! * predecessor/successor adjacency in CSR form (one offsets array, one
//!   contiguous edge-id array each);
//! * reverse postorder and postorder over the reachable blocks;
//! * per-edge classification bits (critical, jump, needs-jump-block) and
//!   flat endpoint arrays;
//! * a per-block exit flag (terminator is a return).
//!
//! Everything here is a pure function of the CFG; the driver's analysis
//! cache computes one `DerivedCfg` per function and shares it across the
//! profiler, the bit-parallel solver, the hierarchical traversal, and
//! the validator.

use crate::bitset::DenseBitSet;
use crate::cfg::{Cfg, EdgeKind};
use crate::ids::{BlockId, EdgeId};

/// Compressed-sparse-row adjacency: the edge ids of block `b` occupy
/// `items[offsets[b] .. offsets[b + 1]]`.
#[derive(Clone, Debug)]
pub struct Csr {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// The edge ids adjacent to block `b`.
    pub fn row(&self, b: usize) -> &[u32] {
        &self.items[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }

    /// Number of rows (blocks).
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Dense, flat derived structures of one [`Cfg`] snapshot.
#[derive(Clone, Debug)]
pub struct DerivedCfg {
    /// Successor edge ids per block, CSR.
    pub succ: Csr,
    /// Predecessor edge ids per block, CSR.
    pub pred: Csr,
    /// Edge sources, indexed by [`EdgeId`].
    pub edge_from: Vec<u32>,
    /// Edge targets, indexed by [`EdgeId`].
    pub edge_to: Vec<u32>,
    /// Blocks in reverse postorder from the entry (reachable blocks
    /// only).
    pub rpo: Vec<u32>,
    /// Per-edge: the edge is critical (see [`Cfg::is_critical`]).
    pub critical: DenseBitSet,
    /// Per-edge: spill code here needs a jump block with an extra jump
    /// (see [`Cfg::needs_jump_block`]).
    pub needs_jump: DenseBitSet,
    /// Per-edge: the edge is a jump edge (taken branch or non-adjacent
    /// jump).
    pub jump: DenseBitSet,
    /// Per-block: the block ends in a return.
    pub is_exit: Vec<bool>,
}

impl DerivedCfg {
    /// Computes every derived table of `cfg` in O(blocks + edges).
    pub fn compute(cfg: &Cfg) -> Self {
        let n = cfg.num_blocks();
        let m = cfg.num_edges();

        let mut edge_from = Vec::with_capacity(m);
        let mut edge_to = Vec::with_capacity(m);
        for (_, e) in cfg.edges() {
            edge_from.push(e.from.index() as u32);
            edge_to.push(e.to.index() as u32);
        }

        let mut succ_offsets = Vec::with_capacity(n + 1);
        let mut succ_items = Vec::with_capacity(m);
        let mut pred_offsets = Vec::with_capacity(n + 1);
        let mut pred_items = Vec::with_capacity(m);
        succ_offsets.push(0);
        pred_offsets.push(0);
        for bi in 0..n {
            let b = BlockId::from_index(bi);
            for &e in cfg.succ_edges(b) {
                succ_items.push(e.index() as u32);
            }
            succ_offsets.push(succ_items.len() as u32);
            for &e in cfg.pred_edges(b) {
                pred_items.push(e.index() as u32);
            }
            pred_offsets.push(pred_items.len() as u32);
        }
        let succ = Csr {
            offsets: succ_offsets,
            items: succ_items,
        };
        let pred = Csr {
            offsets: pred_offsets,
            items: pred_items,
        };

        // Reverse postorder via an iterative DFS over the CSR.
        let mut rpo = Vec::with_capacity(n);
        {
            let mut seen = vec![false; n];
            let mut stack: Vec<(u32, u32)> = vec![(cfg.entry().index() as u32, 0)];
            seen[cfg.entry().index()] = true;
            while let Some(&mut (b, ref mut ci)) = stack.last_mut() {
                let row = succ.row(b as usize);
                if (*ci as usize) < row.len() {
                    let e = row[*ci as usize] as usize;
                    *ci += 1;
                    let t = edge_to[e] as usize;
                    if !seen[t] {
                        seen[t] = true;
                        stack.push((t as u32, 0));
                    }
                } else {
                    rpo.push(b);
                    stack.pop();
                }
            }
            rpo.reverse();
        }

        let mut critical = DenseBitSet::new(m);
        let mut needs_jump = DenseBitSet::new(m);
        let mut jump = DenseBitSet::new(m);
        for (id, e) in cfg.edges() {
            let i = id.index();
            if e.kind == EdgeKind::Jump {
                jump.insert(i);
            }
            if cfg.is_critical(id) {
                critical.insert(i);
                if e.kind == EdgeKind::Jump {
                    needs_jump.insert(i);
                }
            }
        }

        let mut is_exit = vec![false; n];
        for &b in cfg.exit_blocks() {
            is_exit[b.index()] = true;
        }

        DerivedCfg {
            succ,
            pred,
            edge_from,
            edge_to,
            rpo,
            critical,
            needs_jump,
            jump,
            is_exit,
        }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.is_exit.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edge_from.len()
    }

    /// The blocks of [`DerivedCfg::rpo`] in postorder (successors before
    /// predecessors) — the fast-converging order for backward dataflow.
    pub fn postorder(&self) -> impl DoubleEndedIterator<Item = usize> + '_ {
        self.rpo.iter().rev().map(|&b| b as usize)
    }

    /// `true` if `e` needs a jump block (critical jump edge).
    pub fn edge_needs_jump(&self, e: EdgeId) -> bool {
        self.needs_jump.contains(e.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ids::Reg;
    use crate::inst::Cond;

    #[test]
    fn tables_agree_with_cfg_queries() {
        // Diamond with a loop-back edge to create critical jump edges.
        let mut fb = FunctionBuilder::new("d", 0);
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
        let derived = DerivedCfg::compute(&cfg);

        assert_eq!(derived.num_blocks(), cfg.num_blocks());
        assert_eq!(derived.num_edges(), cfg.num_edges());
        for (id, edge) in cfg.edges() {
            let i = id.index();
            assert_eq!(derived.edge_from[i] as usize, edge.from.index());
            assert_eq!(derived.edge_to[i] as usize, edge.to.index());
            assert_eq!(derived.critical.contains(i), cfg.is_critical(id));
            assert_eq!(derived.needs_jump.contains(i), cfg.needs_jump_block(id));
            assert_eq!(derived.jump.contains(i), edge.kind == EdgeKind::Jump);
            assert_eq!(derived.edge_needs_jump(id), cfg.needs_jump_block(id));
        }
        for bi in 0..cfg.num_blocks() {
            let blk = BlockId::from_index(bi);
            let succs: Vec<usize> = cfg.succ_edges(blk).iter().map(|e| e.index()).collect();
            let got: Vec<usize> = derived.succ.row(bi).iter().map(|&e| e as usize).collect();
            assert_eq!(succs, got);
            let preds: Vec<usize> = cfg.pred_edges(blk).iter().map(|e| e.index()).collect();
            let got: Vec<usize> = derived.pred.row(bi).iter().map(|&e| e as usize).collect();
            assert_eq!(preds, got);
            assert_eq!(derived.is_exit[bi], cfg.exit_blocks().contains(&blk));
        }
        assert_eq!(derived.succ.num_rows(), cfg.num_blocks());

        // RPO starts at the entry, covers every reachable block, and
        // postorder() is its exact reverse.
        assert_eq!(derived.rpo[0] as usize, cfg.entry().index());
        assert_eq!(derived.rpo.len(), cfg.reachable_blocks().count());
        let po: Vec<usize> = derived.postorder().collect();
        let mut rev = po.clone();
        rev.reverse();
        assert_eq!(
            rev,
            derived.rpo.iter().map(|&b| b as usize).collect::<Vec<_>>()
        );
    }
}
