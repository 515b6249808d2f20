//! Control-flow graph snapshot: edges with fall-through/jump
//! classification.
//!
//! The paper's jump-edge cost model hinges on the distinction between
//! *jump edges* ("an edge initiated by a control flow instruction whose
//! target is not the next sequential instruction") and fall-through edges,
//! and on whether an edge is *critical* (source has multiple successors and
//! target has multiple predecessors): spill code on a critical jump edge
//! requires a new jump block containing an extra jump instruction, while
//! critical fall-through edges can host a layout-inserted block with no
//! extra jump, and non-critical edges can host code inside an existing
//! block.

use crate::function::Function;
use crate::ids::{BlockId, EdgeId};
use crate::inst::InstKind;

/// Classification of a CFG edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EdgeKind {
    /// Control continues to the next block in layout (branch not-taken,
    /// implicit fall-through, or a jump to the adjacent block).
    Fall,
    /// Control transfers via a taken branch or a jump to a non-adjacent
    /// block.
    Jump,
}

/// Which successor slot of the terminator produced an edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SuccPos {
    /// The only successor (unconditional jump or implicit fall-through).
    Only,
    /// The taken target of a conditional branch.
    Taken,
    /// The fall-through target of a conditional branch.
    NotTaken,
}

/// A directed CFG edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CfgEdge {
    /// Source block.
    pub from: BlockId,
    /// Destination block.
    pub to: BlockId,
    /// Fall-through or jump.
    pub kind: EdgeKind,
    /// Which successor slot of `from`'s terminator this edge is.
    pub pos: SuccPos,
}

/// An immutable CFG snapshot of a [`Function`].
///
/// Edge ids are stable only for this snapshot; any CFG edit invalidates
/// them (recompute with [`Cfg::compute`]). Two snapshots are equal when
/// they have the same edges (ends, kinds, successor slots, ids), the
/// same entry and the same exit blocks.
///
/// Adjacency is stored in compressed sparse row (CSR) form: per
/// direction, one offset array over the blocks and one flat edge-id
/// array, so a snapshot is a fixed handful of allocations whatever its
/// block count. Edges are numbered block by block in successor-slot
/// order, so each block's successors are a contiguous edge-id range;
/// each block's predecessors are listed in ascending edge id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cfg {
    edges: Vec<CfgEdge>,
    /// Block `b`'s successor edges are `succs[succ_off[b]..succ_off[b + 1]]`.
    succ_off: Vec<u32>,
    succs: Vec<EdgeId>,
    /// Block `b`'s predecessor edges are `preds[pred_off[b]..pred_off[b + 1]]`.
    pred_off: Vec<u32>,
    preds: Vec<EdgeId>,
    entry: BlockId,
    exit_blocks: Vec<BlockId>,
}

impl Cfg {
    /// Computes the CFG of `func`.
    ///
    /// # Panics
    ///
    /// Panics if the function has no blocks. Malformed functions (checked
    /// by [`verify_function`](crate::verify::verify_function)) may produce
    /// a malformed CFG; verify first.
    pub fn compute(func: &Function) -> Self {
        let n = func.num_blocks();
        let m = Cfg::count_edges(func);
        let mut edges = Vec::with_capacity(m);
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut exit_blocks = Vec::new();
        succ_off.push(0);
        // Each block's layout successor from one pass over the layout
        // (`NONE` for the last block); the buffer is then reused for
        // the predecessor offsets.
        const NONE: u32 = u32::MAX;
        let mut layout_next = vec![NONE; n + 1];
        for pair in func.layout().windows(2) {
            layout_next[pair[0].index()] = pair[1].index() as u32;
        }

        for b in func.block_ids() {
            let block = func.block(b);
            let next = match layout_next[b.index()] {
                NONE => None,
                i => Some(BlockId::from_index(i as usize)),
            };
            let mut push = |to: BlockId, kind: EdgeKind, pos: SuccPos| {
                edges.push(CfgEdge {
                    from: b,
                    to,
                    kind,
                    pos,
                });
            };
            match block.terminator().map(|t| &t.kind) {
                Some(InstKind::Jump { target }) => {
                    // A jump to the adjacent block reaches "the next
                    // sequential instruction": not a jump edge by the
                    // paper's definition.
                    let kind = if next == Some(*target) {
                        EdgeKind::Fall
                    } else {
                        EdgeKind::Jump
                    };
                    push(*target, kind, SuccPos::Only);
                }
                Some(InstKind::Branch {
                    taken, fallthrough, ..
                }) => {
                    push(*taken, EdgeKind::Jump, SuccPos::Taken);
                    push(*fallthrough, EdgeKind::Fall, SuccPos::NotTaken);
                }
                Some(InstKind::Return { .. }) => {
                    exit_blocks.push(b);
                }
                Some(_) => unreachable!("non-terminator returned by terminator()"),
                None => {
                    let target = next.expect("fall-through block must not be last in layout");
                    push(target, EdgeKind::Fall, SuccPos::Only);
                }
            }
            succ_off.push(edges.len() as u32);
        }

        // Successor lists are the edge ids in order. Predecessors by one
        // counting pass: `pred_off[b]` first counts `b`'s in-edges, then
        // is made `b`'s end by a running sum, and each edge, taken in
        // descending id, moves its target's end down one slot — leaving
        // every block's list in ascending edge id and `pred_off[b]` at
        // its start.
        let succs: Vec<EdgeId> = (0..m).map(EdgeId::from_index).collect();
        let mut pred_off = layout_next;
        pred_off.fill(0);
        for e in &edges {
            pred_off[e.to.index()] += 1;
        }
        let mut end = 0;
        for off in &mut pred_off {
            end += *off;
            *off = end;
        }
        let mut preds = vec![EdgeId::from_index(0); m];
        for (i, e) in edges.iter().enumerate().rev() {
            let slot = &mut pred_off[e.to.index()];
            *slot -= 1;
            preds[*slot as usize] = EdgeId::from_index(i);
        }

        Cfg {
            edges,
            succ_off,
            succs,
            pred_off,
            preds,
            entry: func.entry(),
            exit_blocks,
        }
    }

    /// The number of edges [`Cfg::compute`] creates for `func`, counted
    /// without building the CFG: a jump has one successor edge, a
    /// conditional branch two, a return none, and a fall-through block
    /// one.
    pub fn count_edges(func: &Function) -> usize {
        func.block_ids()
            .map(|b| match func.block(b).terminator().map(|t| &t.kind) {
                Some(InstKind::Jump { .. }) | None => 1,
                Some(InstKind::Branch { .. }) => 2,
                Some(InstKind::Return { .. }) => 0,
                Some(_) => unreachable!("non-terminator returned by terminator()"),
            })
            .sum()
    }

    /// Returns the entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Returns the blocks ending in `Return`, in block order.
    pub fn exit_blocks(&self) -> &[BlockId] {
        &self.exit_blocks
    }

    /// Returns the number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.succ_off.len() - 1
    }

    /// Returns the number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns the edge with the given id.
    pub fn edge(&self, id: EdgeId) -> &CfgEdge {
        &self.edges[id.index()]
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::from_index)
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &CfgEdge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::from_index(i), e))
    }

    /// Returns the outgoing edge ids of `b`.
    pub fn succ_edges(&self, b: BlockId) -> &[EdgeId] {
        let b = b.index();
        &self.succs[self.succ_off[b] as usize..self.succ_off[b + 1] as usize]
    }

    /// Returns the incoming edge ids of `b`.
    pub fn pred_edges(&self, b: BlockId) -> &[EdgeId] {
        let b = b.index();
        &self.preds[self.pred_off[b] as usize..self.pred_off[b + 1] as usize]
    }

    /// Iterates over the successor blocks of `b`.
    pub fn succ_blocks(&self, b: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        self.succ_edges(b).iter().map(|&e| self.edge(e).to)
    }

    /// Iterates over the predecessor blocks of `b`.
    pub fn pred_blocks(&self, b: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        self.pred_edges(b).iter().map(|&e| self.edge(e).from)
    }

    /// Returns the number of successors of `b`.
    pub fn num_succs(&self, b: BlockId) -> usize {
        self.succ_edges(b).len()
    }

    /// Returns the number of predecessors of `b`.
    pub fn num_preds(&self, b: BlockId) -> usize {
        self.pred_edges(b).len()
    }

    /// Postorder over the blocks reachable from the entry, as block
    /// indices (an allocation-lean DFS following successor edges in
    /// order; no intermediate graph). The backward liveness fixpoints
    /// iterate in this order, successors first.
    pub fn reachable_postorder(&self) -> Vec<usize> {
        let n = self.num_blocks();
        let mut seen = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(n);
        stack.push((self.entry.index(), 0));
        seen[self.entry.index()] = true;
        while let Some(&mut (b, ref mut ci)) = stack.last_mut() {
            let succs = self.succ_edges(BlockId::from_index(b));
            if *ci < succs.len() {
                let t = self.edge(succs[*ci]).to.index();
                *ci += 1;
                if !seen[t] {
                    seen[t] = true;
                    stack.push((t, 0));
                }
            } else {
                order.push(b);
                stack.pop();
            }
        }
        order
    }

    /// Returns the unique edge from `from` to `to`, if it exists.
    ///
    /// The IR forbids parallel edges (a branch with equal targets must be a
    /// jump), so the result is unique.
    pub fn edge_between(&self, from: BlockId, to: BlockId) -> Option<EdgeId> {
        self.succ_edges(from)
            .iter()
            .copied()
            .find(|&e| self.edge(e).to == to)
    }

    /// Returns `true` if the edge is critical: its source has multiple
    /// successors and its target multiple predecessors. Spill code cannot
    /// be sunk into either endpoint of a critical edge.
    ///
    /// The procedure entry counts as an implicit predecessor of the entry
    /// block: an edge looping back to the entry block can never sink its
    /// code into the entry's top (that code would also execute on the
    /// initial entry), so such edges are critical even with a single
    /// explicit predecessor.
    pub fn is_critical(&self, e: EdgeId) -> bool {
        let edge = self.edge(e);
        self.num_succs(edge.from) > 1 && (self.num_preds(edge.to) > 1 || edge.to == self.entry())
    }

    /// Returns `true` if placing code on this edge requires a new jump
    /// block *with an extra jump instruction*: exactly the critical jump
    /// edges. (Critical fall-through edges get a layout-inserted block
    /// with no extra jump.)
    pub fn needs_jump_block(&self, e: EdgeId) -> bool {
        self.is_critical(e) && self.edge(e).kind == EdgeKind::Jump
    }

    /// Returns the blocks reachable from the entry.
    pub fn reachable_blocks(&self) -> crate::bitset::DenseBitSet {
        let mut seen = crate::bitset::DenseBitSet::new(self.num_blocks());
        let mut stack = vec![self.entry];
        seen.insert(self.entry.index());
        while let Some(b) = stack.pop() {
            for s in self.succ_blocks(b) {
                if seen.insert(s.index()) {
                    stack.push(s);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ids::Reg;
    use crate::inst::Cond;

    /// Builds the diamond
    /// ```text
    ///   A -> B (fall), A -> C (jump/taken)
    ///   B -> D (jump), C -> D (fall)
    /// ```
    fn diamond() -> (Function, BlockId, BlockId, BlockId, BlockId) {
        let mut fb = FunctionBuilder::new("diamond", 0);
        let a = fb.create_block(Some("A"));
        let b = fb.create_block(Some("B"));
        let c = fb.create_block(Some("C"));
        let d = fb.create_block(Some("D"));
        fb.switch_to(a);
        let x = fb.li(1);
        let y = fb.li(2);
        fb.branch(Cond::Lt, Reg::Virt(x), Reg::Virt(y), c, b);
        fb.switch_to(b);
        fb.jump(d);
        fb.switch_to(c);
        // C falls through to D.
        fb.switch_to(d);
        fb.ret(None);
        (fb.finish(), a, b, c, d)
    }

    use crate::function::Function;

    #[test]
    fn edge_kinds_and_positions() {
        let (f, a, b, c, d) = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.num_edges(), 4);
        let ab = cfg.edge_between(a, b).unwrap();
        let ac = cfg.edge_between(a, c).unwrap();
        let bd = cfg.edge_between(b, d).unwrap();
        let cd = cfg.edge_between(c, d).unwrap();
        assert_eq!(cfg.edge(ab).kind, EdgeKind::Fall);
        assert_eq!(cfg.edge(ab).pos, SuccPos::NotTaken);
        assert_eq!(cfg.edge(ac).kind, EdgeKind::Jump);
        assert_eq!(cfg.edge(ac).pos, SuccPos::Taken);
        assert_eq!(cfg.edge(bd).kind, EdgeKind::Jump);
        assert_eq!(cfg.edge(cd).kind, EdgeKind::Fall);
        assert_eq!(cfg.exit_blocks(), &[d]);
        assert_eq!(cfg.entry(), a);
    }

    #[test]
    fn criticality() {
        let (f, a, b, c, d) = diamond();
        let cfg = Cfg::compute(&f);
        // A has 2 succs but B and C each have 1 pred: not critical.
        assert!(!cfg.is_critical(cfg.edge_between(a, b).unwrap()));
        assert!(!cfg.is_critical(cfg.edge_between(a, c).unwrap()));
        // B and C have 1 succ each: not critical.
        assert!(!cfg.is_critical(cfg.edge_between(b, d).unwrap()));
        assert!(!cfg.is_critical(cfg.edge_between(c, d).unwrap()));
        assert!(!cfg.needs_jump_block(cfg.edge_between(b, d).unwrap()));
    }

    #[test]
    fn jump_to_adjacent_block_is_fall() {
        let mut fb = FunctionBuilder::new("seq", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        fb.switch_to(a);
        fb.jump(b);
        fb.switch_to(b);
        fb.ret(None);
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        assert_eq!(
            cfg.edge(cfg.edge_between(a, b).unwrap()).kind,
            EdgeKind::Fall
        );
    }

    #[test]
    fn preds_succs_counts() {
        let (f, a, _b, _c, d) = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.num_succs(a), 2);
        assert_eq!(cfg.num_preds(a), 0);
        assert_eq!(cfg.num_preds(d), 2);
        assert_eq!(cfg.num_succs(d), 0);
        assert_eq!(cfg.succ_blocks(a).count(), 2);
    }

    #[test]
    fn reachability() {
        let (f, ..) = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.reachable_blocks().count(), 4);
    }
}
