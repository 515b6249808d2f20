//! The Program Structure Tree over maximal SESE regions.

use crate::augment::{AugEdgeRef, AugGraph};
use crate::cycle_equiv::spanning_tree_labels;
use crate::regions::SeseChains;
use spillopt_ir::{BlockId, Cfg, DenseBitSet, EdgeId};

/// Identifier of a PST region. The root region has id 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RegionId(u32);

impl RegionId {
    /// Creates a region id from a dense index.
    pub fn from_index(i: usize) -> Self {
        RegionId(u32::try_from(i).expect("region index overflow"))
    }

    /// Returns the dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// One boundary (entry or exit) of a PST region, in terms a placement pass
/// can realize physically.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RegionBoundary {
    /// The procedure entry: realized at the top of the entry block.
    /// (Root region entry only.)
    ProcEntry,
    /// The procedure exits: realized at the bottom of every return block.
    /// (Root region exit only.)
    ProcExits,
    /// A real CFG edge.
    CfgEdge(EdgeId),
    /// The virtual edge from return block `b` to END: realized at the
    /// bottom of `b`, before its return.
    ReturnEdge(BlockId),
}

/// A node of the PST: a maximal SESE region (or the root = the whole
/// procedure).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Region {
    /// This region's id.
    pub id: RegionId,
    /// Parent region (`None` for the root).
    pub parent: Option<RegionId>,
    /// Child regions, ordered deterministically.
    pub children: Vec<RegionId>,
    /// Entry boundary.
    pub entry: RegionBoundary,
    /// Exit boundary.
    pub exit: RegionBoundary,
    /// The blocks strictly between the boundaries (for the root: all
    /// blocks).
    pub blocks: DenseBitSet,
    /// Depth in the tree (root = 0).
    pub depth: usize,
}

/// The Program Structure Tree of a function: the root region (whole
/// procedure) plus every maximal SESE region, nested by containment.
///
/// Regions live in a flat arena numbered in **preorder**: the root is
/// `RegionId(0)` and every child's id is greater than its parent's.
/// Iterating ids in reverse ([`Pst::bottom_up`]) is therefore a
/// children-first traversal over contiguous memory, and dense per-region
/// side tables can be indexed by `RegionId` without hashing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Pst {
    regions: Vec<Region>,
    block_region: Vec<RegionId>,
    postorder: Vec<RegionId>,
}

impl Pst {
    /// Computes the PST of a CFG the way Johnson, Pearson & Pingali
    /// (PLDI'94) do, from one iterative DFS of the augmented graph: the
    /// CFG edges, a return edge per exit block into a virtual END, and
    /// END -> entry. The IR verifier's reachability rules guarantee that
    /// the DFS from the entry reaches every block and END; on a CFG the
    /// verifier rejects, the tree is unspecified and the build may
    /// panic. That one DFS gives:
    ///
    /// - **cycle equivalence** — its tree is the spanning tree of the
    ///   XOR cycle-space labelling ([`spanning_tree_labels`]); sorting
    ///   the edges by label groups the classes;
    /// - **boundaries** — a class's edges are examined in dominance
    ///   order, so the first examined edge of a class with ≥ 2 members
    ///   is its maximal region's entry and the last its exit (END ->
    ///   entry closes the cycle space and is never a boundary);
    /// - **nesting** — walking the tree in preorder, crossing a region's
    ///   entry opens the region inside the current one and crossing its
    ///   exit returns to the parent, which places every block in its
    ///   innermost region.
    ///
    /// Block sets are the bottom-up union of the innermost assignment.
    /// Everything is linear in the augmented graph except the label sort
    /// and the per-region block sets.
    pub fn compute(cfg: &Cfg) -> Self {
        const NONE: u32 = u32::MAX;
        let n = cfg.num_blocks();
        let m = cfg.num_edges();
        let exits = cfg.exit_blocks();
        let (end, top) = (n, m + exits.len());
        let mut ends: Vec<(usize, usize)> = Vec::with_capacity(top + 1);
        ends.extend(cfg.edges().map(|(_, e)| (e.from.index(), e.to.index())));
        ends.extend(exits.iter().map(|b| (b.index(), end)));
        ends.push((end, cfg.entry().index()));
        // The `i`-th out-edge of a node: a block's CFG successor edges,
        // a return block's return edge, END's edge to the entry.
        let out_edge = |u: usize, i: usize| -> Option<usize> {
            if u == end {
                return (i == 0).then_some(top);
            }
            let succs = cfg.succ_edges(BlockId::from_index(u));
            if succs.is_empty() && i == 0 {
                let k = exits.binary_search(&BlockId::from_index(u));
                return Some(m + k.expect("a block without successors returns"));
            }
            succs.get(i).map(|e| e.index())
        };

        // The DFS: tree edges, node preorder, edge examination rank.
        let mut parent_edge: Vec<Option<usize>> = vec![None; n + 1];
        let mut visited = vec![false; n + 1];
        let mut rank = vec![NONE; top + 1];
        let mut preorder = Vec::with_capacity(n + 1);
        let mut stack = vec![(cfg.entry().index(), 0usize)];
        visited[cfg.entry().index()] = true;
        preorder.push(cfg.entry().index());
        let mut examined = 0u32;
        while let Some(&mut (u, ref mut i)) = stack.last_mut() {
            let Some(e) = out_edge(u, *i) else {
                stack.pop();
                continue;
            };
            *i += 1;
            rank[e] = examined;
            examined += 1;
            let v = ends[e].1;
            if !visited[v] {
                visited[v] = true;
                parent_edge[v] = Some(e);
                preorder.push(v);
                stack.push((v, 0));
            }
        }
        debug_assert_eq!(preorder.len(), n + 1, "the DFS must reach every node");

        // Cycle-equivalence classes in dominance order: every edge but
        // END -> entry, sorted by label and then by examination rank.
        let labels = spanning_tree_labels(n + 1, &ends, &parent_edge, &preorder);
        let mut by_class: Vec<usize> = (0..top).collect();
        by_class.sort_unstable_by_key(|&e| (labels[e], rank[e]));
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut entry_of = vec![NONE; top];
        let mut exit_of = vec![NONE; top];
        for class in by_class.chunk_by(|&a, &b| labels[a] == labels[b]) {
            if let [first, .., last] = *class {
                entry_of[first] = pairs.len() as u32;
                exit_of[last] = pairs.len() as u32;
                pairs.push((first, last));
            }
        }

        // The cursor walk. Regions are numbered as their entries are
        // crossed, so every parent precedes its children.
        let boundary = |e: usize| {
            if e < m {
                RegionBoundary::CfgEdge(EdgeId::from_index(e))
            } else {
                RegionBoundary::ReturnEdge(exits[e - m])
            }
        };
        let mut regions = vec![root_region(n)];
        let mut opened: Vec<Option<RegionId>> = vec![None; pairs.len()];
        let mut region_of = vec![RegionId(0); n + 1];
        for &v in &preorder[1..] {
            let e = parent_edge[v].expect("non-root nodes have a tree edge");
            let mut cursor = region_of[ends[e].0];
            if exit_of[e] != NONE {
                let r = opened[exit_of[e] as usize].expect("entries precede exits");
                debug_assert_eq!(r, cursor, "a region is left only from its own blocks");
                cursor = regions[r.index()].parent.expect("non-root has parent");
            } else if entry_of[e] != NONE {
                let k = entry_of[e] as usize;
                let id = RegionId::from_index(regions.len());
                regions.push(Region {
                    id,
                    parent: Some(cursor),
                    children: Vec::new(),
                    entry: boundary(pairs[k].0),
                    exit: boundary(pairs[k].1),
                    blocks: DenseBitSet::new(n),
                    depth: 0,
                });
                opened[k] = Some(id);
                cursor = id;
            }
            region_of[v] = cursor;
        }
        debug_assert!(
            opened.iter().all(Option::is_some),
            "every entry is a tree edge"
        );

        // Block sets: each region's own blocks, then children unioned
        // into parents back to front.
        region_of.truncate(n);
        for (b, r) in region_of.iter().enumerate() {
            regions[r.index()].blocks.insert(b);
        }
        for r in (1..regions.len()).rev() {
            let (lo, hi) = regions.split_at_mut(r);
            let p = hi[0].parent.expect("non-root has parent").index();
            lo[p].blocks.union_with(&hi[0].blocks);
        }
        let postorder = link(&mut regions);
        Pst {
            regions,
            block_region: region_of,
            postorder,
        }
        .into_preorder()
    }

    /// Renumbers this tree into the canonical arena [`Pst::compute`]
    /// builds, keeping its child order: every region moves to its
    /// preorder slot so that `RegionId(i)` *is* preorder position `i`
    /// (root = 0, every child id greater than its parent's). Bottom-up
    /// passes then walk the region array back to front — contiguous
    /// memory, no hash-keyed bookkeeping — and dense per-region side
    /// tables can be indexed by `RegionId` directly. Turns
    /// [`Pst::compute_reference`]'s discovery numbering into exactly
    /// `compute`'s tree.
    pub fn into_preorder(self) -> Pst {
        let mut preorder = Vec::with_capacity(self.regions.len());
        let mut stack = vec![self.root()];
        while let Some(r) = stack.pop() {
            preorder.push(r);
            stack.extend(self.regions[r.index()].children.iter().rev());
        }
        let mut new_id = vec![RegionId(0); self.regions.len()];
        for (new, old) in preorder.iter().enumerate() {
            new_id[old.index()] = RegionId::from_index(new);
        }
        let mut slots: Vec<Option<Region>> = self.regions.into_iter().map(Some).collect();
        let regions = preorder
            .iter()
            .map(|old| {
                let mut r = slots[old.index()].take().expect("each region moved once");
                r.id = new_id[r.id.index()];
                r.parent = r.parent.map(|p| new_id[p.index()]);
                for c in &mut r.children {
                    *c = new_id[c.index()];
                }
                r
            })
            .collect();
        let renumber = |ids: Vec<RegionId>| ids.into_iter().map(|r| new_id[r.index()]).collect();
        Pst {
            regions,
            block_region: renumber(self.block_region),
            postorder: renumber(self.postorder),
        }
    }

    /// The dominance-based construction: the test oracle for
    /// [`Pst::compute`] and the PST of the frozen pipeline the
    /// differential tests compare against. Boundaries come from
    /// split-graph dominator trees ([`AugGraph`], [`SeseChains`]); a
    /// block belongs to region `(a, b)` when `a` dominates it, `b`
    /// post-dominates it, and it is reachable from `a`'s head without
    /// crossing `b`; the parent of a region is its smallest strict
    /// superset. Regions keep discovery numbering, so region *ids* differ
    /// from `compute`'s and only numbering-independent consumers (all
    /// placement passes) may mix the two; [`Pst::into_preorder`] turns
    /// this tree into exactly `compute`'s.
    pub fn compute_reference(cfg: &Cfg) -> Self {
        let aug = AugGraph::build(cfg);
        let chains = SeseChains::compute(&aug);
        let maximal = chains.maximal_regions();
        let n = cfg.num_blocks();

        let boundary_of = |edge_idx: usize| match aug.edges[edge_idx].what {
            AugEdgeRef::Cfg(e) => RegionBoundary::CfgEdge(e),
            AugEdgeRef::Ret(b) => RegionBoundary::ReturnEdge(b),
            AugEdgeRef::Top => unreachable!("top edge is never a boundary"),
        };

        let mut regions = vec![root_region(n)];

        for pair in &maximal {
            // The blocks reachable from the entry's head without
            // crossing the exit (a return-edge exit is not a CFG edge,
            // so no CFG path crosses it).
            let mut reach = DenseBitSet::new(n);
            let mut work = vec![aug.edges[pair.entry].to];
            while let Some(b) = work.pop() {
                if !reach.insert(b) {
                    continue;
                }
                for &e in cfg.succ_edges(BlockId::from_index(b)) {
                    if aug.edges[pair.exit].what != AugEdgeRef::Cfg(e) {
                        work.push(cfg.edge(e).to.index());
                    }
                }
            }
            let mut blocks = DenseBitSet::new(n);
            for b in 0..n {
                if aug.edge_dominates_block(pair.entry, b)
                    && aug.edge_postdominates_block(pair.exit, b)
                    && reach.contains(b)
                {
                    blocks.insert(b);
                }
            }
            debug_assert!(!blocks.is_empty(), "maximal SESE region with no blocks");
            let id = RegionId(regions.len() as u32);
            regions.push(Region {
                id,
                parent: None,
                children: Vec::new(),
                entry: boundary_of(pair.entry),
                exit: boundary_of(pair.exit),
                blocks,
                depth: 0,
            });
        }

        // Parent = smallest strict superset (the first one on ties).
        let counts: Vec<usize> = regions.iter().map(|r| r.blocks.count()).collect();
        for i in 1..regions.len() {
            let parent = (0..regions.len())
                .filter(|&j| {
                    counts[j] > counts[i] && regions[i].blocks.is_subset(&regions[j].blocks)
                })
                .min_by_key(|&j| counts[j])
                .unwrap_or(0);
            regions[i].parent = Some(RegionId::from_index(parent));
        }
        let postorder = link(&mut regions);

        // Innermost region per block: smallest containing region wins.
        let mut block_region = vec![RegionId(0); n];
        let mut assigned = vec![false; n];
        let mut by_size: Vec<usize> = (0..regions.len()).collect();
        by_size.sort_by_key(|&i| counts[i]);
        for &i in &by_size {
            for b in regions[i].blocks.iter() {
                if !assigned[b] {
                    assigned[b] = true;
                    block_region[b] = RegionId(i as u32);
                }
            }
        }

        Pst {
            regions,
            block_region,
            postorder,
        }
    }

    /// The root region (the whole procedure).
    pub fn root(&self) -> RegionId {
        RegionId(0)
    }

    /// Returns a region by id.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// Number of regions (including the root).
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Iterates over all regions.
    pub fn regions(&self) -> impl Iterator<Item = &Region> + '_ {
        self.regions.iter()
    }

    /// Regions in postorder: every region appears after all its children.
    /// This is the paper's "topological-order traversal of the PST".
    pub fn postorder(&self) -> &[RegionId] {
        &self.postorder
    }

    /// Region ids in reverse preorder — also children-first (the arena is
    /// preorder-numbered, so every child id is greater than its
    /// parent's). Bottom-up passes use this to walk the region array back
    /// to front and index dense side tables by `RegionId` directly,
    /// instead of chasing the postorder indirection.
    pub fn bottom_up(&self) -> impl DoubleEndedIterator<Item = RegionId> {
        (0..self.regions.len()).rev().map(RegionId::from_index)
    }

    /// The innermost region containing block `b`.
    pub fn innermost_region_of_block(&self, b: BlockId) -> RegionId {
        self.block_region[b.index()]
    }

    /// Returns `true` if region `r` contains block `b`.
    pub fn contains_block(&self, r: RegionId, b: BlockId) -> bool {
        self.regions[r.index()].blocks.contains(b.index())
    }

    /// Lowest common ancestor of two regions.
    pub fn lca(&self, a: RegionId, b: RegionId) -> RegionId {
        let (mut x, mut y) = (a, b);
        while self.regions[x.index()].depth > self.regions[y.index()].depth {
            x = self.regions[x.index()]
                .parent
                .expect("depth > 0 has parent");
        }
        while self.regions[y.index()].depth > self.regions[x.index()].depth {
            y = self.regions[y.index()]
                .parent
                .expect("depth > 0 has parent");
        }
        while x != y {
            x = self.regions[x.index()].parent.expect("non-root");
            y = self.regions[y.index()].parent.expect("non-root");
        }
        x
    }

    /// The innermost region containing both endpoints of a CFG edge — the
    /// region a save/restore location *on* that edge belongs to. For a
    /// region's own entry/exit edge this is the region's parent (or an
    /// ancestor), matching the paper's bookkeeping where a set created at
    /// region boundaries is seen by the enclosing regions.
    pub fn innermost_region_of_edge(&self, cfg: &Cfg, e: EdgeId) -> RegionId {
        let edge = cfg.edge(e);
        self.lca(
            self.innermost_region_of_block(edge.from),
            self.innermost_region_of_block(edge.to),
        )
    }

    /// Enumerates the ancestor path of `r`: `r` itself, then each parent
    /// in turn, ending at the root. Over the preorder arena the yielded
    /// ids are strictly decreasing, so the path doubles as a worklist in
    /// fold order.
    pub fn ancestors(&self, r: RegionId) -> impl Iterator<Item = RegionId> + '_ {
        std::iter::successors(Some(r), move |&x| self.regions[x.index()].parent)
    }

    /// Maps a profile delta onto the regions whose folded placement
    /// products it can invalidate, closed under the ancestor relation
    /// (every dirty region's whole path to the root is dirty, so a
    /// bottom-up refold of exactly the returned set re-establishes the
    /// cold fixpoint).
    ///
    /// A changed edge `e` dirties three kinds of region:
    /// - the innermost region containing `e` (it prices `OnEdge(e)`
    ///   points of sets homed at or folded through it),
    /// - the innermost region of `e`'s target block (the block's derived
    ///   execution count changed, so `BlockTop`/`BlockBottom` points
    ///   there reprice),
    /// - any region whose *own* entry or exit boundary is `e` (its
    ///   boundary hoist cost repriced; the innermost region of a
    ///   boundary edge is the region's parent, so the first rule alone
    ///   would miss the region itself).
    ///
    /// A changed entry count dirties the root (the `ProcEntry` boundary
    /// is priced by it) and the entry block's innermost region. Regions
    /// exiting through a `ReturnEdge` of a repriced block are reached by
    /// the ancestor closure (the return block lies inside them), but are
    /// seeded explicitly as well for robustness.
    ///
    /// Returns a dense `true`-per-dirty-region vector indexed by
    /// [`RegionId`].
    pub fn dirty_regions(
        &self,
        cfg: &Cfg,
        changed_edges: &[EdgeId],
        entry_changed: bool,
    ) -> Vec<bool> {
        let mut dirty = vec![false; self.regions.len()];
        let seed = |dirty: &mut Vec<bool>, r: RegionId| {
            for a in self.ancestors(r) {
                if std::mem::replace(&mut dirty[a.index()], true) {
                    break;
                }
            }
        };

        let dirty_block = |dirty: &mut Vec<bool>, b: BlockId| {
            seed(dirty, self.innermost_region_of_block(b));
            for r in &self.regions {
                let hit = |bound: RegionBoundary| bound == RegionBoundary::ReturnEdge(b);
                if hit(r.entry) || hit(r.exit) {
                    seed(dirty, r.id);
                }
            }
        };

        for &e in changed_edges {
            seed(&mut dirty, self.innermost_region_of_edge(cfg, e));
            dirty_block(&mut dirty, cfg.edge(e).to);
            for r in &self.regions {
                let hit = |bound: RegionBoundary| bound == RegionBoundary::CfgEdge(e);
                if hit(r.entry) || hit(r.exit) {
                    seed(&mut dirty, r.id);
                }
            }
        }
        if entry_changed {
            seed(&mut dirty, self.root());
            dirty_block(&mut dirty, cfg.entry());
        }
        dirty
    }
}

/// The root region: the whole procedure.
fn root_region(num_blocks: usize) -> Region {
    let mut blocks = DenseBitSet::new(num_blocks);
    for b in 0..num_blocks {
        blocks.insert(b);
    }
    Region {
        id: RegionId(0),
        parent: None,
        children: Vec::new(),
        entry: RegionBoundary::ProcEntry,
        exit: RegionBoundary::ProcExits,
        blocks,
        depth: 0,
    }
}

/// Links regions whose `parent` and `blocks` are set (root at index 0)
/// into a tree: fills every region's children, ordered by their smallest
/// block, and its depth, and returns the postorder (children before
/// parents).
fn link(regions: &mut [Region]) -> Vec<RegionId> {
    for i in 1..regions.len() {
        let p = regions[i].parent.expect("non-root has parent").index();
        regions[p].children.push(RegionId::from_index(i));
    }
    let keys: Vec<usize> = regions
        .iter()
        .map(|r| r.blocks.iter().next().unwrap_or(usize::MAX))
        .collect();
    let mut postorder = Vec::with_capacity(regions.len());
    let mut stack: Vec<(RegionId, usize)> = vec![(RegionId(0), 0)];
    while let Some(&mut (r, ref mut ci)) = stack.last_mut() {
        let region = &mut regions[r.index()];
        if *ci == 0 {
            region.children.sort_by_key(|c| keys[c.index()]);
        }
        match region.children.get(*ci) {
            Some(&c) => {
                *ci += 1;
                regions[c.index()].depth = region.depth + 1;
                stack.push((c, 0));
            }
            None => {
                postorder.push(r);
                stack.pop();
            }
        }
    }
    postorder
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_ir::{Cond, FunctionBuilder, Reg};

    /// Nested diamonds: outer branch at A joining at F; inner diamond
    /// B -> {C,D} -> E inside the left arm.
    fn nested() -> (spillopt_ir::Function, Vec<BlockId>) {
        let mut fb = FunctionBuilder::new("nested", 0);
        let a = fb.create_block(Some("A"));
        let b = fb.create_block(Some("B"));
        let c = fb.create_block(Some("C"));
        let d = fb.create_block(Some("D"));
        let e = fb.create_block(Some("E"));
        let g = fb.create_block(Some("G")); // right arm
        let f_ = fb.create_block(Some("F"));
        fb.switch_to(a);
        let x = fb.li(0);
        fb.branch(Cond::Lt, Reg::Virt(x), Reg::Virt(x), g, b);
        fb.switch_to(b);
        fb.branch(Cond::Gt, Reg::Virt(x), Reg::Virt(x), d, c);
        fb.switch_to(c);
        fb.jump(e);
        fb.switch_to(d);
        fb.jump(e);
        fb.switch_to(e);
        fb.jump(f_);
        fb.switch_to(g);
        fb.jump(f_);
        fb.switch_to(f_);
        fb.ret(None);
        (fb.finish(), vec![a, b, c, d, e, g, f_])
    }

    #[test]
    fn root_covers_everything() {
        let (f, blocks) = nested();
        let cfg = Cfg::compute(&f);
        let pst = Pst::compute(&cfg);
        for &b in &blocks {
            assert!(pst.contains_block(pst.root(), b));
        }
        assert_eq!(pst.region(pst.root()).depth, 0);
        assert!(pst.region(pst.root()).parent.is_none());
    }

    #[test]
    fn finds_nested_left_arm_region() {
        let (f, blocks) = nested();
        let cfg = Cfg::compute(&f);
        let pst = Pst::compute(&cfg);
        let (b, c, d, e) = (blocks[1], blocks[2], blocks[3], blocks[4]);
        // Some region should contain exactly the left arm {B,C,D,E}.
        let left_arm = pst.regions().find(|r| {
            r.blocks.contains(b.index())
                && r.blocks.contains(e.index())
                && !r.blocks.contains(blocks[5].index())
                && !r.blocks.contains(blocks[0].index())
                && !r.blocks.contains(blocks[6].index())
        });
        let left_arm = left_arm.expect("left-arm region missing");
        assert!(left_arm.blocks.contains(c.index()));
        assert!(left_arm.blocks.contains(d.index()));
        assert_eq!(left_arm.blocks.count(), 4);
        // Its parent chain reaches the root.
        let mut r = left_arm.id;
        let mut hops = 0;
        while let Some(p) = pst.region(r).parent {
            r = p;
            hops += 1;
            assert!(hops < 100);
        }
        assert_eq!(r, pst.root());
    }

    #[test]
    fn postorder_visits_children_first() {
        let (f, _) = nested();
        let cfg = Cfg::compute(&f);
        let pst = Pst::compute(&cfg);
        let pos: std::collections::HashMap<RegionId, usize> = pst
            .postorder()
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, i))
            .collect();
        for r in pst.regions() {
            for &c in &r.children {
                assert!(pos[&c] < pos[&r.id], "{c} must precede {}", r.id);
            }
        }
        assert_eq!(*pst.postorder().last().unwrap(), pst.root());
        assert_eq!(pst.postorder().len(), pst.num_regions());
    }

    #[test]
    fn innermost_block_and_edge_queries() {
        let (f, blocks) = nested();
        let cfg = Cfg::compute(&f);
        let pst = Pst::compute(&cfg);
        let c = blocks[2];
        let inner = pst.innermost_region_of_block(c);
        assert!(pst.contains_block(inner, c));
        // Edge A->B crosses into the left-arm region: its innermost region
        // must contain both A and B.
        let e = cfg.edge_between(blocks[0], blocks[1]).unwrap();
        let r = pst.innermost_region_of_edge(&cfg, e);
        assert!(pst.contains_block(r, blocks[0]));
        assert!(pst.contains_block(r, blocks[1]));
    }

    #[test]
    fn arena_is_preorder_numbered() {
        let (f, _) = nested();
        let cfg = Cfg::compute(&f);
        let pst = Pst::compute(&cfg);
        assert_eq!(pst.root(), RegionId::from_index(0));
        for r in pst.regions() {
            for &c in &r.children {
                assert!(c > r.id, "child {c} must be numbered after parent {}", r.id);
            }
            if let Some(p) = r.parent {
                assert!(p < r.id);
            }
        }
        // bottom_up is children-first and covers every region.
        let order: Vec<RegionId> = pst.bottom_up().collect();
        assert_eq!(order.len(), pst.num_regions());
        let pos: std::collections::HashMap<RegionId, usize> =
            order.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        for r in pst.regions() {
            for &c in &r.children {
                assert!(pos[&c] < pos[&r.id]);
            }
        }
    }

    #[test]
    fn ancestors_walk_to_the_root_in_decreasing_id_order() {
        let (f, _) = nested();
        let cfg = Cfg::compute(&f);
        let pst = Pst::compute(&cfg);
        for r in pst.regions() {
            let path: Vec<RegionId> = pst.ancestors(r.id).collect();
            assert_eq!(path.first(), Some(&r.id));
            assert_eq!(path.last(), Some(&pst.root()));
            assert!(path.windows(2).all(|w| w[1] < w[0]));
            assert_eq!(path.len(), r.depth + 1);
        }
    }

    #[test]
    fn dirty_regions_are_ancestor_closed_and_scoped() {
        let (f, blocks) = nested();
        let cfg = Cfg::compute(&f);
        let pst = Pst::compute(&cfg);

        // Empty delta dirties nothing.
        assert!(pst.dirty_regions(&cfg, &[], false).iter().all(|&d| !d));

        // A single inner-diamond edge (C -> E) must not dirty the
        // sibling arm region containing G, but must dirty its own
        // innermost region plus the whole root path.
        let ce = cfg.edge_between(blocks[2], blocks[4]).unwrap();
        let dirty = pst.dirty_regions(&cfg, &[ce], false);
        assert!(dirty[pst.root().index()]);
        let inner = pst.innermost_region_of_edge(&cfg, ce);
        assert!(dirty[inner.index()]);
        for (i, &d) in dirty.iter().enumerate() {
            let r = pst.region(RegionId::from_index(i));
            if d {
                if let Some(p) = r.parent {
                    assert!(dirty[p.index()], "dirty set not ancestor-closed");
                }
            }
        }
        let g_region = pst.innermost_region_of_block(blocks[5]);
        if g_region != pst.root() && !pst.contains_block(g_region, blocks[2]) {
            assert!(!dirty[g_region.index()], "sibling arm wrongly dirtied");
        }

        // An entry-count change dirties the root and the entry block's
        // innermost region.
        let dirty = pst.dirty_regions(&cfg, &[], true);
        assert!(dirty[pst.root().index()]);
        assert!(dirty[pst.innermost_region_of_block(cfg.entry()).index()]);
    }

    #[test]
    fn dirty_regions_seed_boundary_owners() {
        let (f, _) = nested();
        let cfg = Cfg::compute(&f);
        let pst = Pst::compute(&cfg);
        // For every region bounded by a real CFG edge, changing that edge
        // must dirty the region itself (not only its parent).
        for r in pst.regions() {
            for bound in [r.entry, r.exit] {
                if let RegionBoundary::CfgEdge(e) = bound {
                    let dirty = pst.dirty_regions(&cfg, &[e], false);
                    assert!(dirty[r.id.index()], "{} not dirtied by its boundary", r.id);
                }
            }
        }
    }

    #[test]
    fn proper_nesting_no_partial_overlap() {
        let (f, _) = nested();
        let cfg = Cfg::compute(&f);
        let pst = Pst::compute(&cfg);
        let regions: Vec<_> = pst.regions().collect();
        for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                let (a, b) = (&regions[i].blocks, &regions[j].blocks);
                let nested = a.is_subset(b) || b.is_subset(a);
                let disjoint = a.is_disjoint(b);
                assert!(nested || disjoint, "regions {i} and {j} partially overlap");
            }
        }
    }
}
