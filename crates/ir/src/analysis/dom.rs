//! Dominator trees (Cooper-Harvey-Kennedy).

use crate::analysis::graph::Graph;
use crate::cfg::Cfg;
use crate::ids::BlockId;

/// A dominator tree over dense node indices, with O(1) dominance queries
/// via Euler-interval numbering of the tree.
#[derive(Clone, Debug)]
pub struct DomTree {
    root: usize,
    idom: Vec<Option<u32>>,
    /// Discovery/finish intervals of each node in a DFS of the dominator
    /// tree; `a` dominates `b` iff `a`'s interval contains `b`'s.
    tin: Vec<u32>,
    tout: Vec<u32>,
    depth: Vec<u32>,
}

impl DomTree {
    /// Computes the dominator tree of `graph` rooted at `root`.
    /// Nodes unreachable from `root` have no immediate dominator.
    pub fn compute(graph: &Graph, root: usize) -> Self {
        let n = graph.num_nodes();
        let rpo = graph.reverse_postorder(root);
        let mut rpo_num = vec![u32::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_num[b] = i as u32;
        }

        let mut idom: Vec<Option<u32>> = vec![None; n];
        idom[root] = Some(root as u32);

        let intersect = |idom: &[Option<u32>], rpo_num: &[u32], mut a: usize, mut b: usize| {
            while a != b {
                while rpo_num[a] > rpo_num[b] {
                    a = idom[a].expect("processed node") as usize;
                }
                while rpo_num[b] > rpo_num[a] {
                    b = idom[b].expect("processed node") as usize;
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                if b == root {
                    continue;
                }
                let mut new_idom: Option<usize> = None;
                for &p in graph.preds(b) {
                    let p = p as usize;
                    if idom[p].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_num, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b] != Some(ni as u32) {
                        idom[b] = Some(ni as u32);
                        changed = true;
                    }
                }
            }
        }

        // Euler numbering of the dominator tree. Children in flat CSR
        // form (counting sort by parent) — no per-node Vec churn.
        let mut child_off = vec![0u32; n + 2];
        for (v, p) in idom.iter().enumerate() {
            if v == root {
                continue;
            }
            if let Some(p) = p {
                child_off[*p as usize + 2] += 1;
            }
        }
        for i in 2..child_off.len() {
            child_off[i] += child_off[i - 1];
        }
        let mut child_items = vec![0u32; child_off[n + 1] as usize];
        for (v, p) in idom.iter().enumerate() {
            if v == root {
                continue;
            }
            if let Some(p) = p {
                let slot = &mut child_off[*p as usize + 1];
                child_items[*slot as usize] = v as u32;
                *slot += 1;
            }
        }
        let row =
            |u: usize| -> &[u32] { &child_items[child_off[u] as usize..child_off[u + 1] as usize] };
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut depth = vec![0u32; n];
        let mut clock = 0u32;
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        tin[root] = {
            clock += 1;
            clock
        };
        while let Some(&mut (u, ref mut ci)) = stack.last_mut() {
            let kids = row(u);
            if *ci < kids.len() {
                let v = kids[*ci] as usize;
                *ci += 1;
                depth[v] = depth[u] + 1;
                clock += 1;
                tin[v] = clock;
                stack.push((v, 0));
            } else {
                clock += 1;
                tout[u] = clock;
                stack.pop();
            }
        }

        DomTree {
            root,
            idom,
            tin,
            tout,
            depth,
        }
    }

    /// Returns the root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Returns the immediate dominator of `v` (the root is its own idom);
    /// `None` for unreachable nodes.
    pub fn idom(&self, v: usize) -> Option<usize> {
        self.idom[v].map(|x| x as usize)
    }

    /// Returns `true` if `v` is reachable from the root.
    pub fn is_reachable(&self, v: usize) -> bool {
        self.idom[v].is_some()
    }

    /// Returns `true` if `a` dominates `b` (reflexively).
    ///
    /// Unreachable nodes dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if self.idom[a].is_none() || self.idom[b].is_none() {
            return false;
        }
        self.tin[a] <= self.tin[b] && self.tout[b] <= self.tout[a]
    }

    /// Returns `true` if `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: usize, b: usize) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Depth of `v` in the dominator tree (root = 0).
    pub fn depth(&self, v: usize) -> usize {
        self.depth[v] as usize
    }

    /// The retired implementation (per-node child vectors, forward
    /// direction only), kept verbatim for the frozen pipeline the
    /// differential tests compare against. Same tree as
    /// [`DomTree::compute`].
    pub fn compute_reference(graph: &Graph, root: usize) -> Self {
        let n = graph.num_nodes();
        let rpo = graph.reverse_postorder(root);
        let mut rpo_num = vec![u32::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_num[b] = i as u32;
        }

        let mut idom: Vec<Option<u32>> = vec![None; n];
        idom[root] = Some(root as u32);

        let intersect = |idom: &[Option<u32>], rpo_num: &[u32], mut a: usize, mut b: usize| {
            while a != b {
                while rpo_num[a] > rpo_num[b] {
                    a = idom[a].expect("processed node") as usize;
                }
                while rpo_num[b] > rpo_num[a] {
                    b = idom[b].expect("processed node") as usize;
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                if b == root {
                    continue;
                }
                let mut new_idom: Option<usize> = None;
                for &p in graph.preds(b) {
                    let p = p as usize;
                    if idom[p].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_num, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b] != Some(ni as u32) {
                        idom[b] = Some(ni as u32);
                        changed = true;
                    }
                }
            }
        }

        // Euler numbering of the dominator tree.
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, p) in idom.iter().enumerate() {
            if v == root {
                continue;
            }
            if let Some(p) = p {
                children[*p as usize].push(v as u32);
            }
        }
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut depth = vec![0u32; n];
        let mut clock = 0u32;
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        tin[root] = {
            clock += 1;
            clock
        };
        while let Some(&mut (u, ref mut ci)) = stack.last_mut() {
            if *ci < children[u].len() {
                let v = children[u][*ci] as usize;
                *ci += 1;
                depth[v] = depth[u] + 1;
                clock += 1;
                tin[v] = clock;
                stack.push((v, 0));
            } else {
                clock += 1;
                tout[u] = clock;
                stack.pop();
            }
        }

        DomTree {
            root,
            idom,
            tin,
            tout,
            depth,
        }
    }
}

/// Dominator tree over a function's blocks.
#[derive(Clone, Debug)]
pub struct BlockDoms {
    tree: DomTree,
}

impl BlockDoms {
    /// Computes dominators of a CFG from its entry block.
    pub fn compute(cfg: &Cfg) -> Self {
        let graph = Graph::from_cfg(cfg);
        BlockDoms {
            tree: DomTree::compute(&graph, cfg.entry().index()),
        }
    }

    /// Returns `true` if `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        self.tree.dominates(a.index(), b.index())
    }

    /// Returns the immediate dominator of `b` (`None` for the entry and
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        match self.tree.idom(b.index()) {
            Some(i) if i != b.index() => Some(BlockId::from_index(i)),
            _ => None,
        }
    }

    /// Returns the underlying generic tree.
    pub fn tree(&self) -> &DomTree {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 4; plus back edge 4 -> 1.
    fn graph() -> Graph {
        Graph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 1)])
    }

    #[test]
    fn idoms_of_diamond_with_loop() {
        let t = DomTree::compute(&graph(), 0);
        assert_eq!(t.idom(0), Some(0));
        assert_eq!(t.idom(1), Some(0));
        assert_eq!(t.idom(2), Some(0));
        assert_eq!(t.idom(3), Some(0)); // 1 and 2 both reach 3
        assert_eq!(t.idom(4), Some(3));
    }

    #[test]
    fn dominance_queries() {
        let t = DomTree::compute(&graph(), 0);
        assert!(t.dominates(0, 4));
        assert!(t.dominates(3, 4));
        assert!(!t.dominates(1, 3));
        assert!(t.dominates(3, 3));
        assert!(t.strictly_dominates(0, 3));
        assert!(!t.strictly_dominates(3, 3));
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.depth(4), 2);
    }

    #[test]
    fn unreachable_nodes() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let t = DomTree::compute(&g, 0);
        assert!(!t.is_reachable(2));
        assert!(!t.dominates(0, 2));
        assert!(!t.dominates(2, 0));
        assert_eq!(t.idom(2), None);
    }

    /// Exhaustive dominance oracle: a dom b iff removing a disconnects b
    /// from the root.
    fn oracle_dominates(g: &Graph, root: usize, a: usize, b: usize) -> bool {
        if a == b {
            return reachable(g, root, b, None);
        }
        reachable(g, root, b, None) && !reachable(g, root, b, Some(a))
    }

    fn reachable(g: &Graph, from: usize, to: usize, skip: Option<usize>) -> bool {
        if Some(from) == skip {
            return false;
        }
        let mut seen = vec![false; g.num_nodes()];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(u) = stack.pop() {
            if u == to {
                return true;
            }
            for &v in g.succs(u) {
                let v = v as usize;
                if Some(v) != skip && !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        false
    }

    #[test]
    fn matches_oracle_on_fixed_graphs() {
        // The second graph is an irreducible-ish mess.
        let mess = [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 1),
            (3, 4),
            (4, 5),
            (5, 4),
            (4, 6),
            (2, 6),
        ];
        for g in [graph(), Graph::from_edges(7, &mess)] {
            let t = DomTree::compute(&g, 0);
            for a in 0..g.num_nodes() {
                for b in 0..g.num_nodes() {
                    assert_eq!(
                        t.dominates(a, b),
                        oracle_dominates(&g, 0, a, b),
                        "dominates({a},{b}) mismatch"
                    );
                }
            }
        }
    }
}
