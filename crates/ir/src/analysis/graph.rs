//! A small generic directed-graph representation shared by the dominator
//! machinery and (in `spillopt-pst`) the edge-split graphs.

use crate::cfg::Cfg;

/// A directed graph over dense node indices `0..n`, immutable once built.
///
/// Both adjacency directions are stored in compressed sparse row (CSR)
/// form: one offset array and one flat target array per direction, four
/// allocations whatever the node count. Each node's
/// successors (and predecessors) keep the order their edges were given
/// in, so depth-first orders — and everything numbered from them, such
/// as dominator trees — follow the edge list exactly.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    pred_off: Vec<u32>,
    pred: Vec<u32>,
}

impl Graph {
    /// Builds the graph with `n` nodes and the directed edges `u -> v`
    /// of `edges`, in order (parallel edges and self-loops allowed).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let (succ_off, succ) = csr(n, edges.iter().copied());
        let (pred_off, pred) = csr(n, edges.iter().map(|&(u, v)| (v, u)));
        Graph {
            succ_off,
            succ,
            pred_off,
            pred,
        }
    }

    /// Returns the number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.succ_off.len().saturating_sub(1)
    }

    /// Returns the successors of `u`, in edge order.
    pub fn succs(&self, u: usize) -> &[u32] {
        &self.succ[self.succ_off[u] as usize..self.succ_off[u + 1] as usize]
    }

    /// Returns the predecessors of `u`, in edge order.
    pub fn preds(&self, u: usize) -> &[u32] {
        &self.pred[self.pred_off[u] as usize..self.pred_off[u + 1] as usize]
    }

    /// Returns the reversed graph.
    pub fn reversed(&self) -> Graph {
        Graph {
            succ_off: self.pred_off.clone(),
            succ: self.pred.clone(),
            pred_off: self.succ_off.clone(),
            pred: self.succ.clone(),
        }
    }

    /// Builds the graph of a CFG (nodes are block indices).
    pub fn from_cfg(cfg: &Cfg) -> Graph {
        let edges: Vec<(usize, usize)> = cfg
            .edges()
            .map(|(_, e)| (e.from.index(), e.to.index()))
            .collect();
        Graph::from_edges(cfg.num_blocks(), &edges)
    }

    /// Depth-first preorder from `root` (unreachable nodes omitted).
    pub fn preorder(&self, root: usize) -> Vec<usize> {
        let mut seen = vec![false; self.num_nodes()];
        let mut order = Vec::new();
        let mut stack = vec![root];
        seen[root] = true;
        while let Some(u) = stack.pop() {
            order.push(u);
            for &v in self.succs(u).iter().rev() {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v as usize);
                }
            }
        }
        order
    }

    /// Depth-first postorder from `root` (unreachable nodes omitted).
    pub fn postorder(&self, root: usize) -> Vec<usize> {
        let mut seen = vec![false; self.num_nodes()];
        let mut order = Vec::new();
        // (node, next child index)
        let mut stack = vec![(root, 0usize)];
        seen[root] = true;
        while let Some(&mut (u, ref mut ci)) = stack.last_mut() {
            if *ci < self.succs(u).len() {
                let v = self.succs(u)[*ci] as usize;
                *ci += 1;
                if !seen[v] {
                    seen[v] = true;
                    stack.push((v, 0));
                }
            } else {
                order.push(u);
                stack.pop();
            }
        }
        order
    }

    /// Reverse postorder from `root`.
    pub fn reverse_postorder(&self, root: usize) -> Vec<usize> {
        let mut po = self.postorder(root);
        po.reverse();
        po
    }
}

/// One CSR direction by a stable counting sort on the source endpoint:
/// returns `(offsets, targets)` with `offsets.len() == n + 1`, each
/// node's targets in the order the pairs were given.
fn csr(n: usize, pairs: impl Iterator<Item = (usize, usize)> + Clone) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n + 1];
    for (u, _) in pairs.clone() {
        off[u + 1] += 1;
    }
    for i in 1..=n {
        off[i] += off[i - 1];
    }
    let mut next = off.clone();
    let mut targets = vec![0u32; off[n] as usize];
    for (u, v) in pairs {
        assert!(v < n, "edge endpoint {v} out of range {n}");
        targets[next[u] as usize] = v as u32;
        next[u] += 1;
    }
    (off, targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn edges_and_reversal() {
        let g = diamond();
        assert_eq!(g.succs(0), &[1, 2]);
        assert_eq!(g.preds(3), &[1, 2]);
        let r = g.reversed();
        assert_eq!(r.succs(3), &[1, 2]);
        assert_eq!(r.preds(0), &[1, 2]);
    }

    #[test]
    fn keeps_per_node_edge_order() {
        let g = Graph::from_edges(3, &[(0, 2), (1, 2), (0, 1), (0, 2), (2, 0)]);
        assert_eq!(g.succs(0), &[2, 1, 2]);
        assert_eq!(g.preds(2), &[0, 1, 0]);
        assert_eq!(g.succs(2), &[0]);
    }

    #[test]
    fn orders() {
        let g = diamond();
        let pre = g.preorder(0);
        assert_eq!(pre[0], 0);
        assert_eq!(pre.len(), 4);
        let rpo = g.reverse_postorder(0);
        assert_eq!(rpo[0], 0);
        assert_eq!(rpo[3], 3);
        // In a diamond, RPO places 3 last.
        let po = g.postorder(0);
        assert_eq!(po[3], 0);
    }

    #[test]
    fn skips_unreachable() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.preorder(0), vec![0, 1]);
        assert_eq!(g.postorder(0).len(), 2);
    }
}
