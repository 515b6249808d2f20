//! Cycle equivalence of augmented-graph edges.
//!
//! Two edges are *cycle equivalent* iff every cycle of the (undirected)
//! augmented graph contains either both or neither. Johnson-Pearson-
//! Pingali compute this with bracket lists; we use an equivalent — and much
//! simpler — linear-time formulation over the cycle space:
//!
//! * pick any undirected spanning tree;
//! * give every non-tree edge an independent random 128-bit label;
//! * label every tree edge with the XOR of the labels of the non-tree
//!   edges whose fundamental cycle covers it.
//!
//! An edge's label is then a hash of the *set of fundamental cycles it
//! belongs to*, and since every cycle is a symmetric difference of
//! fundamental cycles, two edges are cycle equivalent iff these sets are
//! equal — i.e. iff their labels collide. With 128-bit labels drawn from a
//! seeded generator the collision probability is ~k²·2⁻¹²⁸ (astronomically
//! small and deterministic per build); tests cross-check against an exact
//! fundamental-cycle-matrix oracle.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Computes cycle-equivalence classes of an undirected multigraph.
///
/// `edges` are `(u, v)` endpoint pairs over nodes `0..num_nodes`
/// (self-loops and parallel edges allowed). Returns a class id per edge;
/// equal ids mean cycle equivalent. Class ids are numbered by first
/// appearance: edge 0 is in class 0, and the first edge of every new
/// class takes the next id.
///
/// Edges on no cycle at all (bridges) all receive the all-zero label and
/// therefore share a class; in the augmented CFG every edge lies on a cycle
/// (the virtual top edge guarantees it), so this case does not arise there.
///
/// # Panics
///
/// Panics if the graph is disconnected (a CFG whose blocks all reach the
/// exit is always connected once augmented).
pub fn cycle_equivalence_classes(num_nodes: usize, edges: &[(usize, usize)]) -> Vec<u32> {
    let mut ids = std::collections::HashMap::new();
    edge_labels(num_nodes, edges)
        .into_iter()
        .map(|label| {
            let next = ids.len() as u32;
            *ids.entry(label).or_insert(next)
        })
        .collect()
}

/// Computes the 128-bit cycle-space label of every edge (see module docs).
pub fn edge_labels(num_nodes: usize, edges: &[(usize, usize)]) -> Vec<u128> {
    if num_nodes == 0 {
        assert!(edges.is_empty());
        return Vec::new();
    }
    // Undirected adjacency with edge ids, in CSR form: node `u`'s
    // incidences are `adj[off[u]..off[u + 1]]`, in edge order (a
    // self-loop appears twice), exactly the order per-node lists would
    // hold — so the DFS below builds the same spanning tree.
    let mut off = vec![0usize; num_nodes + 1];
    for &(u, v) in edges {
        off[u + 1] += 1;
        off[v + 1] += 1;
    }
    for i in 1..=num_nodes {
        off[i] += off[i - 1];
    }
    let mut fill = off.clone();
    let mut adj = vec![(0usize, 0usize); off[num_nodes]];
    for (i, &(u, v)) in edges.iter().enumerate() {
        adj[fill[u]] = (v, i);
        fill[u] += 1;
        adj[fill[v]] = (u, i);
        fill[v] += 1;
    }

    // Iterative undirected DFS building a spanning tree.
    let mut parent_edge: Vec<Option<usize>> = vec![None; num_nodes]; // tree edge to parent
    let mut visited = vec![false; num_nodes];
    let mut order = Vec::with_capacity(num_nodes); // DFS preorder

    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    visited[0] = true;
    order.push(0);
    while let Some(&mut (u, ref mut ci)) = stack.last_mut() {
        if off[u] + *ci < off[u + 1] {
            let (v, e) = adj[off[u] + *ci];
            *ci += 1;
            if !visited[v] {
                visited[v] = true;
                parent_edge[v] = Some(e);
                order.push(v);
                stack.push((v, 0));
            }
        } else {
            stack.pop();
        }
    }
    assert!(
        visited.iter().all(|&v| v),
        "cycle equivalence requires a connected graph"
    );
    spanning_tree_labels(num_nodes, edges, &parent_edge, &order)
}

/// The labelling of [`edge_labels`] over a caller-supplied rooted
/// spanning tree: `parent_edge[v]` is the tree edge joining node `v` to
/// its parent (`None` for the root) and `preorder` lists every node,
/// each after its parent. Any spanning tree yields the same partition
/// into equal labels; the labels themselves depend on the tree.
pub fn spanning_tree_labels(
    num_nodes: usize,
    edges: &[(usize, usize)],
    parent_edge: &[Option<usize>],
    preorder: &[usize],
) -> Vec<u128> {
    let mut is_tree = vec![false; edges.len()];
    for e in parent_edge.iter().flatten() {
        is_tree[*e] = true;
    }

    // Random labels for non-tree edges; XOR-accumulate onto endpoints.
    let mut rng = SmallRng::seed_from_u64(0x005e_5ec7_c1e9_u64);
    let mut labels = vec![0u128; edges.len()];
    let mut acc = vec![0u128; num_nodes];
    for (i, &(u, v)) in edges.iter().enumerate() {
        if !is_tree[i] {
            let r = ((rng.gen::<u64>() as u128) << 64) | rng.gen::<u64>() as u128;
            labels[i] = r;
            acc[u] ^= r;
            acc[v] ^= r; // self-loops cancel: covers no tree edge
        }
    }

    // Subtree XOR in reverse preorder gives each tree edge's label.
    for &v in preorder.iter().rev() {
        if let Some(e) = parent_edge[v] {
            labels[e] = acc[v];
            let (a, b) = edges[e];
            let p = if a == v { b } else { a };
            acc[p] ^= acc[v];
        }
    }
    labels
}

/// Exact (exponential-free but O(V·E²)) oracle: builds the explicit
/// fundamental-cycle membership matrix and compares columns. Intended for
/// tests on small graphs.
pub fn cycle_equivalence_classes_oracle(num_nodes: usize, edges: &[(usize, usize)]) -> Vec<u32> {
    // Spanning tree via BFS.
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_nodes];
    for (i, &(u, v)) in edges.iter().enumerate() {
        adj[u].push((v, i));
        adj[v].push((u, i));
    }
    let mut parent: Vec<usize> = vec![usize::MAX; num_nodes];
    let mut parent_edge: Vec<Option<usize>> = vec![None; num_nodes];
    let mut visited = vec![false; num_nodes];
    let mut is_tree = vec![false; edges.len()];
    let mut queue = std::collections::VecDeque::from([0usize]);
    visited[0] = true;
    while let Some(u) = queue.pop_front() {
        for &(v, e) in &adj[u] {
            if !visited[v] {
                visited[v] = true;
                is_tree[e] = true;
                parent[v] = u;
                parent_edge[v] = Some(e);
                queue.push_back(v);
            }
        }
    }
    assert!(visited.iter().all(|&v| v), "disconnected graph");

    let tree_path_to_root = |mut x: usize| -> Vec<usize> {
        let mut p = Vec::new();
        while let Some(e) = parent_edge[x] {
            p.push(e);
            x = parent[x];
        }
        p
    };

    // Membership rows: for each edge, the set of fundamental cycles (one
    // per non-tree edge) containing it.
    let non_tree: Vec<usize> = (0..edges.len()).filter(|&e| !is_tree[e]).collect();
    let mut rows: Vec<Vec<bool>> = vec![vec![false; non_tree.len()]; edges.len()];
    for (ci, &nt) in non_tree.iter().enumerate() {
        let (u, v) = edges[nt];
        rows[nt][ci] = true;
        if u == v {
            continue; // self-loop: covers no tree edge
        }
        // Fundamental cycle = nt plus the symmetric difference of the two
        // root paths.
        let pu = tree_path_to_root(u);
        let pv = tree_path_to_root(v);
        let mut count: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for e in pu.iter().chain(pv.iter()) {
            *count.entry(*e).or_insert(0) += 1;
        }
        for (e, c) in count {
            if c == 1 {
                rows[e][ci] = true;
            }
        }
    }

    let mut class_of_row: std::collections::HashMap<Vec<bool>, u32> =
        std::collections::HashMap::new();
    rows.into_iter()
        .map(|r| {
            let next = class_of_row.len() as u32;
            *class_of_row.entry(r).or_insert(next)
        })
        .collect()
}

/// Checks that two class assignments induce the same partition.
pub fn same_partition(a: &[u32], b: &[u32]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut map_ab = std::collections::HashMap::new();
    let mut map_ba = std::collections::HashMap::new();
    for (&x, &y) in a.iter().zip(b) {
        if *map_ab.entry(x).or_insert(y) != y {
            return false;
        }
        if *map_ba.entry(y).or_insert(x) != x {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_cycle_is_one_class() {
        // Triangle 0-1-2-0: every edge in every cycle.
        let edges = [(0, 1), (1, 2), (2, 0)];
        let c = cycle_equivalence_classes(3, &edges);
        assert_eq!(c[0], c[1]);
        assert_eq!(c[1], c[2]);
    }

    #[test]
    fn theta_graph_classes() {
        // Nodes 0,1 with three parallel paths: 0-1 direct, 0-2-1, 0-3-1.
        // Each path's edges... direct edge is its own class; each two-edge
        // path's edges are pairwise equivalent.
        let edges = [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)];
        let c = cycle_equivalence_classes(4, &edges);
        assert_eq!(c[1], c[2]); // path via 2
        assert_eq!(c[3], c[4]); // path via 3
        assert_ne!(c[0], c[1]);
        assert_ne!(c[0], c[3]);
        assert_ne!(c[1], c[3]);
    }

    #[test]
    fn series_edges_are_equivalent() {
        // Cycle with a chain: 0-1-2-3-0. All four edges equivalent.
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let c = cycle_equivalence_classes(4, &edges);
        assert!(c.iter().all(|&x| x == c[0]));
    }

    #[test]
    fn self_loop_is_isolated_class() {
        let edges = [(0, 1), (1, 0), (1, 1)];
        let c = cycle_equivalence_classes(2, &edges);
        assert_eq!(c[0], c[1]); // the 2-cycle
        assert_ne!(c[2], c[0]); // the self-loop
    }

    #[test]
    fn matches_oracle_on_fixed_graphs() {
        let cases: Vec<(usize, Vec<(usize, usize)>)> = vec![
            (3, vec![(0, 1), (1, 2), (2, 0)]),
            (4, vec![(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)]),
            (2, vec![(0, 1), (1, 0), (1, 1)]),
            (
                6,
                vec![
                    (0, 1),
                    (1, 2),
                    (2, 3),
                    (3, 0),
                    (1, 4),
                    (4, 2),
                    (3, 5),
                    (5, 0),
                ],
            ),
            (1, vec![(0, 0), (0, 0)]),
        ];
        for (n, edges) in cases {
            let fast = cycle_equivalence_classes(n, &edges);
            let slow = cycle_equivalence_classes_oracle(n, &edges);
            assert!(
                same_partition(&fast, &slow),
                "partition mismatch on {edges:?}: {fast:?} vs {slow:?}"
            );
        }
    }

    #[test]
    fn partition_comparison_detects_differences() {
        assert!(same_partition(&[0, 0, 1], &[5, 5, 9]));
        assert!(!same_partition(&[0, 0, 1], &[5, 9, 9]));
        assert!(!same_partition(&[0], &[0, 0]));
    }
}
