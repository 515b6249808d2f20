//! Property tests for the PST substrate: the fast cycle-equivalence
//! labelling must match the exact fundamental-cycle-matrix oracle on
//! random connected multigraphs, over its own DFS tree and over any
//! other spanning tree, and PSTs of random structured CFGs must
//! satisfy every structural invariant and equal the dominance-based
//! reference construction renumbered into the canonical preorder.

use proptest::prelude::*;
use spillopt_pst::{
    cycle_equivalence_classes, cycle_equivalence_classes_oracle, pst_differences,
    spanning_tree_labels, verify_pst, Pst,
};

/// Random connected multigraph: a random spanning tree plus extra edges
/// (parallel edges and self-loops allowed).
fn arb_connected_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..12).prop_flat_map(|n| {
        let tree = proptest::collection::vec(0usize..usize::MAX, n - 1);
        let extra = proptest::collection::vec((0usize..n, 0usize..n), 0..12);
        (Just(n), tree, extra).prop_map(|(n, tree, extra)| {
            let mut edges = Vec::new();
            for (v, r) in tree.iter().enumerate() {
                let u = r % (v + 1);
                edges.push((u, v + 1));
            }
            edges.extend(extra);
            (n, edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cycle_equivalence_matches_oracle((n, edges) in arb_connected_graph()) {
        let fast = cycle_equivalence_classes(n, &edges);
        let slow = cycle_equivalence_classes_oracle(n, &edges);
        prop_assert!(
            spillopt_pst::cycle_equiv::same_partition(&fast, &slow),
            "partition mismatch on {edges:?}: fast {fast:?} vs oracle {slow:?}"
        );
    }
}

/// Class ids by first appearance of each distinct label.
fn classes_of(labels: &[u128]) -> Vec<u32> {
    let mut ids = std::collections::HashMap::new();
    labels
        .iter()
        .map(|l| {
            let next = ids.len() as u32;
            *ids.entry(*l).or_insert(next)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The labelling is tree-agnostic: over a breadth-first spanning
    /// tree it induces the oracle's partition too.
    #[test]
    fn any_spanning_tree_gives_the_oracle_partition((n, edges) in arb_connected_graph()) {
        let mut parent_edge = vec![None; n];
        let mut visited = vec![false; n];
        let mut order = vec![0];
        visited[0] = true;
        let mut next = 0;
        while next < order.len() {
            let u = order[next];
            next += 1;
            for (e, &(a, b)) in edges.iter().enumerate() {
                let v = if a == u { b } else if b == u { a } else { continue };
                if !visited[v] {
                    visited[v] = true;
                    parent_edge[v] = Some(e);
                    order.push(v);
                }
            }
        }
        let labels = spanning_tree_labels(n, &edges, &parent_edge, &order);
        let slow = cycle_equivalence_classes_oracle(n, &edges);
        prop_assert!(
            spillopt_pst::cycle_equiv::same_partition(&classes_of(&labels), &slow),
            "partition mismatch on {edges:?}"
        );
    }
}

/// Random structured CFGs via the benchmark generator (reducible,
/// terminating, verifier-clean by construction).
mod structured {
    use super::*;
    use rand::SeedableRng as _;
    use spillopt_benchgen::{emit_function, gen_body, EmitConfig, ShapeConfig, Style};
    use spillopt_ir::{Cfg, Target};

    fn generated_cfg(seed: u64, budget: usize) -> Cfg {
        let target = Target::default();
        let shape = ShapeConfig {
            budget,
            loop_prob: 0.35,
            else_prob: 0.5,
            cold_if_prob: 0.3,
            goto_prob: 0.12,
            call_prob: 0.1,
            loop_trip: (2, 6),
            max_depth: 4,
        };
        let emit = EmitConfig {
            shape: shape.clone(),
            pressure: 5,
            num_params: 2,
            data_slots: 2,
            style: if seed.is_multiple_of(2) {
                Style::Memory
            } else {
                Style::Register
            },
            num_handlers: (seed % 3) as usize,
            handler_goto_frac: 0.5,
            hot_segment_calls: (seed % 2) as usize,
            crossing_frac: 0.2,
            cold_crossing: 0.5,
            cold_sites: (seed % 2) as usize,
        };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let body = gen_body(&shape, &mut rng, 1);
        let func = emit_function("p", &target, &emit, &body, 0, seed ^ 0xbeef);
        Cfg::compute(&func)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pst_invariants_on_random_cfgs(seed in 0u64..100_000, budget in 5usize..40) {
            let cfg = generated_cfg(seed, budget);
            let pst = Pst::compute(&cfg);
            let errs = verify_pst(&cfg, &pst);
            prop_assert!(errs.is_empty(), "{errs:?}");
        }

        #[test]
        fn pst_is_deterministic(seed in 0u64..100_000) {
            let cfg = generated_cfg(seed, 20);
            let a = Pst::compute(&cfg);
            let b = Pst::compute(&cfg);
            prop_assert_eq!(a.num_regions(), b.num_regions());
            prop_assert_eq!(a.postorder(), b.postorder());
        }

        /// `compute` builds the same tree as the dominance-based
        /// `compute_reference` up to numbering, and numbers it in the
        /// canonical preorder: it equals the reference renumbered, ids,
        /// child order, postorder and innermost regions included.
        #[test]
        fn pst_matches_reference_exactly(seed in 0u64..100_000, budget in 5usize..40) {
            let cfg = generated_cfg(seed, budget);
            let pst = Pst::compute(&cfg);
            let reference = Pst::compute_reference(&cfg);
            let diffs = pst_differences(&pst, &reference);
            prop_assert!(diffs.is_empty(), "{diffs:?}");
            for r in pst.regions() {
                if let Some(p) = r.parent {
                    prop_assert!(p < r.id, "{} numbered before its parent {p}", r.id);
                }
            }
            prop_assert!(pst == reference.into_preorder(), "not the canonical arena");
        }

        /// Every non-root region's boundary edges really are the *only*
        /// edges crossing the region (the literal single-entry
        /// single-exit property).
        #[test]
        fn regions_are_single_entry_single_exit(seed in 0u64..100_000) {
            let cfg = generated_cfg(seed, 25);
            let pst = Pst::compute(&cfg);
            for r in pst.regions() {
                if r.id == pst.root() {
                    continue;
                }
                let mut entering = Vec::new();
                let mut leaving = Vec::new();
                for (id, e) in cfg.edges() {
                    let from_in = r.blocks.contains(e.from.index());
                    let to_in = r.blocks.contains(e.to.index());
                    if !from_in && to_in {
                        entering.push(id);
                    } else if from_in && !to_in {
                        leaving.push(id);
                    }
                }
                use spillopt_pst::RegionBoundary as RB;
                match r.entry {
                    RB::CfgEdge(e) => prop_assert_eq!(entering, vec![e]),
                    _ => prop_assert!(false, "non-root entry must be a CFG edge"),
                }
                match r.exit {
                    RB::CfgEdge(e) => prop_assert_eq!(leaving, vec![e]),
                    RB::ReturnEdge(_) => prop_assert!(leaving.is_empty()),
                    _ => prop_assert!(false, "unexpected exit boundary"),
                }
            }
        }
    }
}
