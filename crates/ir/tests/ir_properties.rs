//! Property tests for the IR substrate: printer/parser round-trips,
//! dominator correctness against a reachability oracle, and liveness
//! sanity on random structured functions.

use proptest::prelude::*;
use spillopt_ir::analysis::dom::DomTree;
use spillopt_ir::{display, parse_function, Graph};

/// Random DAG-ish directed graph rooted at 0 (plus some back edges).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..14).prop_flat_map(|n| {
        proptest::collection::vec((0usize..n, 0usize..n), n - 1..3 * n).prop_map(move |pairs| {
            // Spine so everything is reachable from 0.
            let edges: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).chain(pairs).collect();
            Graph::from_edges(n, &edges)
        })
    })
}

fn oracle_reachable(g: &Graph, from: usize, to: usize, skip: Option<usize>) -> bool {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// a dominates b iff removing a disconnects b from the root.
    #[test]
    fn dominators_match_cut_oracle(g in arb_graph()) {
        let t = DomTree::compute(&g, 0);
        for a in 0..g.num_nodes() {
            for b in 0..g.num_nodes() {
                let expected = if a == b {
                    oracle_reachable(&g, 0, b, None)
                } else {
                    oracle_reachable(&g, 0, b, None) && !oracle_reachable(&g, 0, b, Some(a))
                };
                prop_assert_eq!(t.dominates(a, b), expected, "dom({}, {})", a, b);
            }
        }
    }
}

mod roundtrip {
    use super::*;
    use rand::SeedableRng as _;
    use spillopt_benchgen::{emit_function, gen_body, EmitConfig, ShapeConfig, Style};
    use spillopt_ir::{verify_function, RegDiscipline, Target};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// print -> parse -> print is a fixpoint, and the parsed function
        /// verifies.
        #[test]
        fn printer_parser_roundtrip(seed in 0u64..100_000, budget in 4usize..30) {
            let target = Target::default();
            let shape = ShapeConfig {
                budget,
                loop_prob: 0.3,
                else_prob: 0.5,
                cold_if_prob: 0.25,
                goto_prob: 0.1,
                call_prob: 0.0,
                loop_trip: (2, 5),
                max_depth: 3,
            };
            let emit = EmitConfig {
                shape: shape.clone(),
                pressure: 4,
                num_params: 2,
                data_slots: 2,
                style: Style::Register,
                num_handlers: (seed % 2) as usize,
                handler_goto_frac: 0.5,
                hot_segment_calls: 0,
                crossing_frac: 0.0,
                cold_crossing: 0.0,
                cold_sites: 0,
            };
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let body = gen_body(&shape, &mut rng, 0);
            let func = emit_function("rt", &target, &emit, &body, 0, seed);
            prop_assert!(verify_function(&func, RegDiscipline::Virtual).is_empty());

            let printed = display::function_to_string(&func);
            let parsed = parse_function(&printed).expect("parse");
            prop_assert!(verify_function(&parsed, RegDiscipline::Virtual).is_empty());
            let reprinted = display::function_to_string(&parsed);
            prop_assert_eq!(printed, reprinted);
        }
    }
}
