//! The CSR `Cfg` against a naive rebuild from its own edge list: every
//! block's successor and predecessor edge ids (ascending edge id, the
//! order the per-block lists were built in), the counts, `edge_between`
//! and `reachable_postorder`, over the stress corpus on every registered
//! target and a function with edgeless blocks.

use spillopt_ir::{BlockId, Cfg, EdgeId, Function, FunctionBuilder};
use spillopt_targets::registry;

/// Stress seeds per target.
const SEEDS: u64 = 40;

/// Checks `cfg` (computed from `func`) against a rebuild from
/// `cfg.edges()`; returns the number of blocks checked.
fn check_against_naive(func: &Function, cfg: &Cfg, label: &str) -> usize {
    let n = func.num_blocks();
    assert_eq!(cfg.num_blocks(), n, "{label}: num_blocks");
    let mut succs: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
    let mut preds: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
    for (id, e) in cfg.edges() {
        succs[e.from.index()].push(id);
        preds[e.to.index()].push(id);
    }
    for b in func.block_ids() {
        let (s, p) = (&succs[b.index()], &preds[b.index()]);
        assert_eq!(cfg.succ_edges(b), s.as_slice(), "{label}: succ_edges({b})");
        assert_eq!(cfg.pred_edges(b), p.as_slice(), "{label}: pred_edges({b})");
        assert!(p.windows(2).all(|w| w[0] < w[1]), "{label}: preds of {b}");
        assert_eq!(cfg.num_succs(b), s.len(), "{label}: num_succs({b})");
        assert_eq!(cfg.num_preds(b), p.len(), "{label}: num_preds({b})");
        let to: Vec<BlockId> = s.iter().map(|&e| cfg.edge(e).to).collect();
        assert!(cfg.succ_blocks(b).eq(to.iter().copied()), "{label}: {b}");
        let from: Vec<BlockId> = p.iter().map(|&e| cfg.edge(e).from).collect();
        assert!(cfg.pred_blocks(b).eq(from.iter().copied()), "{label}: {b}");
        for c in func.block_ids() {
            let naive = s.iter().copied().find(|&e| cfg.edge(e).to == c);
            assert_eq!(cfg.edge_between(b, c), naive, "{label}: edge {b}->{c}");
        }
    }
    assert_eq!(
        cfg.reachable_postorder(),
        naive_postorder(cfg.entry().index(), &succs, cfg),
        "{label}: reachable_postorder"
    );
    n
}

/// Recursive DFS postorder from `entry`, successors in edge order.
fn naive_postorder(entry: usize, succs: &[Vec<EdgeId>], cfg: &Cfg) -> Vec<usize> {
    fn visit(b: usize, succs: &[Vec<EdgeId>], cfg: &Cfg, seen: &mut [bool], out: &mut Vec<usize>) {
        seen[b] = true;
        for &e in &succs[b] {
            let t = cfg.edge(e).to.index();
            if !seen[t] {
                visit(t, succs, cfg, seen, out);
            }
        }
        out.push(b);
    }
    let mut seen = vec![false; succs.len()];
    let mut out = Vec::new();
    visit(entry, succs, cfg, &mut seen, &mut out);
    out
}

#[test]
fn csr_adjacency_matches_naive_rebuild_on_stress_corpus() {
    let mut blocks = 0;
    for spec in registry() {
        let target = spec.to_target();
        for seed in 0..SEEDS {
            let module = spillopt_stress::gen_case(&target, seed).module;
            for f in module.func_ids() {
                let func = module.func(f);
                let label = format!("{} seed {seed} {}", spec.name, func.name());
                blocks += check_against_naive(func, &Cfg::compute(func), &label);
            }
        }
    }
    assert!(blocks > 1000, "only {blocks} blocks checked");
}

/// Blocks with no edges at all (unreachable returns), at the start, in
/// the middle and at the end of the offset arrays.
#[test]
fn csr_handles_blocks_without_edges() {
    let mut fb = FunctionBuilder::new("edgeless", 0);
    let entry = fb.create_block(None);
    let lone = fb.create_block(None);
    let body = fb.create_block(None);
    let tail = fb.create_block(None);
    fb.switch_to(entry);
    fb.jump(body);
    fb.switch_to(lone);
    fb.ret(None);
    fb.switch_to(body);
    fb.ret(None);
    fb.switch_to(tail);
    fb.ret(None);
    let func = fb.finish();
    let cfg = Cfg::compute(&func);
    assert_eq!(check_against_naive(&func, &cfg, "edgeless"), 4);
    assert_eq!(cfg.num_edges(), 1);
    for b in [lone, tail] {
        assert!(cfg.succ_edges(b).is_empty() && cfg.pred_edges(b).is_empty());
    }
    assert_eq!(cfg.reachable_postorder(), vec![body.index(), entry.index()]);

    let mut fb = FunctionBuilder::new("single", 0);
    let only = fb.create_block(None);
    fb.switch_to(only);
    fb.ret(None);
    let func = fb.finish();
    let cfg = Cfg::compute(&func);
    assert_eq!(check_against_naive(&func, &cfg, "single"), 1);
    assert_eq!(cfg.num_edges(), 0);
}
