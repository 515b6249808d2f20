//! Synthetic profiles for bare CFGs.
//!
//! Unit tests and ablations sometimes need a plausible profile for a CFG
//! whose instructions are meaningless (e.g. hand-built shapes). The
//! random-walk profiler produces a flow-conserving integer profile without
//! executing any instruction semantics.

use crate::profile::EdgeProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spillopt_ir::{BlockId, Cfg};

/// Generates a flow-conserving profile by simulating `walks` random walks
/// from entry to a return block.
///
/// Successors are chosen uniformly at random; once a walk exceeds
/// `max_steps` steps it greedily follows the successor closest to an exit,
/// so every walk terminates and Kirchhoff flow conservation holds exactly.
///
/// The walk consumes the same RNG stream as
/// [`random_walk_profile_reference`] and produces the identical profile;
/// the per-step work runs on dense tables (a per-block exit flag, a flat
/// edge-target array, and a precomputed drain edge per block) instead of
/// scanning the exit-block list and re-deriving the drain choice every
/// step.
///
/// # Panics
///
/// Panics if the CFG has blocks that cannot reach an exit (the IR verifier
/// rejects such functions).
pub fn random_walk_profile(cfg: &Cfg, walks: u64, max_steps: u64, seed: u64) -> EdgeProfile {
    let n = cfg.num_blocks();
    let mut is_exit = vec![false; n];
    for &b in cfg.exit_blocks() {
        is_exit[b.index()] = true;
    }
    let edge_to: Vec<u32> = cfg.edges().map(|(_, e)| e.to.index() as u32).collect();
    // Per block: its successor edge ids, and the drain edge (successor
    // closest to an exit, first wins ties — exactly the reference's
    // `min_by_key`).
    let dist = distance_to_exit(cfg);
    let mut drain = vec![u32::MAX; n];
    for (bi, slot) in drain.iter_mut().enumerate() {
        let succs = cfg.succ_edges(BlockId::from_index(bi));
        if let Some(&e) = succs
            .iter()
            .min_by_key(|&&e| dist[edge_to[e.index()] as usize])
        {
            *slot = e.index() as u32;
        }
    }

    // Successor edge ids flattened to CSR: one contiguous array, no
    // per-block Vec indirection on the hot stepping loop.
    let mut succ_off = Vec::with_capacity(n + 1);
    let mut succ_items: Vec<u32> = Vec::with_capacity(cfg.num_edges());
    succ_off.push(0u32);
    for bi in 0..n {
        for &e in cfg.succ_edges(BlockId::from_index(bi)) {
            succ_items.push(e.index() as u32);
        }
        succ_off.push(succ_items.len() as u32);
    }

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut counts = vec![0u64; cfg.num_edges()];
    for _ in 0..walks {
        let mut b = cfg.entry().index();
        let mut steps = 0u64;
        while !is_exit[b] {
            let succs = &succ_items[succ_off[b] as usize..succ_off[b + 1] as usize];
            assert!(!succs.is_empty(), "non-exit block without successors");
            let e = if steps < max_steps {
                succs[rng.gen_range(0..succs.len())] as usize
            } else {
                // Drain to the nearest exit.
                drain[b] as usize
            };
            counts[e] += 1;
            b = edge_to[e] as usize;
            steps += 1;
        }
    }

    EdgeProfile::new(cfg, counts, walks)
}

/// The retired walk implementation, kept verbatim as the reference for
/// the module-scale differential test (`tests/differential_solver.rs`).
/// Bit-identical output to [`random_walk_profile`].
pub fn random_walk_profile_reference(
    cfg: &Cfg,
    walks: u64,
    max_steps: u64,
    seed: u64,
) -> EdgeProfile {
    let dist = distance_to_exit(cfg);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut counts = vec![0u64; cfg.num_edges()];

    for _ in 0..walks {
        let mut b = cfg.entry();
        let mut steps = 0u64;
        while !cfg.exit_blocks().contains(&b) {
            let succs = cfg.succ_edges(b);
            assert!(!succs.is_empty(), "non-exit block without successors");
            let e = if steps < max_steps {
                succs[rng.gen_range(0..succs.len())]
            } else {
                // Drain to the nearest exit.
                *succs
                    .iter()
                    .min_by_key(|&&e| dist[cfg.edge(e).to.index()])
                    .expect("non-empty")
            };
            counts[e.index()] += 1;
            b = cfg.edge(e).to;
            steps += 1;
        }
    }

    EdgeProfile::new(cfg, counts, walks)
}

/// BFS distance from each block to the nearest exit block.
fn distance_to_exit(cfg: &Cfg) -> Vec<u32> {
    let mut dist = vec![u32::MAX; cfg.num_blocks()];
    let mut queue: std::collections::VecDeque<BlockId> =
        cfg.exit_blocks().iter().copied().collect();
    for &b in cfg.exit_blocks() {
        dist[b.index()] = 0;
    }
    while let Some(b) = queue.pop_front() {
        for p in cfg.pred_blocks(b) {
            if dist[p.index()] == u32::MAX {
                dist[p.index()] = dist[b.index()] + 1;
                queue.push_back(p);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_ir::{Cond, FunctionBuilder, Reg};

    fn loopy() -> spillopt_ir::Function {
        let mut fb = FunctionBuilder::new("loopy", 0);
        let entry = fb.create_block(None);
        let header = fb.create_block(None);
        let body = fb.create_block(None);
        let exit = fb.create_block(None);
        fb.switch_to(entry);
        let i = fb.li(0);
        let n = fb.li(10);
        fb.jump(header);
        fb.switch_to(header);
        fb.branch(Cond::Ge, Reg::Virt(i), Reg::Virt(n), exit, body);
        fb.switch_to(body);
        fb.jump(header);
        fb.switch_to(exit);
        fb.ret(None);
        fb.finish()
    }

    #[test]
    fn conserves_flow() {
        let f = loopy();
        let cfg = Cfg::compute(&f);
        let p = random_walk_profile(&cfg, 500, 64, 42);
        assert_eq!(p.entry_count(), 500);
        assert!(p.flow_violations(&cfg).is_empty());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let f = loopy();
        let cfg = Cfg::compute(&f);
        let a = random_walk_profile(&cfg, 100, 32, 7);
        let b = random_walk_profile(&cfg, 100, 32, 7);
        assert_eq!(a, b);
        let c = random_walk_profile(&cfg, 100, 32, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn fast_walk_is_bit_identical_to_reference() {
        let f = loopy();
        let cfg = Cfg::compute(&f);
        for seed in 0..5u64 {
            let fast = random_walk_profile(&cfg, 200, 16, seed);
            let slow = random_walk_profile_reference(&cfg, 200, 16, seed);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn respects_step_cap() {
        let f = loopy();
        let cfg = Cfg::compute(&f);
        // With a tiny cap, walks still terminate.
        let p = random_walk_profile(&cfg, 50, 1, 3);
        assert!(p.flow_violations(&cfg).is_empty());
    }
}
