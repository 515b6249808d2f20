//! The drift workload's profile stream: before each pass, every
//! function's profile takes one seeded mutation of the drift fuzzer's
//! five kinds. Built from public APIs only (`Cfg::compute`,
//! `EdgeProfile::new`, `edge_counts`, `entry_count`).

use crate::inputs::{Rng, Unit};
use spillopt_ir::Cfg;
use spillopt_profile::EdgeProfile;

/// The five mutation kinds, in the order their counts are reported.
pub const KINDS: [&str; 5] = ["zero", "entry_bump", "edge_bump", "rerandomize", "move"];

/// Mutation counts of one pass, indexed like [`KINDS`].
pub type KindCounts = [u64; 5];

/// The stream state: each function's CFG (computed once) plus the seed.
#[derive(Debug)]
pub struct DriftStream {
    seed: u64,
    cfgs: Vec<Vec<Cfg>>,
}

impl DriftStream {
    /// A stream over `units`, keyed by the benchmark seed.
    pub fn new(units: &[Unit], seed: u64) -> Self {
        let cfgs = units
            .iter()
            .map(|u| {
                u.module
                    .func_ids()
                    .map(|f| Cfg::compute(u.module.func(f)))
                    .collect()
            })
            .collect();
        DriftStream { seed, cfgs }
    }

    /// Applies pass `pass`'s mutation to every function profile of
    /// `units` in place and returns how many of each kind ran. Pure in
    /// `(seed, pass, current profiles)`.
    pub fn mutate(&self, units: &mut [Unit], pass: u64) -> KindCounts {
        let mut counts = [0u64; 5];
        for (ui, unit) in units.iter_mut().enumerate() {
            for (fi, profile) in unit.profiles.iter_mut().enumerate() {
                let stream = (pass << 32) ^ ((ui as u64) << 16) ^ fi as u64;
                let mut rng = Rng::new(self.seed, stream);
                let kind = rng.range(0, 5) as usize;
                counts[kind] += 1;
                *profile = mutated(&self.cfgs[ui][fi], profile, kind, &mut rng);
            }
        }
        counts
    }
}

/// One mutation of `kind` (an index into [`KINDS`]).
fn mutated(cfg: &Cfg, profile: &EdgeProfile, kind: usize, rng: &mut Rng) -> EdgeProfile {
    let mut counts = profile.edge_counts().to_vec();
    let mut entry = profile.entry_count();
    match kind {
        // Zero delta: the session serves its cached outcome.
        0 => {}
        // Entry bump: block weights change, so the session re-allocates
        // and compares.
        1 => entry = (entry + rng.range(1, 100)) & 0xffff,
        // Single-edge bump.
        2 if !counts.is_empty() => {
            let e = rng.range(0, counts.len() as u64) as usize;
            counts[e] = (counts[e] + rng.range(1, 1000)) & 0xffff;
        }
        // Full re-randomize: usually a new allocation and a cold rebuild.
        3 => {
            for c in counts.iter_mut() {
                *c = rng.range(0, 1000);
            }
            entry = rng.range(1, 1000);
        }
        // Weights-preserving move between two edges into one block (no
        // block count changes, so the allocation stays and the session
        // re-folds incrementally); a plain bump where no pair exists.
        _ => match weight_preserving_pair(cfg, &counts) {
            Some((a, b)) => {
                let moved = rng.range(1, counts[a].min(64) + 1);
                counts[a] -= moved;
                counts[b] += moved;
            }
            None if !counts.is_empty() => {
                let e = rng.range(0, counts.len() as u64) as usize;
                counts[e] += 1;
            }
            None => {}
        },
    }
    EdgeProfile::new(cfg, counts, entry)
}

/// Two distinct edges sharing a destination block, the first with a
/// nonzero count.
fn weight_preserving_pair(cfg: &Cfg, counts: &[u64]) -> Option<(usize, usize)> {
    for (ia, ea) in cfg.edges() {
        if counts[ia.index()] == 0 {
            continue;
        }
        for (ib, eb) in cfg.edges() {
            if ia != ib && ea.to == eb.to {
                return Some((ia.index(), ib.index()));
            }
        }
    }
    None
}
