//! The allocation certificate: what an allocation's outcome depends on
//! in the profile.
//!
//! [`crate::allocate`] reads the block weights only through the spill
//! weights, and [`crate::color()`] reads those only at a *blocked*
//! simplify step, where no node has degree < k and the lowest
//! `weight/degree` key is removed as a potential spill. Coalescing,
//! select, spill rewriting and the call-crossing preference never read
//! them. So an allocation is the same under every profile that makes
//! every blocked step choose as it did, and a run with no blocked step
//! is the same under every profile.
//!
//! [`AllocCertificate`] keeps, per round that blocked, the nodes
//! remaining at the first blocked step with the weight-independent
//! parts of their keys, each one's per-block mention counts, and the
//! removal sequence from there on ([`crate::color::BlockedTrace`]).
//! [`AllocCertificate::holds_under`] replays that sequence and re-runs
//! every blocked argmin exactly under new block weights.

use crate::color::{first_min, spill_key, Coloring};
use spillopt_ir::{BlockId, Function, Reg};
use spillopt_profile::EdgeProfile;

/// The blocked spill choices of one allocation (see the module docs).
/// Empty when no round blocked; a default (empty) certificate holds
/// under every profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocCertificate {
    /// One entry per round that blocked at least once, in round order.
    rounds: Vec<BlockedRound>,
}

/// One round's blocked steps over its candidate classes: the nodes
/// remaining at its first blocked step, each a coalesced class.
#[derive(Clone, Debug, PartialEq, Eq)]
struct BlockedRound {
    /// Per class: its key divisor and no-spill bit.
    keys: Vec<(u32, bool)>,
    /// Row ends into `mentions`, one row per class.
    class_ends: Vec<u32>,
    /// `(block index, mentions)` of each class, ascending by block: the
    /// uses and defs of the class's coalesced vregs in that block.
    mentions: Vec<(u32, u32)>,
    /// The removals from the first blocked step through the last: the
    /// position removed from the remaining list and whether the step
    /// blocked (see [`crate::color::BlockedTrace`]).
    removals: Vec<(u32, bool)>,
}

impl AllocCertificate {
    /// Records one coloring round of `func` (the function as that round
    /// colored it, before its spill code). A round with no blocked step
    /// records nothing, so its mentions are never collected.
    pub(crate) fn record_round(&mut self, func: &Function, coloring: &Coloring) {
        let Some(trace) = &coloring.blocked else {
            return;
        };
        // Class row per representative node: its position among the
        // candidates.
        let mut row = vec![u32::MAX; coloring.alias.len()];
        for (class, c) in (0u32..).zip(&trace.candidates) {
            row[c.node as usize] = class;
        }

        // Per-block mentions, counted the way the interference graph
        // accumulates spill weights: every use and def of a vreg.
        let mut per_class: Vec<Vec<(u32, u32)>> = vec![Vec::new(); trace.candidates.len()];
        for b in func.block_ids() {
            let block = u32::try_from(b.index()).expect("block index fits u32");
            let mut mention = |r: Reg| {
                let Reg::Virt(v) = r else {
                    return;
                };
                let class = row[coloring.alias[v.index()] as usize];
                if class == u32::MAX {
                    return;
                }
                let list = &mut per_class[class as usize];
                match list.last_mut() {
                    Some((last, n)) if *last == block => *n += 1,
                    _ => list.push((block, 1)),
                }
            };
            for inst in &func.block(b).insts {
                inst.for_each_use(&mut mention);
                inst.for_each_def(&mut mention);
            }
        }
        // Exact capacities: the certificate lives as long as the
        // allocation it certifies.
        let mut class_ends = Vec::with_capacity(per_class.len());
        let mut mentions = Vec::with_capacity(per_class.iter().map(Vec::len).sum());
        for list in per_class {
            mentions.extend(list);
            class_ends.push(u32::try_from(mentions.len()).expect("mention count fits u32"));
        }
        // Removals after the last blocked step read no weight.
        let replayed = trace.removals.iter().rposition(|&(_, blocked)| blocked);
        let removals = trace.removals[..replayed.map_or(0, |last| last + 1)].to_vec();
        self.rounds.reserve_exact(1);
        self.rounds.push(BlockedRound {
            keys: trace
                .candidates
                .iter()
                .map(|c| (c.degree, c.banned))
                .collect(),
            class_ends,
            mentions,
            removals,
        });
    }

    /// Whether every recorded blocked step makes the same choice under
    /// `profile`'s block weights (`block_count(b).max(1)`, as
    /// [`crate::allocate`] weighs blocks). If so, [`crate::allocate`]
    /// under `profile` returns the function this certificate came from,
    /// with the same result summary: every other decision is
    /// weight-independent, so each round replays.
    pub fn holds_under(&self, profile: &EdgeProfile) -> bool {
        self.rounds.iter().all(|round| round.holds_under(profile))
    }
}

impl BlockedRound {
    fn holds_under(&self, profile: &EdgeProfile) -> bool {
        // Class weights as the coloring sums them: saturating, so the
        // order of the terms does not matter.
        let mut start = 0;
        let weights: Vec<u64> = self
            .class_ends
            .iter()
            .map(|&end| {
                let row = &self.mentions[start..end as usize];
                start = end as usize;
                row.iter().fold(0u64, |w, &(b, n)| {
                    let bw = profile.block_count(BlockId::from_index(b as usize)).max(1);
                    w.saturating_add(bw.saturating_mul(u64::from(n)))
                })
            })
            .collect();
        let mut remaining: Vec<u32> = (0..self.keys.len() as u32).collect();
        for &(pos, blocked) in &self.removals {
            if blocked {
                let keys = remaining.iter().map(|&c| {
                    let (degree, banned) = self.keys[c as usize];
                    spill_key(weights[c as usize], u64::from(degree), banned)
                });
                if first_min(keys) != pos as usize {
                    return false;
                }
            }
            remaining.swap_remove(pos as usize);
        }
        true
    }
}
