//! Edge profiles: dynamic execution counts over a CFG snapshot.

use spillopt_ir::{BlockId, Cfg, EdgeId};
use std::fmt;

/// Dynamic execution counts for every edge of a [`Cfg`] snapshot, plus the
/// function's entry count.
///
/// Block execution counts are derived: a block's count is the sum of its
/// incoming edge counts (the entry block adds the entry count).
///
/// All the paper's cost models price save/restore locations with these
/// counts.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct EdgeProfile {
    edge_counts: Vec<u64>,
    entry_count: u64,
    block_counts: Vec<u64>,
}

impl EdgeProfile {
    /// Creates a profile from raw per-edge counts (indexed by [`EdgeId`])
    /// and the function entry count.
    ///
    /// # Panics
    ///
    /// Panics if `edge_counts.len()` differs from the CFG's edge count.
    pub fn new(cfg: &Cfg, edge_counts: Vec<u64>, entry_count: u64) -> Self {
        assert_eq!(
            edge_counts.len(),
            cfg.num_edges(),
            "edge count vector length mismatch"
        );
        let mut block_counts = vec![0u64; cfg.num_blocks()];
        block_counts[cfg.entry().index()] = entry_count;
        for (id, e) in cfg.edges() {
            block_counts[e.to.index()] += edge_counts[id.index()];
        }
        EdgeProfile {
            edge_counts,
            entry_count,
            block_counts,
        }
    }

    /// A profile with every count zero (useful as a starting accumulator).
    pub fn zeroed(cfg: &Cfg) -> Self {
        EdgeProfile::new(cfg, vec![0; cfg.num_edges()], 0)
    }

    /// The number of times the procedure was entered.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// The execution count of an edge.
    pub fn edge_count(&self, e: EdgeId) -> u64 {
        self.edge_counts[e.index()]
    }

    /// All per-edge counts, indexed by [`EdgeId`] (the driver's session
    /// arena keys cached analyses on the exact profile contents).
    pub fn edge_counts(&self) -> &[u64] {
        &self.edge_counts
    }

    /// The execution count of a block (sum of incoming edges; the entry
    /// block includes the entry count).
    pub fn block_count(&self, b: BlockId) -> u64 {
        self.block_counts[b.index()]
    }

    /// Adds another profile over the same CFG (used to accumulate multiple
    /// runs). Saturating.
    ///
    /// # Panics
    ///
    /// Panics if the profiles have different shapes.
    pub fn accumulate(&mut self, other: &EdgeProfile) {
        assert_eq!(self.edge_counts.len(), other.edge_counts.len());
        for (a, b) in self.edge_counts.iter_mut().zip(&other.edge_counts) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.block_counts.iter_mut().zip(&other.block_counts) {
            *a = a.saturating_add(*b);
        }
        self.entry_count = self.entry_count.saturating_add(other.entry_count);
    }

    /// Multiplies every count by `k` (used to weight a per-invocation
    /// profile by an invocation count). Saturating.
    pub fn scale(&mut self, k: u64) {
        for c in &mut self.edge_counts {
            *c = c.saturating_mul(k);
        }
        for c in &mut self.block_counts {
            *c = c.saturating_mul(k);
        }
        self.entry_count = self.entry_count.saturating_mul(k);
    }

    /// Checks Kirchhoff flow conservation: for every block, flow in
    /// (incoming edges, plus the entry count for the entry block) equals
    /// flow out (outgoing edges, plus returns for exit blocks). Returns the
    /// offending blocks.
    pub fn flow_violations(&self, cfg: &Cfg) -> Vec<BlockId> {
        let mut bad = Vec::new();
        for bi in 0..cfg.num_blocks() {
            let b = BlockId::from_index(bi);
            let inflow = self.block_count(b);
            let out: u64 = cfg.succ_edges(b).iter().map(|&e| self.edge_count(e)).sum();
            let is_exit = cfg.exit_blocks().contains(&b);
            // Exit blocks discharge their inflow through returns.
            let expected_out = if is_exit { 0 } else { inflow };
            if out != expected_out {
                bad.push(b);
            }
        }
        bad
    }
}

/// The difference between two [`EdgeProfile`]s of the *same* CFG: which
/// edge counts changed, and whether the entry count changed.
///
/// This is the seed of the driver's delta-driven re-optimization: every
/// changed edge dirties the PST regions whose folded placement products
/// price that edge, and only those regions (plus their ancestor path to
/// the root) are re-folded. An empty delta proves the two profiles are
/// identical, so every profile-derived product may be reused wholesale.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileDelta {
    changed_edges: Vec<EdgeId>,
    entry_changed: bool,
}

impl ProfileDelta {
    /// Computes the delta from `old` to `new`.
    ///
    /// # Panics
    ///
    /// Panics if the profiles have different shapes (they must describe
    /// the same CFG snapshot).
    pub fn between(old: &EdgeProfile, new: &EdgeProfile) -> Self {
        assert_eq!(
            old.edge_counts.len(),
            new.edge_counts.len(),
            "profile delta across different CFG shapes"
        );
        let changed_edges = old
            .edge_counts
            .iter()
            .zip(&new.edge_counts)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| EdgeId::from_index(i))
            .collect();
        ProfileDelta {
            changed_edges,
            entry_changed: old.entry_count != new.entry_count,
        }
    }

    /// Edges whose counts differ, in ascending [`EdgeId`] order.
    pub fn changed_edges(&self) -> &[EdgeId] {
        &self.changed_edges
    }

    /// Whether the function entry count differs.
    pub fn entry_changed(&self) -> bool {
        self.entry_changed
    }

    /// `true` iff the two profiles were identical (no edge nor the entry
    /// count changed) — block counts are derived, so nothing else can
    /// differ either.
    pub fn is_empty(&self) -> bool {
        self.changed_edges.is_empty() && !self.entry_changed
    }
}

impl fmt::Debug for EdgeProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeProfile")
            .field("entry_count", &self.entry_count)
            .field("edge_counts", &self.edge_counts)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_ir::{Cond, FunctionBuilder, Reg};

    fn diamond() -> (spillopt_ir::Function, [BlockId; 4]) {
        let mut fb = FunctionBuilder::new("d", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        let c = fb.create_block(None);
        let d = fb.create_block(None);
        fb.switch_to(a);
        let x = fb.li(0);
        let y = fb.li(1);
        fb.branch(Cond::Lt, Reg::Virt(x), Reg::Virt(y), c, b);
        fb.switch_to(b);
        fb.jump(d);
        fb.switch_to(c);
        fb.jump(d);
        fb.switch_to(d);
        fb.ret(None);
        (fb.finish(), [a, b, c, d])
    }

    #[test]
    fn block_counts_are_inflow() {
        let (f, [a, b, c, d]) = diamond();
        let cfg = Cfg::compute(&f);
        let mut counts = vec![0u64; cfg.num_edges()];
        counts[cfg.edge_between(a, b).unwrap().index()] = 30;
        counts[cfg.edge_between(a, c).unwrap().index()] = 70;
        counts[cfg.edge_between(b, d).unwrap().index()] = 30;
        counts[cfg.edge_between(c, d).unwrap().index()] = 70;
        let p = EdgeProfile::new(&cfg, counts, 100);
        assert_eq!(p.block_count(a), 100);
        assert_eq!(p.block_count(b), 30);
        assert_eq!(p.block_count(c), 70);
        assert_eq!(p.block_count(d), 100);
        assert!(p.flow_violations(&cfg).is_empty());
    }

    #[test]
    fn flow_violation_detected() {
        let (f, [a, b, _c, _d]) = diamond();
        let cfg = Cfg::compute(&f);
        let mut counts = vec![0u64; cfg.num_edges()];
        counts[cfg.edge_between(a, b).unwrap().index()] = 5;
        let p = EdgeProfile::new(&cfg, counts, 100);
        assert!(!p.flow_violations(&cfg).is_empty());
    }

    #[test]
    fn delta_names_exactly_the_changed_edges() {
        let (f, [a, b, ..]) = diamond();
        let cfg = Cfg::compute(&f);
        let counts = vec![5u64; cfg.num_edges()];
        let p = EdgeProfile::new(&cfg, counts.clone(), 3);
        assert!(ProfileDelta::between(&p, &p).is_empty());

        let ab = cfg.edge_between(a, b).unwrap();
        let mut bumped = counts.clone();
        bumped[ab.index()] = 9;
        let q = EdgeProfile::new(&cfg, bumped, 3);
        let d = ProfileDelta::between(&p, &q);
        assert_eq!(d.changed_edges(), &[ab]);
        assert!(!d.entry_changed());
        assert!(!d.is_empty());

        let r = EdgeProfile::new(&cfg, counts, 4);
        let d = ProfileDelta::between(&p, &r);
        assert!(d.changed_edges().is_empty());
        assert!(d.entry_changed());
        assert!(!d.is_empty());
    }

    #[test]
    fn accumulate_and_scale() {
        let (f, [a, b, ..]) = diamond();
        let cfg = Cfg::compute(&f);
        let mut counts = vec![1u64; cfg.num_edges()];
        counts[cfg.edge_between(a, b).unwrap().index()] = 2;
        let mut p = EdgeProfile::new(&cfg, counts.clone(), 3);
        let q = EdgeProfile::new(&cfg, counts, 3);
        p.accumulate(&q);
        assert_eq!(p.entry_count(), 6);
        assert_eq!(p.edge_count(cfg.edge_between(a, b).unwrap()), 4);
        p.scale(10);
        assert_eq!(p.entry_count(), 60);
        assert_eq!(p.edge_count(cfg.edge_between(a, b).unwrap()), 40);
    }
}
