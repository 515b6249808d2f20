//! SESE region extraction from cycle-equivalence classes.
//!
//! A pair of augmented edges `(a, b)` is a *single-entry single-exit
//! region* iff `a` dominates `b`, `b` post-dominates `a`, and `a`, `b` are
//! cycle equivalent. Within one cycle-equivalence class the edges form a
//! dominance chain `e1, e2, ..., ek`; consecutive pairs are the *canonical*
//! (smallest) regions and `(e1, ek)` is the *maximal* region — the variant
//! this paper's algorithm uses (its Section 4 definition).

use crate::augment::{AugEdgeRef, AugGraph};
use crate::cycle_equiv::cycle_equivalence_classes;

/// A SESE region as a pair of augmented-edge indices.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SesePair {
    /// Entry edge (augmented-edge index).
    pub entry: usize,
    /// Exit edge (augmented-edge index).
    pub exit: usize,
}

/// The dominance chains of every cycle-equivalence class with ≥ 2 members.
///
/// The chains are stored back to back in one flat array: chain `k` is
/// `edges[bounds[k]..bounds[k + 1]]`.
#[derive(Clone, Debug)]
pub struct SeseChains {
    edges: Vec<usize>,
    bounds: Vec<usize>,
}

impl SeseChains {
    /// Computes the chains of `aug`.
    ///
    /// The cycle-equivalence classes are ordered by dominance depth and
    /// split wherever the chain property (`a` dominates `b` and `b`
    /// post-dominates `a` for consecutive members) fails — with exact
    /// arithmetic this never happens on the augmented graph of a valid
    /// CFG, but splitting keeps the construction sound unconditionally.
    /// Chains come out in class-id order.
    pub fn compute(aug: &AugGraph) -> Self {
        let undirected: Vec<(usize, usize)> = aug.edges.iter().map(|e| (e.from, e.to)).collect();
        let classes = cycle_equivalence_classes(aug.num_blocks + 1, &undirected);

        // Group the members of every class by a stable counting sort on
        // the class id: class `c` is `members[start[c]..start[c + 1]]`,
        // in edge order. The virtual top edge is never a boundary.
        let num_classes = classes.iter().copied().max().map_or(0, |m| m as usize + 1);
        let is_top = |i: usize| matches!(aug.edges[i].what, AugEdgeRef::Top);
        let mut start = vec![0usize; num_classes + 1];
        for (i, &c) in classes.iter().enumerate() {
            if !is_top(i) {
                start[c as usize + 1] += 1;
            }
        }
        for c in 1..=num_classes {
            start[c] += start[c - 1];
        }
        let mut fill = start.clone();
        let mut members = vec![0usize; start[num_classes]];
        for (i, &c) in classes.iter().enumerate() {
            if !is_top(i) {
                members[fill[c as usize]] = i;
                fill[c as usize] += 1;
            }
        }

        let mut chains = SeseChains {
            edges: Vec::with_capacity(members.len()),
            bounds: vec![0],
        };
        for c in 0..num_classes {
            let m = &mut members[start[c]..start[c + 1]];
            if m.len() < 2 {
                continue;
            }
            m.sort_by_key(|&e| aug.edge_depth(e));
            // Split into maximal valid runs.
            chains.edges.push(m[0]);
            for &e in &m[1..] {
                let prev = *chains.edges.last().expect("non-empty run");
                if !(aug.edge_dominates(prev, e) && aug.edge_postdominates(e, prev)) {
                    chains.close_run();
                }
                chains.edges.push(e);
            }
            chains.close_run();
        }
        chains
    }

    /// Ends the run open at the back of `edges`: kept as a chain if it
    /// has ≥ 2 members, dropped otherwise.
    fn close_run(&mut self) {
        let run_start = *self.bounds.last().expect("bounds start at 0");
        if self.edges.len() - run_start >= 2 {
            self.bounds.push(self.edges.len());
        } else {
            self.edges.truncate(run_start);
        }
    }

    /// The chains, each a dominance-ordered slice of augmented-edge
    /// indices (virtual top edge excluded).
    pub fn chains(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.bounds.windows(2).map(|w| &self.edges[w[0]..w[1]])
    }

    /// All canonical (smallest) SESE regions: consecutive chain pairs.
    pub fn canonical_regions(&self) -> Vec<SesePair> {
        let mut out = Vec::new();
        for chain in self.chains() {
            for w in chain.windows(2) {
                out.push(SesePair {
                    entry: w[0],
                    exit: w[1],
                });
            }
        }
        out
    }

    /// All maximal SESE regions: first and last edge of each chain
    /// (the paper's Section 4 definition: the exit post-dominates every
    /// class member's exit and the entry dominates every member's entry).
    pub fn maximal_regions(&self) -> Vec<SesePair> {
        self.chains()
            .map(|chain| SesePair {
                entry: *chain.first().expect("chains have ≥ 2 members"),
                exit: *chain.last().expect("chains have ≥ 2 members"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_ir::{Cfg, Cond, FunctionBuilder, Reg};

    /// entry -> A; A -> {B, C}; B -> D; C -> D; D -> exit(ret).
    /// The diamond {A.., D} region: entry edge entry->A ... Actually the
    /// chain entry->A, A-diamond-D, D->ret gives nested regions.
    fn diamond_func() -> spillopt_ir::Function {
        let mut fb = FunctionBuilder::new("d", 0);
        let entry = fb.create_block(Some("entry"));
        let a = fb.create_block(Some("A"));
        let b = fb.create_block(Some("B"));
        let c = fb.create_block(Some("C"));
        let d = fb.create_block(Some("D"));
        fb.switch_to(entry);
        fb.jump(a);
        fb.switch_to(a);
        let x = fb.li(0);
        fb.branch(Cond::Lt, Reg::Virt(x), Reg::Virt(x), c, b);
        fb.switch_to(b);
        fb.jump(d);
        fb.switch_to(c);
        fb.jump(d);
        fb.switch_to(d);
        fb.ret(None);
        fb.finish()
    }

    #[test]
    fn diamond_produces_spine_chain() {
        let f = diamond_func();
        let cfg = Cfg::compute(&f);
        let aug = AugGraph::build(&cfg);
        let chains = SeseChains::compute(&aug);
        // The spine entry->A, (A..D is 2 parallel paths so not in spine),
        // D->END: one chain contains entry->A and D->END (cycle
        // equivalent through the top edge).
        let spine = chains
            .chains()
            .find(|c| c.len() >= 2)
            .expect("at least one chain");
        // First edge of spine dominates last and is postdominated by it.
        let (first, last) = (spine[0], *spine.last().unwrap());
        assert!(aug.edge_dominates(first, last));
        assert!(aug.edge_postdominates(last, first));
        // Canonical count within a chain of length k is k-1.
        let canon = chains.canonical_regions();
        let maximal = chains.maximal_regions();
        assert!(canon.len() >= maximal.len());
        for m in &maximal {
            assert!(aug.edge_dominates(m.entry, m.exit));
            assert!(aug.edge_postdominates(m.exit, m.entry));
        }
    }

    #[test]
    fn straightline_chain_is_fully_equivalent() {
        // A -> B -> C -> ret: all edges plus the return edge form one
        // chain A->B, B->C, C->END.
        let mut fb = FunctionBuilder::new("s", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        let c = fb.create_block(None);
        fb.switch_to(a);
        fb.jump(b);
        fb.switch_to(b);
        fb.jump(c);
        fb.switch_to(c);
        fb.ret(None);
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let aug = AugGraph::build(&cfg);
        let chains = SeseChains::compute(&aug);
        let all: Vec<&[usize]> = chains.chains().collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].len(), 3); // A->B, B->C, C->END
        let maximal = chains.maximal_regions();
        assert_eq!(maximal.len(), 1);
        let canon = chains.canonical_regions();
        assert_eq!(canon.len(), 2);
    }
}
