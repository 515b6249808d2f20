//! SESE region extraction from cycle-equivalence classes.
//!
//! A pair of augmented edges `(a, b)` is a *single-entry single-exit
//! region* iff `a` dominates `b`, `b` post-dominates `a`, and `a`, `b` are
//! cycle equivalent. Within one cycle-equivalence class the edges form a
//! dominance chain `e1, e2, ..., ek`; consecutive pairs are the *canonical*
//! (smallest) regions and `(e1, ek)` is the *maximal* region — the variant
//! this paper's algorithm uses (its Section 4 definition), and the only
//! one built here.
//!
//! These chains are the dominance-based route to the boundaries, used by
//! [`crate::Pst::compute_reference`]; [`crate::Pst::compute`] reads the
//! same boundaries off its DFS instead.

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
#[derive(Clone, Debug)]
pub struct SeseChains {
    chains: Vec<Vec<usize>>,
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

        // Every class's members in edge order. The virtual top edge is
        // never a boundary.
        let num_classes = classes.iter().max().map_or(0, |&m| m as usize + 1);
        let mut members = vec![Vec::new(); num_classes];
        for (i, &c) in classes.iter().enumerate() {
            if !matches!(aug.edges[i].what, AugEdgeRef::Top) {
                members[c as usize].push(i);
            }
        }
        let mut chains = Vec::new();
        for mut class in members {
            class.sort_by_key(|&e| aug.edge_depth(e));
            // Split into maximal valid runs.
            let mut run: Vec<usize> = Vec::new();
            for e in class {
                if let Some(&prev) = run.last() {
                    if !(aug.edge_dominates(prev, e) && aug.edge_postdominates(e, prev)) {
                        chains.push(std::mem::take(&mut run));
                    }
                }
                run.push(e);
            }
            chains.push(run);
        }
        chains.retain(|chain| chain.len() >= 2);
        SeseChains { chains }
    }

    /// The chains, each a dominance-ordered slice of augmented-edge
    /// indices (virtual top edge excluded).
    pub fn chains(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.chains.iter().map(Vec::as_slice)
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
        for m in &chains.maximal_regions() {
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
        assert_eq!((maximal[0].entry, maximal[0].exit), (all[0][0], all[0][2]));
    }
}
