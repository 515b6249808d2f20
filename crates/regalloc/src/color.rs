//! Briggs-style optimistic graph coloring with conservative coalescing.

use crate::interfere::InterferenceGraph;
use spillopt_ir::{BitMatrix, DenseBitSet, PReg, Target, UnionFind, VReg};

/// Outcome of one coloring attempt.
#[derive(Clone, Debug)]
pub struct Coloring {
    /// Color (physical register) per virtual register, for colored vregs.
    pub assignment: Vec<Option<PReg>>,
    /// Virtual registers that must be spilled.
    pub spills: Vec<VReg>,
    /// Number of vreg pairs coalesced.
    pub coalesced: usize,
    /// The coalescing map: representative vreg per vreg.
    pub alias: Vec<u32>,
    /// The simplify order from the first blocked step on; `None` when
    /// no step blocked. Blocked steps are the only decisions that read
    /// the spill weights.
    pub blocked: Option<BlockedTrace>,
}

/// The simplify loop from its first *blocked* step on. A blocked step
/// is one where no remaining node had degree < k, so the node with the
/// lowest `weight/degree` key was removed as a potential spill. Every
/// other step removes the first node of degree < k, which no weight
/// decides. Replaying `removals` from `candidates` therefore yields
/// each blocked step's candidates in scan order, and its choice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockedTrace {
    /// The nodes remaining at the first blocked step, in scan order.
    pub candidates: Vec<SpillCandidate>,
    /// Each removal from the remaining list (by `swap_remove`) from the
    /// first blocked step on: the position removed, and whether the step
    /// was blocked.
    pub removals: Vec<(u32, bool)>,
}

/// A node competing at blocked steps, with the weight-independent parts
/// of its key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillCandidate {
    /// The (representative) node.
    pub node: u32,
    /// Its coalesced degree, at least 1: the key's divisor.
    pub degree: u32,
    /// A no-spill node: it sorts after every other candidate.
    pub banned: bool,
}

/// A blocked step's spill key: `weight/degree` scaled by 2^32, with
/// banned (no-spill) nodes after every other.
pub(crate) fn spill_key(weight: u64, degree: u64, banned: bool) -> u128 {
    ((banned as u128) << 100) | (((weight as u128) << 32) / degree as u128)
}

/// The position of the first strictly lowest key: a blocked step's
/// choice.
pub(crate) fn first_min(keys: impl Iterator<Item = u128>) -> usize {
    let mut best: Option<(usize, u128)> = None;
    for (pos, key) in keys.enumerate() {
        if best.is_none_or(|(_, k)| key < k) {
            best = Some((pos, key));
        }
    }
    best.expect("a blocked step has candidates").0
}

/// Appends one simplify removal to `trace`, opening it at the first
/// blocked step; `candidate` describes a remaining node.
fn trace_removal(
    trace: &mut Option<BlockedTrace>,
    remaining: &[usize],
    pos: usize,
    blocked: bool,
    candidate: impl Fn(usize) -> SpillCandidate,
) {
    if blocked && trace.is_none() {
        *trace = Some(BlockedTrace {
            candidates: remaining.iter().map(|&i| candidate(i)).collect(),
            removals: Vec::new(),
        });
    }
    if let Some(t) = trace {
        let pos = u32::try_from(pos).expect("simplify position fits u32");
        t.removals.push((pos, blocked));
    }
}

/// The [`SpillCandidate`] of node `i`.
fn candidate(i: usize, degree: usize, no_spill: &DenseBitSet) -> SpillCandidate {
    SpillCandidate {
        node: u32::try_from(i).expect("node index fits u32"),
        degree: u32::try_from(degree.max(1)).expect("degree fits u32"),
        banned: no_spill.contains(i),
    }
}

/// Attempts to color the graph with the target's registers.
///
/// `no_spill` marks vregs created by earlier spill rewriting (their live
/// ranges are minimal and respilling them cannot help); they are chosen
/// for spilling only if nothing else is available.
///
/// Decision-for-decision identical to [`color_reference`] (same
/// coalesces, same simplify order, same spill choices, same colors). The
/// adjacency is one flat [`BitMatrix`] copied from the graph's rows.
/// After coalescing, the aliases are folded into that matrix, the spill
/// weights and the call-crossing flags in place: only rows that name a
/// merged-away node are rewritten, so a graph with no coalesced move is
/// colored straight off its copied rows. Scratch buffers are reused
/// instead of allocating in the select loop.
pub fn color(graph: &InterferenceGraph, target: &Target, no_spill: &DenseBitSet) -> Coloring {
    let nv = graph.num_vregs();
    let nn = graph.num_nodes();
    let k = target.num_regs();

    // --- Conservative (Briggs) coalescing on virtual pairs. ---
    let mut alias = UnionFind::new(nv);
    // Effective adjacency after coalescing, one flat matrix over all
    // nodes (rows only for vregs).
    let mut adj = BitMatrix::new(nv, nn);
    for i in 0..nv {
        adj.row_union_words(i, graph.adjacency_words(i));
    }
    let mut coalesced = 0;
    let mut scratch_words: Vec<u64> = Vec::new();
    let mut scratch_items: Vec<usize> = Vec::new();
    for &(a, b) in &graph.moves {
        let (ra, rb) = (alias.find(a as usize), alias.find(b as usize));
        if ra == rb {
            continue;
        }
        // Interference test under aliasing: a neighbor recorded before a
        // later merge must be resolved through the alias map.
        let interferes = |alias: &mut UnionFind, adj: &BitMatrix, x: usize, y: usize| {
            adj.row_iter(x).any(|n| {
                let n = if n < nv { alias.find(n) } else { n };
                n == y
            })
        };
        if interferes(&mut alias, &adj, ra, rb) || interferes(&mut alias, &adj, rb, ra) {
            continue;
        }
        // Briggs test: the merged node must have < k neighbors of
        // significant degree.
        scratch_words.clear();
        scratch_words.extend_from_slice(adj.row_words(ra));
        for (w, o) in scratch_words.iter_mut().zip(adj.row_words(rb)) {
            *w |= o;
        }
        let mut significant = 0usize;
        for (wi, &word) in scratch_words.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let x = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let d = if x < nv {
                    adj.row_count(alias.find(x))
                } else {
                    graph.degree(x)
                };
                if d >= k {
                    significant += 1;
                }
            }
        }
        if significant < k {
            alias.union(ra, rb);
            let root = alias.find(ra);
            let other = if root == ra { rb } else { ra };
            adj.row_union_row_within(root, other);
            // Canonicalize so later tests and degree estimates see merged
            // representatives.
            scratch_items.clear();
            scratch_items.extend(adj.row_iter(root));
            adj.row_clear(root);
            for &x in &scratch_items {
                let y = if x < nv { alias.find(x) } else { x };
                if y != root {
                    adj.set(root, y);
                }
            }
            coalesced += 1;
        }
    }

    // Representative nodes after coalescing.
    let reps: Vec<usize> = (0..nv).filter(|&i| alias.find(i) == i).collect();
    // Fold the aliases in place: a merged-away node's weight and
    // call-crossing flag move onto its representative, and a
    // representative's row that names a merged-away neighbor is
    // re-pointed through the alias map. Rows of merged-away nodes are
    // never read again. (Saturating sums of non-negative weights do not
    // depend on their order.)
    let mut weight: Vec<u64> = graph.weight[..nv].to_vec();
    let mut crosses = graph.crosses_call.clone();
    if coalesced > 0 {
        let mut merged_away = DenseBitSet::new(nn);
        for v in 0..nv {
            let r = alias.find(v);
            if r != v {
                merged_away.insert(v);
                weight[r] = weight[r].saturating_add(graph.weight[v]);
                if graph.crosses_call.contains(v) {
                    crosses.insert(r);
                }
            }
        }
        for &r in &reps {
            let stale = adj
                .row_words(r)
                .iter()
                .zip(merged_away.words())
                .any(|(a, m)| a & m != 0);
            if stale {
                scratch_items.clear();
                scratch_items.extend(adj.row_iter(r));
                adj.row_clear(r);
                for &x in &scratch_items {
                    let y = if x < nv { alias.find(x) } else { x };
                    if y != r {
                        adj.set(r, y);
                    }
                }
            }
        }
    }

    // --- Simplify. ---
    let mut removed = DenseBitSet::new(nv);
    let mut degree: Vec<usize> = (0..nv).map(|i| adj.row_count(i)).collect();
    let mut stack: Vec<usize> = Vec::new();
    let mut trace = None;
    let mut remaining: Vec<usize> = reps.clone();
    while !remaining.is_empty() {
        // Pick a low-degree node if any; otherwise the step blocks, and
        // the potential spill is the lowest weight/degree, avoiding
        // no-spill nodes.
        let (pos, blocked) = match remaining.iter().position(|&i| degree[i] < k) {
            Some(p) => (p, false),
            None => {
                let keys = remaining.iter().map(|&i| {
                    let d = adj.row_count(i).max(1) as u64;
                    spill_key(weight[i], d, no_spill.contains(i))
                });
                (first_min(keys), true)
            }
        };
        trace_removal(&mut trace, &remaining, pos, blocked, |i| {
            candidate(i, adj.row_count(i), no_spill)
        });
        let chosen = remaining.swap_remove(pos);
        removed.insert(chosen);
        for x in adj.row_iter(chosen) {
            if x < nv && !removed.contains(x) {
                degree[x] = degree[x].saturating_sub(1);
            }
        }
        stack.push(chosen);
    }

    // --- Select (optimistic). ---
    // Preference: call-crossing nodes try callee-saved first; others try
    // caller-saved first. Within each class, low index first so few
    // distinct callee-saved registers get used.
    let mut color_of: Vec<Option<PReg>> = vec![None; nv];
    let mut spills = Vec::new();
    let mut forbidden = DenseBitSet::new(target.reg_index_limit());
    while let Some(i) = stack.pop() {
        forbidden.clear();
        for x in adj.row_iter(i) {
            if x >= nv {
                forbidden.insert(x - nv);
            } else if let Some(p) = color_of[x] {
                forbidden.insert(p.index());
            }
        }
        let pick = if crosses.contains(i) {
            target
                .callee_saved()
                .iter()
                .chain(target.caller_saved())
                .copied()
                .find(|p| !forbidden.contains(p.index()))
        } else {
            // The target's allocatable order is caller-saved first —
            // exactly the preference for values that do not cross calls.
            target
                .allocatable()
                .find(|p| !forbidden.contains(p.index()))
        };
        match pick {
            Some(p) => color_of[i] = Some(p),
            None => spills.push(VReg::from_index(i)),
        }
    }

    // Propagate representative colors to aliases.
    let mut assignment = vec![None; nv];
    for v in 0..nv {
        assignment[v] = color_of[alias.find(v)];
    }
    let alias_vec: Vec<u32> = (0..nv).map(|v| alias.find(v) as u32).collect();

    Coloring {
        assignment,
        spills,
        coalesced,
        alias: alias_vec,
        blocked: trace,
    }
}

/// The retired coloring implementation, kept verbatim as the reference
/// for differential tests. Same output as [`color`].
pub fn color_reference(
    graph: &InterferenceGraph,
    target: &Target,
    no_spill: &DenseBitSet,
) -> Coloring {
    let nv = graph.num_vregs();
    let k = target.num_regs();

    // --- Conservative (Briggs) coalescing on virtual pairs. ---
    let mut alias = UnionFind::new(nv);
    // Effective adjacency after coalescing, as bitsets over all nodes.
    let mut adj: Vec<DenseBitSet> = (0..nv)
        .map(|i| {
            let mut s = DenseBitSet::new(graph.num_nodes());
            for x in graph.neighbors(i) {
                s.insert(x);
            }
            s
        })
        .collect();
    let mut coalesced = 0;
    for &(a, b) in &graph.moves {
        let (ra, rb) = (alias.find(a as usize), alias.find(b as usize));
        if ra == rb {
            continue;
        }
        // Interference test under aliasing: a neighbor recorded before a
        // later merge must be resolved through the alias map.
        let interferes = |alias: &mut UnionFind, adj: &[DenseBitSet], x: usize, y: usize| {
            adj[x].iter().any(|n| {
                let n = if n < nv { alias.find(n) } else { n };
                n == y
            })
        };
        if interferes(&mut alias, &adj, ra, rb) || interferes(&mut alias, &adj, rb, ra) {
            continue;
        }
        // Briggs test: the merged node must have < k neighbors of
        // significant degree.
        let mut merged = adj[ra].clone();
        merged.union_with(&adj[rb]);
        let significant = merged
            .iter()
            .filter(|&x| {
                let d = if x < nv {
                    adj[alias.find(x)].count()
                } else {
                    graph.degree(x)
                };
                d >= k
            })
            .count();
        if significant < k {
            alias.union(ra, rb);
            let root = alias.find(ra);
            let other = if root == ra { rb } else { ra };
            let other_set = adj[other].clone();
            adj[root].union_with(&other_set);
            // Canonicalize so later tests and degree estimates see merged
            // representatives.
            let items: Vec<usize> = adj[root].iter().collect();
            adj[root].clear();
            for x in items {
                let y = if x < nv { alias.find(x) } else { x };
                if y != root {
                    adj[root].insert(y);
                }
            }
            coalesced += 1;
        }
    }

    // Representative nodes after coalescing.
    let reps: Vec<usize> = (0..nv).filter(|&i| alias.find(i) == i).collect();
    // Re-point adjacency of representatives through aliases: a neighbor
    // that was coalesced must be counted via its representative.
    let resolve = |alias: &mut UnionFind, x: usize| -> usize {
        if x < nv {
            alias.find(x)
        } else {
            x
        }
    };
    let mut rep_adj: Vec<DenseBitSet> = vec![DenseBitSet::new(graph.num_nodes()); nv];
    for &r in &reps {
        let items: Vec<usize> = adj[r].iter().collect();
        for x in items {
            let y = resolve(&mut alias, x);
            if y != r {
                rep_adj[r].insert(y);
            }
        }
    }

    // Spill metric: weight / degree, with no-spill nodes effectively
    // infinite.
    let metric = |alias: &mut UnionFind, rep_adj: &[DenseBitSet], i: usize| -> (u64, u64) {
        let mut w = 0u64;
        for v in 0..nv {
            if alias.find(v) == i {
                w = w.saturating_add(graph.weight[v]);
            }
        }
        let d = rep_adj[i].count().max(1) as u64;
        (w, d)
    };

    // --- Simplify. ---
    let mut removed = DenseBitSet::new(nv);
    let mut degree: Vec<usize> = (0..nv).map(|i| rep_adj[i].count()).collect();
    let mut stack: Vec<usize> = Vec::new();
    let mut trace = None;
    let mut remaining: Vec<usize> = reps.clone();
    while !remaining.is_empty() {
        // Pick a low-degree node if any.
        let (pos, blocked) = match remaining.iter().position(|&i| degree[i] < k) {
            Some(p) => (p, false),
            None => {
                // Potential spill: lowest weight/degree, avoiding
                // no-spill nodes.
                let mut keys = Vec::with_capacity(remaining.len());
                for &i in &remaining {
                    let (w, d) = metric(&mut alias, &rep_adj, i);
                    keys.push(spill_key(w, d, no_spill.contains(i)));
                }
                (first_min(keys.into_iter()), true)
            }
        };
        trace_removal(&mut trace, &remaining, pos, blocked, |i| {
            candidate(i, rep_adj[i].count(), no_spill)
        });
        let chosen = remaining.swap_remove(pos);
        removed.insert(chosen);
        for x in rep_adj[chosen].iter() {
            if x < nv && !removed.contains(x) {
                degree[x] = degree[x].saturating_sub(1);
            }
        }
        stack.push(chosen);
    }

    // --- Select (optimistic). ---
    // Preference: call-crossing nodes try callee-saved first; others try
    // caller-saved first. Within each class, low index first so few
    // distinct callee-saved registers get used.
    let mut color_of: Vec<Option<PReg>> = vec![None; nv];
    let mut spills = Vec::new();
    while let Some(i) = stack.pop() {
        let mut forbidden = DenseBitSet::new(target.reg_index_limit());
        for x in rep_adj[i].iter() {
            if x >= nv {
                forbidden.insert(x - nv);
            } else if let Some(p) = color_of[x] {
                forbidden.insert(p.index());
            }
        }
        let crosses = (0..nv).any(|v| alias.find(v) == i && graph.crosses_call.contains(v));
        let order: Vec<PReg> = if crosses {
            target
                .callee_saved()
                .iter()
                .chain(target.caller_saved())
                .copied()
                .collect()
        } else {
            // The target's allocatable order is caller-saved first —
            // exactly the preference for values that do not cross calls.
            target.allocatable().collect()
        };
        match order.iter().find(|p| !forbidden.contains(p.index())) {
            Some(&p) => color_of[i] = Some(p),
            None => spills.push(VReg::from_index(i)),
        }
    }

    // Propagate representative colors to aliases.
    let mut assignment = vec![None; nv];
    for v in 0..nv {
        assignment[v] = color_of[alias.find(v)];
    }
    let alias_vec: Vec<u32> = (0..nv).map(|v| alias.find(v) as u32).collect();

    Coloring {
        assignment,
        spills,
        coalesced,
        alias: alias_vec,
        blocked: trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_ir::{BinOp, Callee, Cfg, FunctionBuilder, Liveness, Reg};

    fn build_graph(f: &spillopt_ir::Function, t: &Target) -> InterferenceGraph {
        let cfg = Cfg::compute(f);
        let lv = Liveness::compute(f, &cfg, t);
        InterferenceGraph::build(f, &cfg, t, &lv, &vec![1; f.num_blocks()])
    }

    #[test]
    fn colors_small_function_without_spills() {
        let mut fb = FunctionBuilder::new("f", 0);
        let b = fb.create_block(None);
        fb.switch_to(b);
        let x = fb.li(1);
        let y = fb.li(2);
        let z = fb.bin(BinOp::Add, Reg::Virt(x), Reg::Virt(y));
        fb.ret(Some(Reg::Virt(z)));
        let f = fb.finish();
        let t = Target::default();
        let g = build_graph(&f, &t);
        let c = color(&g, &t, &DenseBitSet::new(g.num_vregs()));
        assert!(c.spills.is_empty());
        let px = c.assignment[x.index()].unwrap();
        let py = c.assignment[y.index()].unwrap();
        assert_ne!(px, py, "interfering vregs share a color");
    }

    #[test]
    fn call_crossing_values_get_callee_saved() {
        let mut fb = FunctionBuilder::new("g", 0);
        let b = fb.create_block(None);
        fb.switch_to(b);
        let x = fb.li(1);
        let _ = fb.call(Callee::External(0), &[]);
        fb.ret(Some(Reg::Virt(x)));
        let f = fb.finish();
        let t = Target::default();
        let g = build_graph(&f, &t);
        let c = color(&g, &t, &DenseBitSet::new(g.num_vregs()));
        let px = c.assignment[x.index()].unwrap();
        assert!(t.is_callee_saved(px), "{px} should be callee-saved");
    }

    #[test]
    fn spills_under_tiny_target() {
        // 5 mutually-live vregs on a 4-register target force a spill.
        let t = Target::tiny();
        let mut fb = FunctionBuilder::with_target("h", 0, t.clone());
        let b = fb.create_block(None);
        fb.switch_to(b);
        let vs: Vec<_> = (0..5).map(|i| fb.li(i)).collect();
        let mut acc = vs[0];
        for v in &vs[1..] {
            acc = fb.bin(BinOp::Add, Reg::Virt(acc), Reg::Virt(*v));
        }
        fb.ret(Some(Reg::Virt(acc)));
        let f = fb.finish();
        let g = build_graph(&f, &t);
        let c = color(&g, &t, &DenseBitSet::new(g.num_vregs()));
        assert!(!c.spills.is_empty(), "expected at least one spill");
    }

    #[test]
    fn coalesces_moves() {
        let mut fb = FunctionBuilder::new("m", 0);
        let b = fb.create_block(None);
        fb.switch_to(b);
        let x = fb.li(1);
        let y = fb.new_vreg();
        fb.mov(Reg::Virt(y), Reg::Virt(x));
        fb.ret(Some(Reg::Virt(y)));
        let f = fb.finish();
        let t = Target::default();
        let g = build_graph(&f, &t);
        let c = color(&g, &t, &DenseBitSet::new(g.num_vregs()));
        assert!(c.coalesced >= 1);
        assert_eq!(c.assignment[x.index()], c.assignment[y.index()]);
    }

    /// The fast and reference colorings must agree decision for decision
    /// on a function with moves, calls, branches, and pressure.
    #[test]
    fn fast_matches_reference() {
        let t = Target::default();
        let mut fb = FunctionBuilder::new("p", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        let c = fb.create_block(None);
        fb.switch_to(a);
        let vs: Vec<_> = (0..20).map(|i| fb.li(i)).collect();
        let m = fb.new_vreg();
        fb.mov(Reg::Virt(m), Reg::Virt(vs[0]));
        fb.branch(spillopt_ir::Cond::Lt, Reg::Virt(m), Reg::Virt(vs[1]), c, b);
        fb.switch_to(b);
        let _ = fb.call(Callee::External(0), &[]);
        let mut acc = m;
        for v in &vs {
            acc = fb.bin(BinOp::Add, Reg::Virt(acc), Reg::Virt(*v));
        }
        fb.ret(Some(Reg::Virt(acc)));
        fb.switch_to(c);
        fb.ret(Some(Reg::Virt(vs[2])));
        let f = fb.finish();
        let g = build_graph(&f, &t);
        let ns = DenseBitSet::new(g.num_vregs());
        let fast = color(&g, &t, &ns);
        let slow = color_reference(&g, &t, &ns);
        assert_eq!(fast.assignment, slow.assignment);
        assert_eq!(fast.spills, slow.spills);
        assert_eq!(fast.coalesced, slow.coalesced);
        assert_eq!(fast.alias, slow.alias);
        assert_eq!(fast.blocked, slow.blocked);
    }
}
