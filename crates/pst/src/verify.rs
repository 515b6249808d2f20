//! Structural verification of a computed PST (used heavily by tests and
//! property tests).

use crate::augment::{AugEdgeRef, AugGraph};
use crate::tree::{Pst, Region, RegionBoundary, RegionId};
use spillopt_ir::{BlockId, Cfg, DenseBitSet};
use std::collections::HashMap;

/// Checks PST invariants against its CFG. Returns human-readable
/// violation descriptions (empty = valid).
///
/// Checked invariants:
///
/// 1. the root covers all blocks and every non-root region's block set is
///    a strict subset of its parent's;
/// 2. any two regions are nested or disjoint (proper hierarchy);
/// 3. every non-root region's boundaries satisfy the SESE conditions:
///    entry dominates exit, exit post-dominates entry;
/// 4. every block's innermost region contains it and no smaller region
///    does;
/// 5. postorder lists children before parents and covers every region
///    exactly once;
/// 6. every non-root region is literally single-entry single-exit: the
///    only CFG edge entering its block set is its entry, and the only
///    edge leaving it, return edges included, is its exit.
pub fn verify_pst(cfg: &Cfg, pst: &Pst) -> Vec<String> {
    let mut errs = Vec::new();
    let aug = AugGraph::build(cfg);

    let aug_index = |b: RegionBoundary| -> Option<usize> {
        match b {
            RegionBoundary::CfgEdge(e) => {
                aug.edges.iter().position(|x| x.what == AugEdgeRef::Cfg(e))
            }
            RegionBoundary::ReturnEdge(blk) => aug
                .edges
                .iter()
                .position(|x| x.what == AugEdgeRef::Ret(blk)),
            _ => None,
        }
    };

    // 1 & 3.
    let root = pst.region(pst.root());
    if root.blocks.count() != cfg.num_blocks() {
        errs.push("root region does not cover all blocks".to_string());
    }
    for r in pst.regions() {
        if r.id == pst.root() {
            continue;
        }
        let parent = match r.parent {
            Some(p) => pst.region(p),
            None => {
                errs.push(format!("{} has no parent", r.id));
                continue;
            }
        };
        if !r.blocks.is_subset(&parent.blocks) || r.blocks.count() >= parent.blocks.count() {
            errs.push(format!("{} is not a strict subset of its parent", r.id));
        }
        match (aug_index(r.entry), aug_index(r.exit)) {
            (Some(en), Some(ex)) => {
                if !aug.edge_dominates(en, ex) {
                    errs.push(format!("{}: entry does not dominate exit", r.id));
                }
                if !aug.edge_postdominates(ex, en) {
                    errs.push(format!("{}: exit does not post-dominate entry", r.id));
                }
            }
            _ => errs.push(format!("{}: non-root region with virtual boundary", r.id)),
        }
        if r.blocks.is_empty() {
            errs.push(format!("{} is empty", r.id));
        }
    }

    // 2.
    let regions: Vec<&Region> = pst.regions().collect();
    for i in 0..regions.len() {
        for j in i + 1..regions.len() {
            let (a, b) = (&regions[i].blocks, &regions[j].blocks);
            if !(a.is_subset(b) || b.is_subset(a) || a.is_disjoint(b)) {
                errs.push(format!(
                    "{} and {} partially overlap",
                    regions[i].id, regions[j].id
                ));
            }
        }
    }

    // 4.
    for bi in 0..cfg.num_blocks() {
        let b = spillopt_ir::BlockId::from_index(bi);
        let inner = pst.innermost_region_of_block(b);
        if !pst.contains_block(inner, b) {
            errs.push(format!("innermost region of {b} does not contain it"));
        }
        for r in pst.regions() {
            if r.blocks.contains(bi) && r.blocks.count() < pst.region(inner).blocks.count() {
                errs.push(format!("{} is smaller than innermost region of {b}", r.id));
            }
        }
    }

    // 5.
    let post = pst.postorder();
    if post.len() != pst.num_regions() {
        errs.push("postorder length mismatch".to_string());
    }
    let pos: HashMap<_, _> = post.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    for r in pst.regions() {
        for &c in &r.children {
            if pos[&c] >= pos[&r.id] {
                errs.push(format!("postorder: {c} not before parent {}", r.id));
            }
        }
    }

    // 6.
    for r in pst.regions() {
        if r.id == pst.root() {
            continue;
        }
        let mut entering = Vec::new();
        let mut leaving = Vec::new();
        for (id, e) in cfg.edges() {
            match (
                r.blocks.contains(e.from.index()),
                r.blocks.contains(e.to.index()),
            ) {
                (false, true) => entering.push(RegionBoundary::CfgEdge(id)),
                (true, false) => leaving.push(RegionBoundary::CfgEdge(id)),
                _ => {}
            }
        }
        for &b in cfg.exit_blocks() {
            if r.blocks.contains(b.index()) {
                leaving.push(RegionBoundary::ReturnEdge(b));
            }
        }
        if entering != [r.entry] {
            errs.push(format!(
                "{}: entered by {entering:?}, not only by its entry",
                r.id
            ));
        }
        if leaving != [r.exit] {
            errs.push(format!(
                "{}: left by {leaving:?}, not only by its exit",
                r.id
            ));
        }
    }

    errs
}

/// Compares two PSTs of the same CFG up to region numbering. Returns
/// human-readable differences (empty = the same tree).
///
/// A region is identified by its entry, exit and block set. The two
/// trees agree when they hold the same multiset of regions, every
/// region has the same parent in both, and every block has the same
/// innermost region. Ids, child order and postorder may differ.
pub fn pst_differences(a: &Pst, b: &Pst) -> Vec<String> {
    type Key<'p> = (RegionBoundary, RegionBoundary, &'p DenseBitSet);
    fn key(r: &Region) -> Key<'_> {
        (r.entry, r.exit, &r.blocks)
    }
    let mut errs = Vec::new();
    let mut in_b: HashMap<Key<'_>, RegionId> = HashMap::new();
    for r in b.regions() {
        if in_b.insert(key(r), r.id).is_some() {
            errs.push(format!("second tree holds {} twice", r.id));
        }
    }
    // `to_b[i]` is the region of `b` matching region `i` of `a`.
    let mut to_b: Vec<Option<RegionId>> = vec![None; a.num_regions()];
    for r in a.regions() {
        match in_b.remove(&key(r)) {
            Some(id) => to_b[r.id.index()] = Some(id),
            None => errs.push(format!(
                "{} ({:?} -> {:?}, blocks {:?}) has no match",
                r.id, r.entry, r.exit, r.blocks
            )),
        }
    }
    for (_, id) in in_b {
        errs.push(format!("{id} of the second tree has no match"));
    }
    if !errs.is_empty() {
        return errs;
    }
    let map = |r: RegionId| to_b[r.index()].expect("every region matched");
    for r in a.regions() {
        let parent = b.region(map(r.id)).parent;
        if r.parent.map(map) != parent {
            errs.push(format!("{}: parent {:?} vs {:?}", r.id, r.parent, parent));
        }
    }
    let num_blocks = a.region(a.root()).blocks.capacity();
    for bi in 0..num_blocks {
        let blk = BlockId::from_index(bi);
        let (ra, rb) = (
            a.innermost_region_of_block(blk),
            b.innermost_region_of_block(blk),
        );
        if map(ra) != rb {
            errs.push(format!("innermost region of {blk}: {ra} vs {rb}"));
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_ir::{Cond, FunctionBuilder, Reg};

    #[test]
    fn valid_pst_passes() {
        let mut fb = FunctionBuilder::new("v", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        let c = fb.create_block(None);
        let d = fb.create_block(None);
        fb.switch_to(a);
        let x = fb.li(0);
        fb.branch(Cond::Lt, Reg::Virt(x), Reg::Virt(x), c, b);
        fb.switch_to(b);
        fb.jump(d);
        fb.switch_to(c);
        fb.jump(d);
        fb.switch_to(d);
        fb.ret(None);
        let f = fb.finish();
        let cfg = Cfg::compute(&f);
        let pst = Pst::compute(&cfg);
        let errs = verify_pst(&cfg, &pst);
        assert!(errs.is_empty(), "{errs:?}");
        let reference = Pst::compute_reference(&cfg);
        let diffs = pst_differences(&pst, &reference);
        assert!(diffs.is_empty(), "{diffs:?}");
    }
}
