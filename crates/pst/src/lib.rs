//! # spillopt-pst
//!
//! Program Structure Tree (PST) substrate for the *spillopt* reproduction
//! of Lupo & Wilken (CGO 2006).
//!
//! The paper's hierarchical spill-code placement algorithm traverses the
//! PST of a procedure: the tree of **maximal single-entry single-exit
//! (SESE) regions** defined by Johnson, Pearson & Pingali (PLDI'94) over
//! the cycle-equivalence classes of an augmented CFG. Region boundaries
//! are exactly the program points "where dynamic execution count may
//! change", which is why they suffice for a minimum-cost save/restore
//! placement.
//!
//! * [`tree`] — the [`Pst`] itself with containment and traversal
//!   queries. [`Pst::compute`] builds it from one DFS of the augmented
//!   graph plus a sort of the edges' cycle-space labels;
//! * [`cycle_equiv`] — linear-time cycle equivalence via spanning-tree XOR
//!   labelling of the cycle space, over any rooted spanning tree (plus an
//!   exact oracle for tests);
//! * [`augment`] and [`regions`] — the dominance-based route used by the
//!   reference construction [`Pst::compute_reference`] and by [`verify`]:
//!   the virtual-END augmented graph, the mid-edge split graph on which
//!   edge dominance is plain node dominance, and the dominance chains
//!   whose ends are the **maximal** regions;
//! * [`verify`] — invariant checking (including the literal
//!   single-entry single-exit property) and tree comparison for tests.
//!
//! # Examples
//!
//! ```
//! use spillopt_ir::{Cfg, Cond, FunctionBuilder, Reg};
//! use spillopt_pst::Pst;
//!
//! // A diamond: entry -> {left, right} -> join -> ret.
//! let mut fb = FunctionBuilder::new("f", 0);
//! let entry = fb.create_block(None);
//! let left = fb.create_block(None);
//! let right = fb.create_block(None);
//! let join = fb.create_block(None);
//! fb.switch_to(entry);
//! let x = fb.li(1);
//! fb.branch(Cond::Lt, Reg::Virt(x), Reg::Virt(x), right, left);
//! fb.switch_to(left);
//! fb.jump(join);
//! fb.switch_to(right);
//! fb.jump(join);
//! fb.switch_to(join);
//! fb.ret(None);
//! let func = fb.finish();
//!
//! let cfg = Cfg::compute(&func);
//! let pst = Pst::compute(&cfg);
//! assert!(pst.num_regions() >= 1);
//! // The traversal the paper calls "topological order":
//! assert_eq!(*pst.postorder().last().unwrap(), pst.root());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod augment;
pub mod cycle_equiv;
pub mod regions;
pub mod tree;
pub mod verify;

pub use augment::{AugEdge, AugEdgeRef, AugGraph};
pub use cycle_equiv::{
    cycle_equivalence_classes, cycle_equivalence_classes_oracle, edge_labels, spanning_tree_labels,
};
pub use regions::{SeseChains, SesePair};
pub use tree::{Pst, Region, RegionBoundary, RegionId};
pub use verify::{pst_differences, verify_pst};
