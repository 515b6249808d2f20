//! # spillopt-core
//!
//! The core of the *spillopt* project: a faithful reproduction of the
//! post-register-allocation callee-saved spill code placement system of
//!
//! > Christopher Lupo and Kent D. Wilken, *Post Register Allocation Spill
//! > Code Optimization*, CGO 2006.
//!
//! Given a procedure's CFG, the set of blocks in which each callee-saved
//! register is busy ([`CalleeSavedUsage`]), and an edge profile, this
//! crate computes where to place callee-saved *save* (store) and
//! *restore* (load) instructions:
//!
//! * [`entry_exit_placement`] — the baseline: save at procedure entry,
//!   restore at every exit;
//! * [`chow_shrink_wrap`] — Chow's shrink-wrapping (PLDI'88), with his
//!   artificial data flow for loops and jump edges;
//! * [`modified_shrink_wrap`] — the paper's modified variant producing
//!   the initial save/restore sets;
//! * [`hierarchical_placement`] — the paper's contribution: a
//!   profile-guided traversal of the Program Structure Tree that seeks
//!   the minimum dynamic execution count placement, under either the
//!   [`CostModel::ExecutionCount`] model or the more physically
//!   accurate [`CostModel::JumpEdge`] model. The execution count
//!   variant matches the exact solver's optimum on all but one of 2,282
//!   solved stress functions (see [`hierarchical_placement`]).
//!
//! Placements are plain data ([`Placement`]); [`check_placement`] proves
//! them valid, [`insert_placement`] materializes them into the IR
//! (creating jump blocks exactly where the jump-edge model predicts), and
//! [`placement_cost`] prices them.
//!
//! # Examples
//!
//! ```
//! use spillopt_core::{
//!     entry_exit_placement, hierarchical_placement, check_placement,
//!     CalleeSavedUsage, CostModel,
//! };
//! use spillopt_ir::{Cfg, Cond, FunctionBuilder, PReg, Reg};
//! use spillopt_profile::random_walk_profile;
//! use spillopt_pst::Pst;
//!
//! // A diamond with one busy arm.
//! let mut fb = FunctionBuilder::new("f", 0);
//! let a = fb.create_block(None);
//! let b = fb.create_block(None);
//! let c = fb.create_block(None);
//! let d = fb.create_block(None);
//! fb.switch_to(a);
//! let x = fb.li(0);
//! fb.branch(Cond::Lt, Reg::Virt(x), Reg::Virt(x), c, b);
//! fb.switch_to(b);
//! fb.jump(d);
//! fb.switch_to(c);
//! fb.jump(d);
//! fb.switch_to(d);
//! fb.ret(None);
//! let func = fb.finish();
//!
//! let cfg = Cfg::compute(&func);
//! let pst = Pst::compute(&cfg);
//! let profile = random_walk_profile(&cfg, 100, 32, 7);
//! let mut usage = CalleeSavedUsage::new();
//! usage.set_busy(PReg::new(11), b, 4);
//!
//! let result = hierarchical_placement(
//!     &cfg, &pst, &usage, &profile, CostModel::JumpEdge);
//! assert!(check_placement(&cfg, &usage, &result.placement).is_empty());
//! assert!(result.placement.static_count()
//!     <= entry_exit_placement(&cfg, &usage).static_count() + 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chow;
pub mod cost;
pub mod dataflow;
pub mod entry_exit;
pub mod hierarchical;
pub mod incremental;
pub mod insert;
pub mod location;
pub mod modified;
pub mod overhead;
pub mod paper_example;
pub mod pipeline;
pub mod reference;
pub mod sets;
pub mod solver;
pub mod usage;
pub mod validate;
pub mod webs;

pub use chow::{chow_shrink_wrap, chow_shrink_wrap_derived, chow_shrink_wrap_with};
pub use cost::{
    location_base_cost, location_cost, location_exec_count, spill_point_cost, Cost, CostModel,
    InsnCost, SpillCostModel, COST_SCALE,
};
pub use entry_exit::entry_exit_placement;
pub use hierarchical::{
    hierarchical_placement, hierarchical_placement_seeded, HierarchicalResult, TraceEvent,
};
pub use incremental::{run_suite_incremental, run_suite_memoized, PlacementMemo, RefoldStats};
pub use insert::{insert_placement, InsertionReport};
pub use location::{Placement, SpillKind, SpillLoc, SpillPoint};
pub use modified::{modified_shrink_wrap, modified_shrink_wrap_derived, InitialSets};
pub use overhead::{
    placement_cost, placement_cost_with, placement_model_cost, predicted_spill_counts,
    static_overhead,
};
pub use paper_example::{fig1_example, paper_example, Fig1Example, PaperExample};
pub use pipeline::{
    run_suite, run_technique, PlacementSuite, SuiteError, SuiteInputs, SuiteOptions, Technique,
};
pub use sets::{EdgeShares, SaveRestoreSet};
pub use solver::{chow_grow_all, chow_points_all, initial_sets_all, RegWords, RegionBusyCounts};
pub use usage::CalleeSavedUsage;
pub use validate::{check_placement, PlacementChecker, PlacementError};
