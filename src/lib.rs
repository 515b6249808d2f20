//! # spillopt
//!
//! The root crate of the *spillopt* workspace — a reproduction and
//! module-scale extension of Lupo & Wilken, "Post Register Allocation
//! Spill Code Optimization" (CGO 2006).
//!
//! This library re-exports the **session-based optimizer API** from
//! `spillopt-driver`: build an [`OptimizerBuilder`], get a warm
//! [`Session`], and feed it modules. The binary of the same name is the
//! CLI over exactly this API.
//!
//! # Quickstart
//!
//! ```
//! use spillopt::{OptimizerBuilder, Strategy, TechniqueSet};
//!
//! // Parse a module from IR text (usually you'd read a file).
//! let module = spillopt_ir::parse_module(
//!     "module demo\n\
//!      func @f(1) {\n\
//!      block entry:\n\
//!        v0 = mov r1\n\
//!        r1 = mov v0\n\
//!        r0 = call ext:0(r1)\n\
//!        v1 = mov r0\n\
//!        v1 = add v1, v0\n\
//!        r0 = mov v1\n\
//!        ret r0\n\
//!      }\n",
//! )
//! .unwrap();
//!
//! // Configure once; reuse the session for as many modules as you like.
//! let session = OptimizerBuilder::new()
//!     .target_named("pa-risc-like")
//!     .techniques(TechniqueSet::ALL)
//!     .threads(1)
//!     .build()
//!     .unwrap();
//!
//! let run = session.optimize(&module).unwrap();
//! assert!(run.report.total_cost(Strategy::HierJump)
//!     <= run.report.total_cost(Strategy::Baseline));
//!
//! // Materialize the optimized module under the per-function best.
//! let optimized = run.apply(None);
//! assert_eq!(optimized.num_funcs(), 1);
//! ```

pub use spillopt_driver::{
    run_stress, ArenaStats, CrossTargetReport, DriverError, FunctionReport, Invariant,
    ModuleReport, ModuleRun, Observer, OptimizerBuilder, PoolWorkerStats, ProfileSource,
    Provenance, Session, SessionStats, Strategy, StrategyReport, StressConfig, StressSummary,
    TechniqueSet, REPORT_SCHEMA_VERSION,
};
