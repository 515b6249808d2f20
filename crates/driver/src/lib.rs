//! # spillopt-driver
//!
//! Module-scale optimization driver for the *spillopt* reproduction of
//! Lupo & Wilken, "Post Register Allocation Spill Code Optimization"
//! (CGO 2006) — the layer that turns the per-procedure algorithms of
//! `spillopt-core` into a whole-module pipeline behind **one**
//! session-based API:
//!
//! * [`OptimizerBuilder`] / [`Session`] — the one entry point:
//!   configure target (preset [`spillopt_ir::Target`], registered
//!   [`spillopt_targets::TargetSpec`] name, or all of them), cost-model
//!   override, [`ProfileSource`], thread count, and a typed
//!   [`TechniqueSet`]; `build()` validates once and returns a warm
//!   session that owns the persistent work pool and a per-session
//!   analysis arena. [`Session::optimize`],
//!   [`Session::optimize_profiled`], [`Session::optimize_many`], and
//!   each target of [`Session::cross_target`] run through one batch
//!   body, and every method has an `_observed` form that streams
//!   per-function reports to an [`Observer`];
//! * [`AnalysisCache`] — every CFG-derived analysis a function's
//!   placement needs (CFG, dominators, loops, SCCs, PST, profile,
//!   callee-saved usage), computed **once** per function and
//!   shared by all selected techniques through
//!   [`spillopt_core::run_suite`]'s borrowed-analysis inputs;
//! * [`pool`] — the `std`-only work pool: persistent workers for
//!   sessions ([`pool::Pool`]), scoped per-call scheduling for the
//!   stress fan-outs and the reference pipeline, deterministic
//!   item-order results either way;
//! * [`mod@bench`] / [`refimpl`] — the perf-trajectory harness: the frozen
//!   pre-rewrite pipeline kept executable, timed against the current
//!   one over a seeded stress corpus with byte-identical reports
//!   required (`spillopt bench --json`, `BENCH_*.json` records);
//! * [`stress`] — fan-out of the differential stress subsystem
//!   (`spillopt-stress`: random-CFG modules × interpreter oracles) over
//!   `(target, seed)` pairs;
//! * [`drift`] — the profile-drift fuzzer (`spillopt stress --drift`):
//!   seeded profile-mutation sequences replayed through a warm
//!   incremental session against a fresh cold pipeline, byte-identical
//!   [`ModuleReport`]s required after every step;
//! * [`faults`] — the fault-injection fuzzer (`spillopt stress
//!   --faults`): one seeded fault (panic / error / budget trip) armed
//!   at a named probe site per case, with containment, ledger
//!   exactness, blast radius, and session recovery all asserted
//!   against a fault-free oracle. Sessions opt into containment with
//!   [`OptimizerBuilder::on_fault`] ([`FailurePolicy`]) and
//!   cooperative deadlines with [`OptimizerBuilder::budget`]
//!   ([`Budget`]); contained failures land in [`ModuleRun::faults`]
//!   as [`FunctionFault`] entries;
//! * [`cli`] — the `spillopt` binary: `optimize`, `compare`, `report`,
//!   `stress`, `bench`, `list-benches`, `list-targets`.
//!
//! # Examples
//!
//! ```
//! use spillopt_driver::{OptimizerBuilder, ProfileSource, Strategy};
//! use spillopt_benchgen::{benchmark_by_name, build_bench};
//! use spillopt_ir::Target;
//!
//! // One warm session, built once, reused for every module.
//! let target = Target::default();
//! let bench = build_bench(&benchmark_by_name("mcf").unwrap(), &target);
//! let session = OptimizerBuilder::new()
//!     .target(target)
//!     .profile(ProfileSource::Workload(bench.train_runs.clone()))
//!     .threads(2)
//!     .build()
//!     .unwrap();
//! let run = session.optimize(&bench.module).unwrap();
//!
//! // The report is deterministic: a serial session produces the same
//! // bytes.
//! let serial = OptimizerBuilder::new()
//!     .target(Target::default())
//!     .profile(ProfileSource::Workload(bench.train_runs))
//!     .threads(1)
//!     .build()
//!     .unwrap()
//!     .optimize(&bench.module)
//!     .unwrap();
//! assert_eq!(run.report.to_json().to_compact(),
//!            serial.report.to_json().to_compact());
//!
//! // Warm reuse: the second optimize of the same module is served from
//! // the session's analysis arena — and is still byte-identical.
//! let again = session.optimize(&bench.module).unwrap();
//! assert!(session.stats().arena.hits > 0);
//! assert_eq!(run.report.to_json().to_compact(),
//!            again.report.to_json().to_compact());
//!
//! // The paper's guarantee survives aggregation: hierarchical placement
//! // under the jump-edge model never loses to the entry/exit baseline.
//! assert!(run.report.total_cost(Strategy::HierJump)
//!     <= run.report.total_cost(Strategy::Baseline));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench;
pub mod cache;
pub mod cli;
pub mod drift;
pub mod driver;
pub mod faults;
pub mod json;
pub mod pool;
pub mod refimpl;
pub mod report;
pub mod session;
pub mod stress;

pub use bench::{run_bench, BenchConfig, BenchOutcome};
pub use cache::AnalysisCache;
pub use drift::{run_drift, DriftConfig, DriftFailure, DriftSummary, DEFAULT_DRIFT_STEPS};
pub use driver::{
    DriverError, FaultAction, FaultKind, FunctionFault, ModuleRun, ProfileSource, Strategy,
};
pub use faults::{run_faults, FaultConfig, FaultFailure, FaultSummary, FAULT_SITES};
pub use json::Json;
pub use pool::PoolWorkerStats;
pub use report::{
    CrossTargetReport, FunctionReport, ModuleReport, StrategyReport, REPORT_SCHEMA_VERSION,
};
pub use session::{
    ArenaStats, Budget, FailurePolicy, Observer, OptimizerBuilder, Provenance, Session,
    SessionStats, TechniqueSet,
};
pub use stress::{run_stress, StressConfig, StressSummary};
