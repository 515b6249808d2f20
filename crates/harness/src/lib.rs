//! # spillopt-harness
//!
//! Experiment driver for the *spillopt* reproduction of Lupo & Wilken
//! (CGO 2006): regenerates every table and figure of the paper's
//! evaluation on the synthetic SPEC CPU2000 stand-ins.
//!
//! * [`runner`] — one benchmark, measured on the pipeline the product
//!   ships: generate → one serial driver `Session` optimizes the module
//!   (train-workload profiles, Chaitin/Briggs allocation, every
//!   placement technique) → `ModuleRun::apply` materializes each
//!   strategy → execute the ref workload → verify behaviour unchanged →
//!   count dynamic spill-code overhead;
//! * [`experiments`] — Figure 1, the Figures 2-4 walkthrough, Figure 5,
//!   Table 1 and Table 2, each printed next to the paper's reference
//!   values;
//! * the `repro` binary drives them (`repro all`).
//!
//! # Examples
//!
//! ```no_run
//! use spillopt_driver::Strategy;
//! use spillopt_harness::runner::run_named_benchmark;
//! use spillopt_ir::Target;
//!
//! let result = run_named_benchmark("mcf", &Target::default()).unwrap();
//! let opt = result.of(Strategy::HierJump).dynamic_overhead;
//! let base = result.of(Strategy::Baseline).dynamic_overhead;
//! assert!(opt <= base);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod report;
pub mod runner;

pub use runner::{run_benchmark, run_named_benchmark, BenchResult};
