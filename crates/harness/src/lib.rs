//! # spillopt-harness
//!
//! Experiment driver for the *spillopt* reproduction of Lupo & Wilken
//! (CGO 2006): regenerates every table and figure of the paper's
//! evaluation on the synthetic SPEC CPU2000 stand-ins.
//!
//! * [`runner`] — the full pipeline per benchmark: generate → profile on
//!   the train workload → Chaitin/Briggs allocation → place callee-saved
//!   code with each technique → execute the ref workload → verify
//!   behaviour unchanged → measure dynamic spill-code overhead;
//! * [`experiments`] — Figure 1, the Figures 2-4 walkthrough, Figure 5,
//!   Table 1 and Table 2, each printed next to the paper's reference
//!   values;
//! * the `repro` binary drives them (`repro all`).
//!
//! # Examples
//!
//! ```no_run
//! use spillopt_harness::runner::{run_named_benchmark, Technique};
//! use spillopt_ir::Target;
//!
//! let result = run_named_benchmark("mcf", &Target::default()).unwrap();
//! let opt = result.of(Technique::Optimized).dynamic_overhead;
//! let base = result.of(Technique::Baseline).dynamic_overhead;
//! assert!(opt <= base);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod report;
pub mod runner;

pub use runner::{run_benchmark, run_named_benchmark, BenchResult, Technique};
