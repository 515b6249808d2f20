//! The spillopt benchmark: four seeded workloads (`cold`, `warm`,
//! `drift`, `pool`) driven through the public `Session` API by one
//! closed-loop caller, every report byte-checked against a fresh
//! arena-free session, with end-to-end metrics from an untraced run and
//! per-layer metrics from a traced replay of every processed function.
//! See `README.md` beside this crate for the workloads and the metrics.

#![warn(missing_docs)]

pub mod drift;
pub mod inputs;
pub mod measure;
pub mod replay;
pub mod run;

pub use inputs::Size;
pub use run::{run, Config, Metric, Outcome, Workload};
