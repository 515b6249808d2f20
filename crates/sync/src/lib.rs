//! The workspace's single concurrency facade.
//!
//! Every crate in the workspace imports its synchronization primitives
//! (`Mutex`, `Condvar`, `RwLock`, `Once`, `OnceLock`, the atomics) and
//! thread entry points (`thread::spawn`, `thread::available_parallelism`) from here
//! instead of `std::sync` / `std::thread` — a repo lint
//! (`tests/facade_lint.rs` in the root package) keeps it that way.
//!
//! **Normal builds** (the default): this crate is a *zero-cost*
//! re-export of the std types. No wrappers, no indirection — the
//! facade compiles away entirely, so the hot paths pay nothing.
//!
//! **Model builds** (`--features model`): the same names resolve to
//! dual-mode wrappers. Outside a model exploration they delegate to
//! std, so ordinary tests still pass with the feature enabled. Inside
//! `model::check` every facade operation becomes a scheduling point
//! of a deterministic cooperative scheduler that explores thread
//! interleavings exhaustively under a preemption bound (in the style
//! of loom / CHESS), maintains vector clocks for happens-before
//! reasoning, and reports:
//!
//! - **data races** on `model::RaceCell` accesses unordered by
//!   happens-before,
//! - **deadlocks** (every live thread blocked), including lost-notify
//!   deadlocks on `Condvar` (the report counts notifies that found no
//!   waiter),
//! - **panics** reached under some interleaving (assertion failures in
//!   scenarios double as checked invariants).
//!
//! See `README.md` ("Concurrency model & verification") for how the
//! workspace's model suites are organized and run.

#![warn(missing_docs)]

#[cfg(not(feature = "model"))]
pub use std::sync::{
    Arc, Barrier, Condvar, LockResult, Mutex, MutexGuard, Once, OnceLock, PoisonError, RwLock,
    RwLockReadGuard, RwLockWriteGuard, TryLockError, TryLockResult, WaitTimeoutResult, Weak,
};

/// Atomic types (`std::sync::atomic` in normal builds).
#[cfg(not(feature = "model"))]
pub mod atomic {
    pub use std::sync::atomic::*;
}

/// Thread entry points (`std::thread` in normal builds).
#[cfg(not(feature = "model"))]
pub mod thread {
    pub use std::thread::*;
}

#[cfg(feature = "model")]
mod facade;
#[cfg(feature = "model")]
pub use facade::{
    Condvar, Mutex, MutexGuard, Once, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
#[cfg(feature = "model")]
pub use std::sync::{
    Arc, Barrier, LockResult, PoisonError, TryLockError, TryLockResult, WaitTimeoutResult, Weak,
};

/// Atomic types (dual-mode wrappers in model builds).
#[cfg(feature = "model")]
pub mod atomic {
    pub use super::facade::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
    pub use std::sync::atomic::Ordering;
}

/// Thread entry points (dual-mode wrappers in model builds).
#[cfg(feature = "model")]
pub mod thread {
    pub use super::facade::thread::{available_parallelism, spawn, yield_now, JoinHandle};
    pub use std::thread::{panicking, Result};
}

#[cfg(feature = "model")]
pub mod model;
