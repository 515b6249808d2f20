//! Deterministic concurrency model checking (loom/CHESS style).
//!
//! [`check`] (or [`try_check`]) runs a closed concurrent scenario —
//! a closure that spawns threads through [`crate::thread`] and
//! synchronizes through the facade types — repeatedly, exploring every
//! thread interleaving reachable under a preemption bound via
//! depth-first search over scheduling choices. Each facade operation
//! (mutex lock/unlock, condvar wait/notify, non-relaxed atomic access,
//! once initialization, [`RaceCell`] access) is a scheduling point.
//!
//! Detected violations:
//!
//! - **Data races**: vector-clock happens-before tracking over
//!   [`RaceCell`] accesses.
//! - **Deadlocks**: every live thread blocked; condvar entries in the
//!   report carry the lost-notify count.
//! - **Panics**: any assertion failure inside the scenario, under any
//!   explored schedule.
//!
//! Scenarios must be deterministic apart from scheduling: same
//! choices, same behavior (no wall-clock branching, no RNG). Relaxed
//! atomic operations are *not* scheduling points by default (they
//! establish no ordering; skipping them keeps state spaces tractable
//! the same way the preemption bound does) — turn them on per scenario
//! with [`ModelOptions::yield_on_relaxed`]. Values always behave
//! sequentially consistently (no weak-memory reordering is modeled);
//! the checker explores *interleavings*, not memory-model relaxations.

mod sched;

pub(crate) use sched::{next_obj_id, AtomicDir, Branch, Scheduler};

use std::cell::{RefCell, UnsafeCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64 as StdAtomicU64;
use std::sync::Arc;

/// Panic payload used internally to unwind scenario threads when an
/// execution aborts (violation found / limits hit). Never escapes
/// [`try_check`].
pub(crate) struct ModelAbort;

/// Exploration limits and knobs for one scenario.
#[derive(Clone, Debug)]
pub struct ModelOptions {
    /// Maximum *preemptive* context switches per execution (switches at
    /// a point where the running thread could have continued). Forced
    /// switches — blocking, exit, `yield_now` — are free.
    /// CHESS-style result: most concurrency bugs surface with 2.
    pub preemption_bound: usize,
    /// Hard cap on explored executions; exceeding it is a violation
    /// (the scenario is too big to be exhaustive — shrink it).
    pub max_executions: usize,
    /// Hard cap on scheduling steps within one execution (livelock
    /// guard).
    pub max_steps: usize,
    /// Make `Ordering::Relaxed` atomic operations scheduling points
    /// too. Off by default: relaxed ops carry no ordering, and
    /// skipping them keeps the schedule tree tractable.
    pub yield_on_relaxed: bool,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            preemption_bound: 2,
            max_executions: 100_000,
            max_steps: 20_000,
            yield_on_relaxed: false,
        }
    }
}

impl ModelOptions {
    /// Defaults: preemption bound 2, 100k executions, 20k steps,
    /// relaxed ops not scheduled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the preemption bound.
    pub fn preemptions(mut self, bound: usize) -> Self {
        self.preemption_bound = bound;
        self
    }

    /// Sets the execution cap.
    pub fn executions(mut self, cap: usize) -> Self {
        self.max_executions = cap;
        self
    }

    /// Sets the per-execution step cap.
    pub fn steps(mut self, cap: usize) -> Self {
        self.max_steps = cap;
        self
    }

    /// Schedule at relaxed atomic operations too.
    pub fn relaxed_yields(mut self, on: bool) -> Self {
        self.yield_on_relaxed = on;
        self
    }
}

/// What kind of property the checker saw violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// Unsynchronized conflicting accesses to a [`RaceCell`].
    DataRace,
    /// Every live thread blocked (mutex cycle, lost notify, …).
    Deadlock,
    /// The scenario panicked under some schedule (failed assertion,
    /// `unwrap`, explicit panic).
    Panic,
    /// One execution exceeded [`ModelOptions::max_steps`].
    StepLimit,
    /// Exploration exceeded [`ModelOptions::max_executions`] before
    /// exhausting the schedule tree.
    ExecutionLimit,
}

/// A property violation found under some explored schedule.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The violated property.
    pub kind: ViolationKind,
    /// Human-readable description (thread ids, blocked-on objects,
    /// lost-notify counts, panic message).
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:?}] {}", self.kind, self.message)
    }
}

/// The result of exploring one scenario.
#[derive(Clone, Debug)]
pub struct Report {
    /// Schedules (executions) explored. On success this is the size of
    /// the bounded interleaving space — scenarios worth checking
    /// report more than one.
    pub executions: usize,
    /// The first violation found, if any (exploration stops at the
    /// first).
    pub violation: Option<Violation>,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

/// The scheduler + model-thread-id of the calling thread, when it is
/// running inside a model execution.
pub(crate) fn current() -> Option<(Arc<Scheduler>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) fn set_current(v: Option<(Arc<Scheduler>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = v);
}

/// Renders a panic payload for violation reports.
pub(crate) fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Explores `scenario` under `opts` and panics (with the violation,
/// and the schedule count) if any explored schedule breaks a property.
/// Returns the exploration [`Report`] on success.
pub fn check<F: Fn()>(opts: ModelOptions, scenario: F) -> Report {
    let report = try_check(opts, scenario);
    if let Some(v) = &report.violation {
        panic!(
            "model checking failed after {} schedule(s): {v}",
            report.executions
        );
    }
    report
}

/// As [`check`], but returns the violation in the [`Report`] instead
/// of panicking — for fixtures that *expect* one.
pub fn try_check<F: Fn()>(opts: ModelOptions, scenario: F) -> Report {
    assert!(
        current().is_none(),
        "model executions cannot be nested: try_check called from inside a scenario"
    );
    let mut path: Vec<Branch> = Vec::new();
    let mut executions = 0usize;
    loop {
        if executions >= opts.max_executions {
            return Report {
                executions,
                violation: Some(Violation {
                    kind: ViolationKind::ExecutionLimit,
                    message: format!(
                        "schedule tree not exhausted after {executions} executions \
                         (shrink the scenario or raise max_executions)"
                    ),
                }),
            };
        }
        executions += 1;
        let (new_path, violation) = run_one(&opts, path, &scenario);
        if violation.is_some() {
            return Report {
                executions,
                violation,
            };
        }
        path = new_path;
        if !advance(&mut path) {
            return Report {
                executions,
                violation: None,
            };
        }
    }
}

/// One execution: replay `path`, extend it with first-choice branches,
/// return the full recorded path and any violation.
fn run_one<F: Fn()>(
    opts: &ModelOptions,
    path: Vec<Branch>,
    scenario: &F,
) -> (Vec<Branch>, Option<Violation>) {
    let sched = Arc::new(Scheduler::new(opts.clone(), path));
    set_current(Some((Arc::clone(&sched), 0)));
    let outcome = catch_unwind(AssertUnwindSafe(scenario));
    if let Err(payload) = outcome {
        if !payload.is::<ModelAbort>() {
            sched.report_panic(0, payload_message(&*payload));
        }
    }
    sched.finish_root();
    set_current(None);
    sched.take_result()
}

/// DFS backtracking: advance the deepest branch with an unexplored
/// sibling; `false` when the tree is exhausted.
fn advance(path: &mut Vec<Branch>) -> bool {
    while let Some(last) = path.last_mut() {
        if last.idx + 1 < last.options.len() {
            last.idx += 1;
            return true;
        }
        path.pop();
    }
    false
}

/// A shared memory location the model checker race-checks.
///
/// Inside a model execution, every access is a scheduling point and is
/// checked for a happens-before edge from all conflicting accesses
/// (FastTrack-style: last-write epoch + read frontier); an
/// unsynchronized conflict is reported as a [`ViolationKind::DataRace`].
///
/// This is a *scenario-building* type (the moral equivalent of loom's
/// `UnsafeCell`): production code keeps its data inside facade
/// `Mutex`/`RwLock`/atomics, which are race-free by construction —
/// `RaceCell` exists so model tests can (a) represent plain shared
/// state guarded *by protocol* rather than by a lock, and (b) prove
/// the checker is not vacuous with intentionally racy fixtures.
/// Outside a model execution accesses are unchecked; do not use it for
/// real cross-thread data.
#[derive(Debug)]
pub struct RaceCell<T> {
    id: StdAtomicU64,
    value: UnsafeCell<T>,
}

// SAFETY: within a model execution only one thread runs at a time and
// every access is serialized through the scheduler, so the underlying
// accesses never physically race; the checker flags *logical* races.
// Outside a model the caller must not share it across threads (see the
// type docs) — the bound still requires T: Send.
unsafe impl<T: Send> Send for RaceCell<T> {}
unsafe impl<T: Send> Sync for RaceCell<T> {}

impl<T> RaceCell<T> {
    /// Wraps a value.
    pub const fn new(value: T) -> Self {
        RaceCell {
            id: StdAtomicU64::new(0),
            value: UnsafeCell::new(value),
        }
    }

    fn obj_id(&self) -> u64 {
        crate::facade::lazy_id(&self.id)
    }

    /// Reads through a shared reference (race-checked in a model).
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        if let Some((sched, tid)) = current() {
            sched.cell_access(self.obj_id(), tid, false);
        }
        // SAFETY: see the Send/Sync note — serialized by the scheduler
        // in a model; caller's responsibility outside one.
        f(unsafe { &*self.value.get() })
    }

    /// Writes through a shared reference (race-checked in a model).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        if let Some((sched, tid)) = current() {
            sched.cell_access(self.obj_id(), tid, true);
        }
        // SAFETY: as in `with`.
        f(unsafe { &mut *self.value.get() })
    }
}

impl<T: Copy> RaceCell<T> {
    /// Reads the value.
    pub fn get(&self) -> T {
        self.with(|v| *v)
    }

    /// Replaces the value.
    pub fn set(&self, value: T) {
        self.with_mut(|v| *v = value);
    }
}
