//! # spillopt-stress
//!
//! Differential stress subsystem for the *spillopt* reproduction of Lupo
//! & Wilken (CGO 2006): a seeded random CFG/module generator plus four
//! oracles (three interpreter-backed, one backed by the exact
//! branch-and-bound solver), run across all four placement techniques
//! and every registered backend target.
//!
//! The paper's correctness claims — placements preserve the calling
//! convention, and the hierarchical jump-edge placement is never
//! dynamically worse than entry/exit or Chow's shrink-wrapping — are
//! exercised here on adversarial shapes the SPEC stand-ins never
//! produce: irreducible loops, multi-exit functions, critical-edge
//! meshes, zero-trip loops, extreme profile skew, and register pressure
//! at the register-file limit. See [`gen`] for the generator, [`oracle`]
//! for the checks, and [`mod@minimize`] for counterexample reduction. The
//! module driver's stress harness wires this into the `spillopt stress`
//! CLI subcommand and the scheduled CI job, and minimizes each failure
//! under [`ViolationClass::reproduced_by`].
//!
//! # Examples
//!
//! ```
//! use spillopt_stress::{check_case_caught_with, gen_case};
//!
//! let spec = spillopt_targets::pa_risc_like();
//! let case = gen_case(&spec.to_target(), 7);
//! let report = check_case_caught_with(&case.module, &case.runs, &spec, None)
//!     .expect("oracles hold");
//! assert!(report.functions >= 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod closed;
pub mod gen;
pub mod minimize;
pub mod oracle;

pub use closed::is_closed;
pub use gen::{gen_case, gen_case_scaled, StressCase};
pub use minimize::minimize;
pub use oracle::{
    check_case, check_case_with, CaseReport, ExactOptions, ExactStats, FailureKind, GapHist,
    ModelGapStats, OracleFailure, DEFAULT_GAP_PERCENT, STRATEGIES,
};

use spillopt_obs::fault::panic_message;
use spillopt_sync::Once;
use spillopt_targets::TargetSpec;
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with panic-hook output suppressed on this thread (the
/// oracles probe panicking pipelines; the default hook would spam
/// stderr with expected backtraces). Other threads keep normal output.
///
/// The previous quiet state is restored by a drop guard, so the flag
/// survives neither an unwinding `f` (a later genuine panic still
/// prints) nor nesting (an inner call cannot un-quiet the outer scope).
pub fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            QUIET.with(|q| q.set(self.0));
        }
    }
    let _restore = Restore(QUIET.with(|q| q.replace(true)));
    f()
}

/// As [`check_case_with`], but converting pipeline panics (allocator
/// non-convergence, placement validity assertions, insertion bugs) into
/// [`FailureKind::Panic`] failures instead of unwinding.
pub fn check_case_caught_with(
    module: &spillopt_ir::Module,
    runs: &[(spillopt_ir::FuncId, Vec<i64>)],
    spec: &TargetSpec,
    exact: Option<&ExactOptions>,
) -> Result<CaseReport, OracleFailure> {
    with_quiet_panics(|| {
        panic::catch_unwind(AssertUnwindSafe(|| {
            check_case_with(module, runs, spec, exact)
        }))
        .unwrap_or_else(|payload| {
            Err(OracleFailure {
                kind: FailureKind::Panic,
                strategy: None,
                detail: panic_message(payload.as_ref()),
            })
        })
    })
}

/// What kind of failure a case shows: the identity a counterexample
/// keeps while it is minimized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationClass {
    /// An oracle fired, on one technique or (`None`) on the case.
    Oracle(FailureKind, Option<&'static str>),
    /// A warm incremental session's report bytes differ from a cold
    /// pipeline's.
    Divergence,
    /// A session lost the module, or changed it, instead of containing
    /// an injected fault.
    Containment,
    /// The fault ledger does not hold the injected fault exactly once,
    /// with the kind the injection implies.
    Ledger,
    /// A function other than the faulted one changed.
    BlastRadius,
    /// A clean call after a contained fault differs from the
    /// fault-free run.
    Recovery,
    /// A pipeline refused or failed outside what the invariant checks
    /// (a session build, a fault-free reference run, a malformed
    /// target, a harness panic). Reported as found, never minimized.
    Driver,
}

impl ViolationClass {
    /// The one same-failure test: `true` when `recheck` is a violation
    /// of this class. The minimizer keeps a reduction only under it, and
    /// [`confirm_minimized`] reports a minimized case only under it.
    pub fn reproduced_by(self, recheck: &Violation) -> bool {
        recheck.class == self
    }
}

/// One failed check: its class and a human-readable description.
#[derive(Clone, Debug)]
pub struct Violation {
    /// What kind of failure this is.
    pub class: ViolationClass,
    /// What went wrong, with both sides where applicable.
    pub detail: String,
}

impl Violation {
    /// A violation of `class`.
    pub fn new(class: ViolationClass, detail: String) -> Self {
        Violation { class, detail }
    }
}

impl From<OracleFailure> for Violation {
    fn from(f: OracleFailure) -> Self {
        Violation::new(ViolationClass::Oracle(f.kind, f.strategy), f.detail)
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.class {
            ViolationClass::Oracle(kind, Some(s)) => {
                return write!(f, "[{kind}] {s}: {}", self.detail)
            }
            ViolationClass::Oracle(kind, None) => return write!(f, "[{kind}] {}", self.detail),
            ViolationClass::Divergence => "divergence",
            ViolationClass::Containment => "containment",
            ViolationClass::Ledger => "ledger",
            ViolationClass::BlastRadius => "blast-radius",
            ViolationClass::Recovery => "recovery",
            ViolationClass::Driver => "driver",
        };
        write!(f, "[{name}] {}", self.detail)
    }
}

/// Accepts a minimized case only when its re-check still fails with the
/// original failure's class; otherwise falls back to the original case.
///
/// Every reduction [`minimize()`] keeps was individually re-checked, but
/// flaky pipelines (fuel-dependent panics, allocator non-convergence)
/// can still re-classify between the last probe and the final report.
/// Pairing the *minimized case* with the *original failure* would print
/// counterexamples that do not reproduce their own headline; the
/// fallback keeps case and failure consistent by construction. `C` is
/// whatever replays the case (module, workload, drift steps).
pub fn confirm_minimized<C, T>(
    original: C,
    failure: Violation,
    minimized: C,
    recheck: Result<T, Violation>,
) -> (C, Violation) {
    match recheck {
        // Adopt the re-derived detail: it describes the case that will
        // actually be printed.
        Err(v) if failure.class.reproduced_by(&v) => (minimized, v),
        _ => (original, failure),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_ir::Module;

    #[test]
    fn generated_cases_pass_on_the_default_target() {
        let spec = spillopt_targets::pa_risc_like();
        for seed in 0..4u64 {
            let case = gen_case(&spec.to_target(), seed);
            match check_case_caught_with(&case.module, &case.runs, &spec, None) {
                Ok(report) => assert!(report.functions >= 1),
                Err(f) => panic!("seed {seed} failed: {f}"),
            }
        }
    }

    #[test]
    fn quiet_panics_suppress_and_restore() {
        let r = with_quiet_panics(|| std::panic::catch_unwind(|| panic!("expected")).is_err());
        assert!(r);
        assert!(!QUIET.with(Cell::get));
    }

    fn fake(class: ViolationClass) -> Violation {
        Violation::new(class, "synthetic".to_string())
    }

    /// The reported case must reproduce the reported failure: a
    /// minimization whose final re-check drifts to a different class (or
    /// stops failing entirely — e.g. fuel-dependent flakiness) must fall
    /// back to the original case instead of pairing the minimized case
    /// with the stale original failure.
    #[test]
    fn confirm_minimized_falls_back_when_the_failure_kind_drifts() {
        let original = Module::new("original");
        let minimized = Module::new("minimized");
        let never_worse = ViolationClass::Oracle(FailureKind::NeverWorse, Some(STRATEGIES[3]));
        let confirm = |failure: ViolationClass, recheck: Result<(), Violation>| {
            let (m, f) =
                confirm_minimized(original.clone(), fake(failure), minimized.clone(), recheck);
            (m.name().to_string(), f)
        };

        // Drifted kind: keep the original module and failure.
        let (m, f) = confirm(
            never_worse,
            Err(fake(ViolationClass::Oracle(
                FailureKind::Semantic,
                Some(STRATEGIES[3]),
            ))),
        );
        assert_eq!(m, "original");
        assert_eq!(f.class, never_worse);

        // Same kind, drifted strategy: also a different failure.
        let (m, f) = confirm(
            never_worse,
            Err(fake(ViolationClass::Oracle(
                FailureKind::NeverWorse,
                Some(STRATEGIES[0]),
            ))),
        );
        assert_eq!(m, "original");
        assert_eq!(f.class, never_worse);

        // A blast-radius violation that shrank into a recovery divergence
        // (or a failed fault-free run) is a different failure too.
        for drifted in [ViolationClass::Recovery, ViolationClass::Driver] {
            let (m, f) = confirm(ViolationClass::BlastRadius, Err(fake(drifted)));
            assert_eq!(m, "original");
            assert_eq!(f.class, ViolationClass::BlastRadius);
        }

        // No longer failing at all: fall back.
        let (m, f) = confirm(never_worse, Ok(()));
        assert_eq!(m, "original");
        assert_eq!(f.detail, "synthetic");

        // Preserved identity: keep the minimized module and adopt the
        // re-derived detail.
        for class in [never_worse, ViolationClass::BlastRadius] {
            let fresh = Violation::new(class, "re-derived".to_string());
            let (m, f) = confirm(class, Err(fresh));
            assert_eq!(m, "minimized");
            assert_eq!(f.detail, "re-derived");
        }
    }
}
