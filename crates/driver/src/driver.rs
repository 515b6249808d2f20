//! The module-scale driver's shared types: strategies, profile sources,
//! errors, the fault ledger, and [`ModuleRun`].
//!
//! The pipeline itself (profile → Chaitin/Briggs allocation → one shared
//! [`crate::cache::AnalysisCache`] → every selected placement technique
//! via [`spillopt_core::run_suite`]) lives in `crate::session`; build an
//! [`crate::OptimizerBuilder`] and call [`crate::Session::optimize`].

use crate::report::ModuleReport;
use spillopt_core::insert_placement;
use spillopt_ir::{Cfg, FuncId, Function, Module, RegDiscipline};
use spillopt_profile::ExecError;
use spillopt_sync::Arc;

/// The placement strategies the driver compares, in reporting order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Save at entry, restore at exits (the paper's *Baseline*).
    Baseline,
    /// Chow's shrink-wrapping (the paper's *Shrinkwrap*).
    Shrinkwrap,
    /// Hierarchical placement under the execution-count model.
    HierExec,
    /// Hierarchical placement under the jump-edge model (the paper's
    /// *Optimized* — never worse than Baseline or Shrinkwrap).
    HierJump,
}

impl Strategy {
    /// All strategies, in reporting order.
    pub fn all() -> [Strategy; 4] {
        [
            Strategy::Baseline,
            Strategy::Shrinkwrap,
            Strategy::HierExec,
            Strategy::HierJump,
        ]
    }

    /// Stable identifier (used in JSON and on the CLI).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Baseline => "baseline",
            Strategy::Shrinkwrap => "shrinkwrap",
            Strategy::HierExec => "hier-exec",
            Strategy::HierJump => "hier-jump",
        }
    }

    /// Parses a stable identifier.
    pub fn parse(s: &str) -> Option<Strategy> {
        Strategy::all().into_iter().find(|t| t.name() == s)
    }
}

/// Where each function's edge profile comes from.
#[derive(Clone, Debug)]
pub enum ProfileSource {
    /// Execute a training workload on the interpreter and measure. The
    /// `FuncId`s name functions of **one specific module** — a session
    /// carrying a workload must only optimize that module (runs naming
    /// out-of-range functions are rejected; `optimize_many` over more
    /// than one module rejects workload sessions outright).
    Workload(Vec<(FuncId, Vec<i64>)>),
    /// Deterministic synthetic random-walk profiles (for bare modules
    /// parsed from text, which carry no workload).
    Synthetic {
        /// Number of walks from the entry block.
        walks: u64,
        /// Step bound per walk.
        max_steps: u64,
        /// Base seed; function index is mixed in per function.
        seed: u64,
    },
    /// Explicit measured per-function edge profiles, indexed by function
    /// index — the re-profiling path ([`crate::Session::optimize_profiled`]
    /// builds this per call). Like a workload, the vector is positional
    /// over **one specific module's** functions: length or per-function
    /// edge-count mismatches are rejected, and `optimize_many` over more
    /// than one module rejects profile sessions outright.
    Profiles(Vec<spillopt_profile::EdgeProfile>),
}

impl Default for ProfileSource {
    fn default() -> Self {
        ProfileSource::Synthetic {
            walks: 256,
            max_steps: 512,
            seed: 0xC0DE,
        }
    }
}

/// A driver failure.
#[derive(Debug)]
pub enum DriverError {
    /// The training workload crashed or ran out of fuel.
    Workload(ExecError),
    /// A cross-target loader could not produce the module for a target.
    Load(String),
    /// The builder rejected its configuration (unknown target name,
    /// malformed convention, empty technique set, or a method that needs
    /// a different target shape).
    Config(String),
    /// A technique produced a placement that failed validity checking —
    /// a bug in the placement passes, surfaced structurally (naming the
    /// function and technique) instead of as a panic unwinding through
    /// the pool's panic catcher.
    InvalidPlacement {
        /// The function whose placement is invalid.
        function: String,
        /// The reporting name of the technique (`baseline`,
        /// `shrinkwrap`, `hier-exec`, `hier-jump`).
        technique: &'static str,
        /// The validity violations, rendered.
        detail: String,
    },
    /// One function's optimization pipeline panicked. The pool catches
    /// worker panics (they would otherwise poison its mutexes and
    /// resurface on other threads as opaque `PoisonError` unwraps), and
    /// the driver names the failing unit instead.
    Panicked {
        /// The function whose pipeline died — `module::function` in a
        /// batch of more than one module — or the target, for
        /// cross-target fan-outs.
        unit: String,
        /// The panic message.
        message: String,
    },
    /// A function blew through the session's cooperative
    /// [`Budget`](crate::Budget) (wall-clock deadline or solver-iteration
    /// cap). Under [`FailurePolicy::Fail`](crate::FailurePolicy::Fail)
    /// this surfaces here; under `Degrade`/`Skip` it is caught and
    /// recorded in the fault ledger instead.
    BudgetExceeded {
        /// The function whose pipeline exceeded the budget.
        function: String,
        /// The probe site (phase) whose budget check tripped.
        phase: &'static str,
    },
    /// A user-supplied [`crate::Observer`] callback panicked. This is a
    /// fault of the observer, not of the function's pipeline, so it is
    /// reported distinctly (naming the observer and callback) and is
    /// never degraded or attributed to the function.
    ObserverPanicked {
        /// The observer's [`crate::Observer::name`].
        observer: String,
        /// Which callback panicked (`function_retired` or `module_done`).
        callback: &'static str,
        /// The panic message.
        message: String,
    },
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Workload(e) => write!(f, "training workload failed: {e}"),
            DriverError::Load(msg) => write!(f, "module load failed: {msg}"),
            DriverError::Config(msg) => write!(f, "invalid optimizer configuration: {msg}"),
            DriverError::InvalidPlacement {
                function,
                technique,
                detail,
            } => write!(
                f,
                "`{technique}` produced an invalid placement in `{function}`: {detail}"
            ),
            DriverError::Panicked { unit, message } => {
                write!(f, "optimization pipeline panicked in `{unit}`: {message}")
            }
            DriverError::BudgetExceeded { function, phase } => {
                write!(f, "budget exceeded in `{function}` during `{phase}`")
            }
            DriverError::ObserverPanicked {
                observer,
                callback,
                message,
            } => write!(
                f,
                "observer `{observer}` panicked in `{callback}`: {message}"
            ),
        }
    }
}

impl std::error::Error for DriverError {}

/// What went wrong with one function, as recorded in the fault ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The pipeline panicked (caught and contained).
    Panic,
    /// A technique produced a placement that failed validity checking.
    InvalidPlacement,
    /// The cooperative budget tripped (deadline or iteration cap).
    BudgetExceeded,
    /// The function was skipped without an attempt: a quarantined repeat
    /// offender sitting out its backoff window.
    Quarantined,
}

impl FaultKind {
    /// Stable identifier (used in ledger rendering and the fuzzer).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::InvalidPlacement => "invalid-placement",
            FaultKind::BudgetExceeded => "budget-exceeded",
            FaultKind::Quarantined => "quarantined",
        }
    }
}

/// How the session resolved a contained fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// A lower rung of the guarantee chain succeeded; the function
    /// retired with that single strategy.
    Degraded {
        /// The strategy that rescued the function.
        to: Strategy,
    },
    /// Every rung failed (or the policy was
    /// [`FailurePolicy::Skip`](crate::FailurePolicy::Skip), or the
    /// function was quarantined): the function passed through
    /// unoptimized.
    Skipped,
}

/// One entry of the per-run fault ledger: a function whose full pipeline
/// failed under `Degrade` or `Skip` ([`crate::FailurePolicy`]), with
/// the original error preserved.
#[derive(Clone, Debug)]
pub struct FunctionFault {
    /// The function's name.
    pub function: String,
    /// The function's index in the module.
    pub index: usize,
    /// What failed.
    pub kind: FaultKind,
    /// The original error, rendered.
    pub error: String,
    /// How the session resolved it.
    pub action: FaultAction,
}

impl std::fmt::Display for FunctionFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let action = match self.action {
            FaultAction::Degraded { to } => format!("degraded to {}", to.name()),
            FaultAction::Skipped => "skipped (unoptimized passthrough)".to_string(),
        };
        write!(
            f,
            "`{}` [{}] {}: {}",
            self.function,
            self.kind.name(),
            action,
            self.error
        )
    }
}

/// The driver's full output: the deterministic report plus the allocated
/// functions and placements needed to materialize an optimized module.
#[derive(Debug)]
pub struct ModuleRun {
    /// Deterministic module-level report.
    pub report: ModuleReport,
    /// Allocated (physical, pre-placement) functions, in [`FuncId`]
    /// order; each selected strategy's placement is in the report.
    /// Shared: a warm session hands out its arena's own copy.
    allocated: Vec<Arc<Function>>,
    /// Fault ledger: functions contained under `Degrade`/`Skip`, in
    /// [`FuncId`] order. Empty under `Fail` and on clean runs.
    faults: Vec<FunctionFault>,
}

impl ModuleRun {
    /// Assembles a run from its parts (the session engine and the
    /// reference pipeline in [`crate::refimpl`] build the same
    /// structure).
    pub(crate) fn from_parts(
        report: ModuleReport,
        allocated: Vec<Arc<Function>>,
        faults: Vec<FunctionFault>,
    ) -> Self {
        ModuleRun {
            report,
            allocated,
            faults,
        }
    }

    /// The fault ledger: one entry per function whose full pipeline
    /// failed and was contained (degraded, skipped, or quarantined).
    /// Empty on clean runs and under
    /// [`FailurePolicy::Fail`](crate::FailurePolicy::Fail).
    pub fn faults(&self) -> &[FunctionFault] {
        &self.faults
    }

    /// Materializes the optimized module: inserts each function's
    /// placement under `choice` (`None` = the per-function best) and
    /// verifies the result. Functions the fault ledger marks as skipped
    /// are emitted unmodified (they were never optimized).
    ///
    /// # Panics
    ///
    /// Panics if `choice` names a strategy this run did not compute
    /// (it was outside the session's `TechniqueSet`) — silently
    /// emitting the function without save/restore code would violate
    /// the calling convention — or if an inserted function fails
    /// physical-discipline verification (a pipeline bug, never an
    /// input condition).
    pub fn apply(&self, choice: Option<Strategy>) -> Module {
        let mut out = Module::new(self.report.module.clone());
        for (i, (func, report)) in self
            .allocated
            .iter()
            .zip(&self.report.functions)
            .enumerate()
        {
            // A fault-skipped function passed through unoptimized: its
            // stored function is the *source* (possibly still in virtual
            // registers, never allocated), so it is emitted as-is rather
            // than placed and held to the physical discipline.
            let skipped = self
                .faults
                .iter()
                .any(|fault| fault.index == i && fault.action == FaultAction::Skipped);
            if skipped {
                out.add_func(Function::clone(func));
                continue;
            }
            let mut func = Function::clone(func);
            let strategy = choice.unwrap_or_else(|| report.best.unwrap_or(Strategy::HierJump));
            if let Some(chosen) = report.strategy(strategy) {
                let cfg = Cfg::compute(&func);
                insert_placement(&mut func, &cfg, &chosen.placement);
            } else if !report.strategies.is_empty() {
                // The function needed placement but this strategy was
                // not computed (not in the session's technique set).
                panic!(
                    "strategy `{}` was not computed for `{}` in this run (computed: {})",
                    strategy.name(),
                    func.name(),
                    report
                        .strategies
                        .iter()
                        .map(|s| s.strategy.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
            let errs = spillopt_ir::verify_function(&func, RegDiscipline::Physical);
            assert!(
                errs.is_empty(),
                "optimized `{}` invalid: {errs:?}",
                func.name()
            );
            out.add_func(func);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::OptimizerBuilder;
    use spillopt_benchgen::{benchmark_by_name, build_bench};
    use spillopt_ir::Target;

    fn small_bench_module() -> (Module, Vec<(FuncId, Vec<i64>)>, Target) {
        let target = Target::default();
        let spec = benchmark_by_name("mcf").expect("known benchmark");
        let bench = build_bench(&spec, &target);
        (bench.module, bench.train_runs, target)
    }

    #[test]
    fn workload_and_synthetic_profiles_both_run() {
        let (module, runs, target) = small_bench_module();
        let with_workload = OptimizerBuilder::new()
            .target(target.clone())
            .threads(1)
            .profile(ProfileSource::Workload(runs))
            .build()
            .expect("valid")
            .optimize(&module)
            .expect("driver");
        let synthetic = OptimizerBuilder::new()
            .target(target)
            .threads(1)
            .build()
            .expect("valid")
            .optimize(&module)
            .expect("driver");
        assert_eq!(with_workload.report.functions.len(), module.num_funcs());
        assert_eq!(synthetic.report.functions.len(), module.num_funcs());
    }

    #[test]
    fn best_is_never_beaten_and_apply_verifies() {
        let (module, runs, target) = small_bench_module();
        let run = OptimizerBuilder::new()
            .target(target)
            .threads(2)
            .profile(ProfileSource::Workload(runs))
            .build()
            .expect("valid")
            .optimize(&module)
            .expect("driver");
        for f in &run.report.functions {
            if let Some(best) = f.best {
                let best_cost = f.strategy(best).unwrap().cost;
                for s in &f.strategies {
                    assert!(best_cost <= s.cost, "{}: best beaten", f.name);
                }
            }
        }
        let optimized = run.apply(None);
        assert_eq!(optimized.num_funcs(), module.num_funcs());
    }

    #[test]
    fn invalid_placement_error_is_structured() {
        let err = DriverError::InvalidPlacement {
            function: "f".to_string(),
            technique: Strategy::HierJump.name(),
            detail: "r11 busy in b2 but not saved".to_string(),
        };
        let rendered = err.to_string();
        assert!(rendered.contains("hier-jump"), "{rendered}");
        assert!(rendered.contains("`f`"), "{rendered}");
        assert!(rendered.contains("busy in b2"), "{rendered}");
    }
}
