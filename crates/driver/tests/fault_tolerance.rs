//! Integration tests for fault-tolerant sessions: containment under
//! every [`FailurePolicy`], cooperative budgets, quarantine backoff,
//! observer-panic attribution, and session reusability after failures.

use spillopt_driver::{
    Budget, DriverError, FailurePolicy, FaultAction, FaultKind, OptimizerBuilder, Session, Strategy,
};
use spillopt_ir::Module;
use spillopt_obs::fault::{FaultPlan, InjectionKind, InjectionScope};
use spillopt_stress::gen_case;
use spillopt_targets::{pa_risc_like, TargetSpec};

fn test_module(seed: u64) -> Module {
    gen_case(&pa_risc_like().to_target(), seed).module
}

/// A serial session (injection scopes are thread-local, so the
/// pipeline must run inline) with the given policy and an arena.
fn session(spec: &TargetSpec, policy: FailurePolicy) -> Session {
    OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(1)
        .on_fault(policy)
        .build()
        .expect("valid session")
}

fn oracle_bytes(spec: &TargetSpec, module: &Module) -> String {
    session(spec, FailurePolicy::Fail)
        .optimize(module)
        .expect("fault-free run")
        .report
        .to_json()
        .to_compact()
}

fn plan(site: &'static str, kind: InjectionKind) -> FaultPlan {
    FaultPlan { site, nth: 0, kind }
}

#[test]
fn fail_policy_surfaces_structured_errors_and_session_stays_usable() {
    let spec = pa_risc_like();
    let module = test_module(3);
    let oracle = oracle_bytes(&spec, &module);
    let sess = session(&spec, FailurePolicy::Fail);

    // An injected panic surfaces as DriverError::Panicked.
    {
        let _scope = InjectionScope::arm(vec![plan("allocate", InjectionKind::Panic)]);
        let err = sess.optimize(&module).expect_err("fault must surface");
        assert!(
            matches!(err, DriverError::Panicked { .. }),
            "wrong error class: {err}"
        );
    }
    // An injected recoverable error surfaces as InvalidPlacement.
    {
        let _scope = InjectionScope::arm(vec![plan("cfg", InjectionKind::Error)]);
        let err = sess.optimize(&module).expect_err("fault must surface");
        assert!(
            matches!(err, DriverError::InvalidPlacement { .. }),
            "wrong error class: {err}"
        );
    }
    // An injected budget trip surfaces as BudgetExceeded naming the site.
    {
        let _scope = InjectionScope::arm(vec![plan("liveness", InjectionKind::Budget)]);
        let err = sess.optimize(&module).expect_err("fault must surface");
        match err {
            DriverError::BudgetExceeded { phase, .. } => assert_eq!(phase, "liveness"),
            other => panic!("wrong error class: {other}"),
        }
    }

    // After three failures, the same session's clean run is
    // byte-identical to a fresh session: no poisoned locks, no partial
    // cache state.
    let clean = sess.optimize(&module).expect("session must stay usable");
    assert_eq!(clean.report.to_json().to_compact(), oracle);
    assert!(clean.faults().is_empty());
}

#[test]
fn degrade_policy_retires_the_function_down_the_ladder() {
    let spec = pa_risc_like();
    let module = test_module(5);
    let sess = session(&spec, FailurePolicy::Degrade);

    let run = {
        // place_hier_jump only runs inside the full suite, so the
        // degraded rungs (fresh single-technique attempts) are clean.
        let scope = InjectionScope::arm(vec![plan("place_hier_jump", InjectionKind::Panic)]);
        let run = sess.optimize(&module).expect("degrade must contain");
        assert_eq!(scope.fired(), 1, "fault never fired");
        run
    };
    assert_eq!(run.faults().len(), 1, "exactly one ledger entry");
    let fault = &run.faults()[0];
    assert_eq!(fault.kind, FaultKind::Panic);
    assert!(
        matches!(
            fault.action,
            FaultAction::Degraded {
                to: Strategy::HierJump
            }
        ),
        "first ladder rung should succeed: {fault}"
    );
    // The degraded function still carries a validated placement.
    let report = &run.report.functions[fault.index];
    assert_eq!(report.best, Some(Strategy::HierJump));
    assert_eq!(report.strategies.len(), 1);

    // Applying the run (placement insertion) must work end to end.
    let optimized = run.apply(None);
    assert_eq!(optimized.num_funcs(), module.num_funcs());
}

#[test]
fn skip_policy_passes_the_function_through_unoptimized() {
    let spec = pa_risc_like();
    let module = test_module(7);
    let sess = session(&spec, FailurePolicy::Skip);

    let run = {
        let _scope = InjectionScope::arm(vec![plan("allocate", InjectionKind::Panic)]);
        sess.optimize(&module).expect("skip must contain")
    };
    assert_eq!(run.faults().len(), 1);
    let fault = &run.faults()[0];
    assert_eq!(fault.action, FaultAction::Skipped);
    let report = &run.report.functions[fault.index];
    assert!(report.best.is_none(), "skipped function has no placement");
    assert!(report.strategies.is_empty());
    // apply() emits the skipped function as its source IR.
    let optimized = run.apply(None);
    assert_eq!(optimized.num_funcs(), module.num_funcs());
}

#[test]
fn iteration_budget_surfaces_under_fail_and_degrades_under_degrade() {
    let spec = pa_risc_like();
    let module = test_module(11);

    // Fail: the first function whose placement reaches the Chow
    // fixpoint trips the cap and the error names the phase.
    let strict = OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(1)
        .budget(Budget::none().solver_iters(0))
        .build()
        .expect("valid session");
    let err = strict.optimize(&module).expect_err("cap must trip");
    match err {
        DriverError::BudgetExceeded { phase, .. } => assert_eq!(phase, "solver_fixpoint"),
        other => panic!("wrong error class: {other}"),
    }

    // Degrade: every rung that needs the Chow fixpoint trips too, so
    // the ladder lands on the entry/exit baseline — and the module
    // still comes back whole.
    let lenient = OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(1)
        .on_fault(FailurePolicy::Degrade)
        .budget(Budget::none().solver_iters(0))
        .build()
        .expect("valid session");
    let run = lenient.optimize(&module).expect("degrade must contain");
    assert!(!run.faults().is_empty(), "cap never tripped");
    for fault in run.faults() {
        assert_eq!(fault.kind, FaultKind::BudgetExceeded, "{fault}");
        assert_eq!(
            fault.action,
            FaultAction::Degraded {
                to: Strategy::Baseline
            },
            "{fault}"
        );
    }
    assert_eq!(run.report.functions.len(), module.num_funcs());
}

#[test]
fn optimize_many_keeps_healthy_modules_under_degrade_and_skip() {
    let spec = pa_risc_like();
    let modules: Vec<Module> = (20..23).map(test_module).collect();
    let oracles: Vec<String> = modules.iter().map(|m| oracle_bytes(&spec, m)).collect();

    for policy in [FailurePolicy::Degrade, FailurePolicy::Skip] {
        let sess = session(&spec, policy);
        let runs = {
            let scope = InjectionScope::arm(vec![plan("allocate", InjectionKind::Panic)]);
            let runs = sess.optimize_many(&modules).expect("batch must survive");
            assert_eq!(scope.fired(), 1);
            runs
        };
        assert_eq!(runs.len(), modules.len());
        let faulted: Vec<usize> = runs
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.faults().is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(faulted.len(), 1, "exactly one module carries the fault");
        let total: usize = runs.iter().map(|r| r.faults().len()).sum();
        assert_eq!(total, 1, "the fault appears exactly once across the batch");
        for (i, run) in runs.iter().enumerate() {
            if i != faulted[0] {
                assert_eq!(
                    run.report.to_json().to_compact(),
                    oracles[i],
                    "healthy module {i} diverged under policy {}",
                    policy.name()
                );
            }
        }
    }
}

#[test]
fn quarantine_backs_off_repeat_offenders_then_readmits() {
    let spec = pa_risc_like();
    let module = test_module(13);
    let oracle = oracle_bytes(&spec, &module);
    let sess = session(&spec, FailurePolicy::Skip);

    // Two faulted runs on the same function: the second failure opens a
    // backoff window of two calls.
    for _ in 0..2 {
        let run = {
            let _scope = InjectionScope::arm(vec![plan("allocate", InjectionKind::Panic)]);
            sess.optimize(&module).expect("skip must contain")
        };
        assert_eq!(run.faults().len(), 1);
        assert_eq!(run.faults()[0].kind, FaultKind::Panic);
    }

    // The next two clean calls sit out the quarantine window: no
    // attempt, a Quarantined ledger entry instead.
    for call in 0..2 {
        let run = sess.optimize(&module).expect("quarantine must contain");
        assert_eq!(run.faults().len(), 1, "call {call}");
        assert_eq!(run.faults()[0].kind, FaultKind::Quarantined, "call {call}");
    }
    assert_eq!(sess.stats().arena.quarantined, 2);

    // The window has elapsed: the function is readmitted, succeeds, and
    // the report is byte-identical to a fault-free session's.
    let run = sess.optimize(&module).expect("readmitted run");
    assert!(run.faults().is_empty(), "{:?}", run.faults());
    assert_eq!(run.report.to_json().to_compact(), oracle);

    // A single failure never quarantines: one fault, then a clean call
    // that attempts (and matches the oracle) immediately.
    let fresh = session(&spec, FailurePolicy::Skip);
    {
        let _scope = InjectionScope::arm(vec![plan("allocate", InjectionKind::Panic)]);
        fresh.optimize(&module).expect("skip must contain");
    }
    let clean = fresh.optimize(&module).expect("clean run");
    assert!(clean.faults().is_empty());
    assert_eq!(clean.report.to_json().to_compact(), oracle);
    assert_eq!(fresh.stats().arena.quarantined, 0);
}

/// An observer that panics in a chosen callback.
struct PanickyObserver {
    in_retired: bool,
}

impl spillopt_driver::Observer for PanickyObserver {
    fn function_retired(
        &self,
        _target: &str,
        _module: &str,
        _report: &spillopt_driver::FunctionReport,
        _provenance: spillopt_driver::Provenance,
    ) {
        if self.in_retired {
            panic!("observer bug: log sink unavailable");
        }
    }

    fn module_done(&self, _report: &spillopt_driver::ModuleReport) {
        if !self.in_retired {
            panic!("observer bug: summary sink unavailable");
        }
    }

    fn name(&self) -> &str {
        "panicky-logger"
    }
}

#[test]
fn observer_panics_are_attributed_to_the_observer_not_the_function() {
    let spec = pa_risc_like();
    let module = test_module(17);

    for in_retired in [true, false] {
        let sess = session(&spec, FailurePolicy::Degrade);
        let observer = PanickyObserver { in_retired };
        let err = sess
            .optimize_observed(&module, &observer)
            .expect_err("observer panic must surface");
        match err {
            DriverError::ObserverPanicked {
                observer,
                callback,
                message,
            } => {
                assert_eq!(observer, "panicky-logger");
                let expected = if in_retired {
                    "function_retired"
                } else {
                    "module_done"
                };
                assert_eq!(callback, expected);
                assert!(message.contains("observer bug"), "{message}");
            }
            other => panic!("wrong error class: {other}"),
        }
        // The observer's failure is not the pipeline's: the same
        // session retires the module cleanly without the observer.
        let run = sess.optimize(&module).expect("session must stay usable");
        assert!(run.faults().is_empty());
    }
}
