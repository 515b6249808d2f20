//! Fault-injection fuzzer: the containment oracle for fault-tolerant
//! sessions.
//!
//! A fault case starts from a [`spillopt_stress::gen_case`] module. A
//! fault-free run of a Degrade/Skip session (chosen by seed parity)
//! pins the oracle: the module report bytes, every function's
//! per-function report bytes, and an empty fault ledger. Then a fresh
//! session of the same configuration runs the same module with exactly
//! one seeded fault armed — a panic, a recoverable error, or an
//! instant budget trip at the `nth` visit of one named probe site
//! (the [`crate::session`] pipeline's own [`spillopt_obs::span`]
//! seams). Four invariants must hold:
//!
//! * **Containment** — the session call still returns `Ok`; one
//!   poisoned function never loses the module.
//! * **Ledger exactness** — a fired fault appears in
//!   [`crate::ModuleRun::faults`] exactly once, with the kind the
//!   injection implies; an unfired plan (site not reached) leaves the
//!   run byte-identical to the oracle with an empty ledger.
//! * **Blast radius** — every function other than the faulted one
//!   retires byte-identical to the fault-free oracle.
//! * **Recovery** — a clean call on the *same* session afterwards is
//!   byte-identical to the oracle with an empty ledger: no partial
//!   cache state survives the fault, and a single failure never
//!   engages the quarantine backoff.
//!
//! This is [`Invariant::Faults`](crate::stress::Invariant::Faults) of
//! the one stress harness ([`crate::stress`]). Each violation has a
//! [`ViolationClass`] (containment, ledger, blast radius, recovery), and
//! the harness shrinks the module under the seed's fixed fault only
//! while that class holds, so a counterexample prints a small module and
//! the one fault that still breaks it the same way.

use crate::driver::{FaultAction, FaultKind};
use crate::session::{FailurePolicy, OptimizerBuilder, Session};
use crate::stress::Counters;
use spillopt_ir::Module;
use spillopt_obs::fault::{FaultPlan, InjectionKind, InjectionScope};
use spillopt_stress::{Violation, ViolationClass};
use spillopt_targets::TargetSpec;
use ViolationClass::{BlastRadius, Containment, Driver, Ledger, Recovery};

/// The probe sites the fuzzer aims faults at: every span the session
/// pipeline crosses between "function picked up" and "function
/// retired", excluding the outermost `function` span itself (a fault
/// there would be outside the containment boundary by construction)
/// and sites reached only by special harnesses (`exact_search`,
/// `profile_synth`).
pub const FAULT_SITES: &[&str] = &[
    "allocate",
    "cfg",
    "liveness",
    "sccs",
    "pst",
    "derived_cfg",
    "solver_fixpoint",
    "place_entry_exit",
    "place_chow",
    "place_hier_seed",
    "place_hier_exec",
    "place_hier_jump",
    "validate",
    "price",
];

/// The single fault a seed arms, plus the policy its sessions use.
/// Pure in the seed, independent of the module (so the minimizer can
/// shrink the module under a fixed plan).
fn seeded_plan(seed: u64) -> (FaultPlan, FailurePolicy) {
    let mix = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xfa17;
    let site = FAULT_SITES[(mix % FAULT_SITES.len() as u64) as usize];
    let nth = (mix >> 8) % 8;
    let kind = match (mix >> 16) % 3 {
        0 => InjectionKind::Panic,
        1 => InjectionKind::Error,
        _ => InjectionKind::Budget,
    };
    let policy = if seed.is_multiple_of(2) {
        FailurePolicy::Degrade
    } else {
        FailurePolicy::Skip
    };
    (FaultPlan { site, nth, kind }, policy)
}

/// The ledger kind a fired injection must surface as.
fn expected_kind(kind: InjectionKind) -> FaultKind {
    match kind {
        InjectionKind::Panic => FaultKind::Panic,
        InjectionKind::Error => FaultKind::InvalidPlacement,
        InjectionKind::Budget => FaultKind::BudgetExceeded,
    }
}

/// The seed's injected fault, as a counterexample prints it.
pub(crate) fn plan_text(seed: u64) -> String {
    let (plan, policy) = seeded_plan(seed);
    format!(
        "{}@{} {} under policy {}",
        plan.site,
        plan.nth,
        plan.kind.name(),
        policy.name()
    )
}

fn session(spec: &TargetSpec, policy: FailurePolicy) -> Result<Session, Violation> {
    OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(1)
        .on_fault(policy)
        .build()
        .map_err(|e| Violation::new(Driver, format!("session build failed: {e}")))
}

/// Runs the four-invariant check for `module` under the seed's fault
/// plan and policy.
pub(crate) fn check(spec: &TargetSpec, module: &Module, seed: u64) -> Result<Counters, Violation> {
    let (plan, policy) = seeded_plan(seed);
    let fail = |class, detail| Err(Violation::new(class, detail));
    // Fault-free oracle on a fresh session of the same configuration.
    let oracle = session(spec, policy)?
        .optimize(module)
        .map_err(|e| Violation::new(Driver, format!("fault-free oracle run failed: {e}")))?;
    if !oracle.faults().is_empty() {
        return fail(
            Driver,
            format!(
                "fault-free run has a non-empty ledger: {}",
                oracle.faults()[0]
            ),
        );
    }
    let oracle_bytes = oracle.report.to_json().to_compact();
    let oracle_funcs: Vec<String> = oracle
        .report
        .functions
        .iter()
        .map(|f| f.to_json().to_compact())
        .collect();

    // The faulted run: same configuration, one armed fault.
    let faulted = session(spec, policy)?;
    let (run, fired) = {
        let scope = InjectionScope::arm(vec![plan]);
        let run = faulted.optimize(module).map_err(|e| {
            Violation::new(
                Containment,
                format!("session failed instead of containing the fault: {e}"),
            )
        })?;
        let fired = scope.fired();
        (run, fired)
    };

    if fired == 0 {
        // Site not reached: the plan must have been invisible.
        let bytes = run.report.to_json().to_compact();
        if bytes != oracle_bytes {
            return fail(
                Containment,
                format!(
                    "unfired fault changed the report\n  oracle:  {oracle_bytes}\n  faulted: {bytes}"
                ),
            );
        }
        if !run.faults().is_empty() {
            return fail(
                Ledger,
                format!("unfired fault left a ledger entry: {}", run.faults()[0]),
            );
        }
        return Ok(Counters::default());
    }

    // Exactly one armed fault, consume-once semantics: it fired once
    // and must sit in the ledger exactly once, as the right kind.
    let faults = run.faults();
    if faults.len() != 1 {
        return fail(
            Ledger,
            format!(
                "fired fault surfaced {} ledger entries (want exactly 1): {:?}",
                faults.len(),
                faults
            ),
        );
    }
    let fault = &faults[0];
    if fault.kind != expected_kind(plan.kind) {
        return fail(
            Ledger,
            format!(
                "ledger kind {} does not match injected {} ({})",
                fault.kind.name(),
                plan.kind.name(),
                fault
            ),
        );
    }
    if run.report.functions.len() != oracle_funcs.len() {
        return fail(
            Containment,
            format!(
                "faulted run retired {} functions, oracle {}",
                run.report.functions.len(),
                oracle_funcs.len()
            ),
        );
    }
    // Blast radius: every healthy function byte-identical to the oracle.
    for (i, f) in run.report.functions.iter().enumerate() {
        if i == fault.index {
            continue;
        }
        let bytes = f.to_json().to_compact();
        if bytes != oracle_funcs[i] {
            return fail(
                BlastRadius,
                format!(
                    "healthy function {i} diverged under a fault in function {}\n  oracle:  {}\n  faulted: {bytes}",
                    fault.index, oracle_funcs[i]
                ),
            );
        }
    }

    // Recovery: a clean call on the same session matches the oracle
    // byte-for-byte — no partial cache state, no quarantine after a
    // single failure.
    let clean = faulted
        .optimize(module)
        .map_err(|e| Violation::new(Recovery, format!("post-fault clean run failed: {e}")))?;
    let clean_bytes = clean.report.to_json().to_compact();
    if clean_bytes != oracle_bytes {
        return fail(
            Recovery,
            format!(
                "post-fault clean run diverged from the oracle\n  oracle: {oracle_bytes}\n  clean:  {clean_bytes}"
            ),
        );
    }
    if !clean.faults().is_empty() {
        return fail(
            Recovery,
            format!(
                "post-fault clean run has a ledger entry: {}",
                clean.faults()[0]
            ),
        );
    }

    Ok(Counters {
        fired: 1,
        degraded: matches!(fault.action, FaultAction::Degraded { .. }) as u64,
        skipped: (fault.action == FaultAction::Skipped) as u64,
        ..Counters::default()
    })
}

#[cfg(test)]
mod tests {
    use crate::stress::tests::{assert_passed, sweep};
    use crate::stress::Invariant;

    #[test]
    fn fault_smoke_passes_on_every_registered_target() {
        let summary = sweep(0, 12, 0, Invariant::Faults);
        assert_eq!(summary.cases, 12 * spillopt_targets::registry().len());
        assert_passed(&summary);
        let c = summary.counters;
        assert!(c.functions > 0);
        // The site/occurrence mix must actually land faults, and both
        // retirement paths must be exercised across the sweep.
        assert!(c.fired > 0, "no injected fault ever fired");
        assert!(
            c.degraded + c.skipped >= c.fired,
            "fired faults unaccounted for"
        );
    }

    #[test]
    fn fault_sweep_is_deterministic() {
        let a = sweep(40, 4, 1, Invariant::Faults);
        let b = sweep(40, 4, 1, Invariant::Faults);
        assert_eq!(a.counters.fired, b.counters.fired);
        assert_eq!(a.counters.degraded, b.counters.degraded);
        assert_eq!(a.counters.skipped, b.counters.skipped);
        assert_eq!(a.failures.len(), b.failures.len());
    }
}
