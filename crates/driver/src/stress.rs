//! The one fuzz harness: every `(target, seed)` case of a sweep is
//! generated, checked against one [`Invariant`], and — on failure —
//! minimized under a same-failure replay predicate.
//!
//! `spillopt-stress` owns the generator, the oracles, the minimizer and
//! the [`ViolationClass`] a counterexample keeps while it shrinks; the
//! drift and fault checks live in [`crate::drift`] and [`crate::faults`].
//! This module fans the cases out on the work-stealing pool and
//! aggregates one [`StressSummary`] — the engine behind `spillopt
//! stress` (with `--exact`, `--drift` or `--faults`), `spillopt gap`,
//! the per-PR smoke slices and the nightly CI sweeps. It is a library
//! API on purpose: integration tests drive the same entry point the CLI
//! uses.

use crate::json::Json;
use crate::pool::try_run_indexed;
use crate::{drift, faults};
use spillopt_ir::{FuncId, Module};
use spillopt_stress::{
    check_case_caught_with, confirm_minimized, gen_case, is_closed, minimize, with_quiet_panics,
    ExactOptions, ExactStats, GapHist, ModelGapStats, Violation, ViolationClass,
};
use spillopt_targets::TargetSpec;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The property a sweep checks on every case.
#[derive(Clone, Copy, Debug)]
pub enum Invariant {
    /// The interpreter-backed oracles (semantic equivalence, model
    /// fidelity, never-worse) on all four placements. With `exact`, the
    /// optimality-gap oracle also runs: a hier-jump placement beyond the
    /// allowed gap over the certified optimum fails the case, and
    /// per-target gap statistics land in [`StressSummary::exact`].
    Oracles {
        /// Optimality-gap oracle settings, when it runs.
        exact: Option<ExactOptions>,
    },
    /// The profile-drift differential: a warm incremental session must
    /// match a fresh cold pipeline byte for byte after the base profile
    /// and each of `steps` seeded drift steps. A divergence shrinks the
    /// steps first, then the module.
    Drift {
        /// Drift steps per case.
        steps: u64,
    },
    /// The fault-injection fuzzer: one seeded fault per case, with
    /// containment, ledger exactness, blast radius and recovery checked
    /// against a fault-free run.
    Faults,
}

/// Configuration of one sweep.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// First seed (inclusive).
    pub start: u64,
    /// Number of seeds to run.
    pub seeds: u64,
    /// Targets to check every seed on.
    pub targets: Vec<TargetSpec>,
    /// Worker threads; `0` = available parallelism, `1` = serial.
    pub threads: usize,
    /// What every case is checked against.
    pub invariant: Invariant,
}

/// What a sweep's passing cases measured, summed. Each invariant fills
/// its own counters; the others stay zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Functions generated and checked.
    pub functions: u64,
    /// Oracles: functions that used callee-saved registers.
    pub placed_functions: u64,
    /// Oracles: technique × function placements checked.
    pub placements_checked: u64,
    /// Drift: warm-vs-cold byte comparisons (base + steps per case).
    pub checks: u64,
    /// Drift: warm-session arena hits (zero-delta steps served from the
    /// outcome cache).
    pub warm_hits: u64,
    /// Drift: warm-session incremental re-folds (drifted profile,
    /// allocation unchanged).
    pub incremental: u64,
    /// Drift: regions actually re-folded by the incremental calls.
    pub regions_refolded: u64,
    /// Drift: regions the incremental calls would have folded cold.
    pub regions_total: u64,
    /// Faults: cases whose armed fault fired (the site was reached).
    pub fired: u64,
    /// Faults: fired cases retired by a degradation-ladder rung.
    pub degraded: u64,
    /// Faults: fired cases retired as unoptimized passthroughs.
    pub skipped: u64,
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, o: Counters) {
        self.functions += o.functions;
        self.placed_functions += o.placed_functions;
        self.placements_checked += o.placements_checked;
        self.checks += o.checks;
        self.warm_hits += o.warm_hits;
        self.incremental += o.incremental;
        self.regions_refolded += o.regions_refolded;
        self.regions_total += o.regions_total;
        self.fired += o.fired;
        self.degraded += o.degraded;
        self.skipped += o.skipped;
    }
}

/// One target's accumulated exact-oracle coverage and gap histograms.
#[derive(Clone, Copy, Debug)]
pub struct TargetGapStats {
    /// Registry name.
    pub target: &'static str,
    /// Solver coverage and measured gaps, summed over this target's
    /// passing cases.
    pub stats: ExactStats,
}

impl TargetGapStats {
    /// The per-target entry of the `spillopt gap --json` report.
    pub fn to_json(&self) -> Json {
        let hist = |h: &GapHist| {
            Json::obj()
                .with("zero", Json::UInt(h.zero as u64))
                .with("le1_pct", Json::UInt(h.le1 as u64))
                .with("le5_pct", Json::UInt(h.le5 as u64))
                .with("le10_pct", Json::UInt(h.le10 as u64))
                .with("gt10_pct", Json::UInt(h.gt10 as u64))
                .with("max_gap_permille", Json::UInt(h.max_permille))
        };
        let model = |m: &ModelGapStats| {
            Json::obj()
                .with("solved", Json::UInt(m.solved as u64))
                .with("bounded", Json::UInt(m.bounded as u64))
                .with("skipped", Json::UInt(m.skipped as u64))
                .with("gaps", hist(&m.hist))
        };
        Json::obj()
            .with("target", Json::str(self.target))
            .with("hier_jump_vs_jump_optimum", model(&self.stats.jump))
            .with("hier_exec_vs_exec_optimum", model(&self.stats.exec))
    }
}

/// A minimized counterexample: the failure and what replays it.
#[derive(Clone, Debug)]
pub struct StressFailure {
    /// The seed that produced the case.
    pub seed: u64,
    /// Registry name of the target it failed on.
    pub target: &'static str,
    /// What broke; the minimized case reproduces exactly this class.
    pub violation: Violation,
    /// What replays the case besides the module: the workload calls,
    /// the kept drift steps, or the injected fault.
    pub replay: String,
    /// IR text of the minimized module (feed to `spillopt --input` or a
    /// regression test).
    pub minimized: String,
}

impl fmt::Display for StressFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "seed {} on target {}: {}",
            self.seed, self.target, self.violation
        )?;
        if !self.replay.is_empty() {
            writeln!(f, "{}", self.replay)?;
        }
        writeln!(f, "minimized module:")?;
        write!(f, "{}", self.minimized)
    }
}

/// Aggregated outcome of a sweep.
#[derive(Debug, Default)]
pub struct StressSummary {
    /// `(target, seed)` cases checked (including failing ones).
    pub cases: usize,
    /// Counters summed over the passing cases.
    pub counters: Counters,
    /// Per-target exact-oracle statistics, in configuration target
    /// order. Empty unless the invariant runs the exact oracle.
    pub exact: Vec<TargetGapStats>,
    /// Minimized counterexamples, ordered by seed then target order.
    pub failures: Vec<StressFailure>,
}

impl StressSummary {
    /// `true` when every case held the invariant.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The `spillopt gap --json` report body (the caller wraps it with
    /// run provenance).
    pub fn gap_report_json(&self) -> Json {
        Json::Array(self.exact.iter().map(TargetGapStats::to_json).collect())
    }
}

impl Invariant {
    /// Checks one case: `module` with its workload `runs` and, for
    /// drift, the step ids to replay.
    fn check(
        &self,
        spec: &TargetSpec,
        seed: u64,
        module: &Module,
        runs: &[(FuncId, Vec<i64>)],
        steps: &[u64],
    ) -> Result<(Counters, ExactStats), Violation> {
        let (mut counters, exact) = match self {
            Invariant::Oracles { exact } => {
                let report = check_case_caught_with(module, runs, spec, exact.as_ref())?;
                let counters = Counters {
                    placed_functions: report.placed_functions as u64,
                    placements_checked: report.placements_checked as u64,
                    ..Counters::default()
                };
                (counters, report.exact)
            }
            Invariant::Drift { .. } => (
                drift::replay(spec, module, seed, steps)?,
                ExactStats::default(),
            ),
            Invariant::Faults => (faults::check(spec, module, seed)?, ExactStats::default()),
        };
        counters.functions = module.num_funcs() as u64;
        Ok((counters, exact))
    }

    /// Renders what replays a minimized case besides its module.
    fn replay_text(&self, seed: u64, runs: &[(FuncId, Vec<i64>)], steps: &[u64]) -> String {
        match self {
            Invariant::Oracles { .. } => {
                let mut text = "workload:".to_string();
                for (func, args) in runs {
                    text.push_str(&format!("\n  call @{}({args:?})", func.index()));
                }
                text
            }
            Invariant::Drift { .. } => format!("drift steps kept: {steps:?}"),
            Invariant::Faults => format!("injected fault: {}", faults::plan_text(seed)),
        }
    }
}

/// Runs one `(target, seed)` case; a failure comes back minimized.
fn run_case(
    invariant: &Invariant,
    spec: &TargetSpec,
    seed: u64,
) -> Result<(Counters, ExactStats), Box<StressFailure>> {
    let failure = |violation, replay, minimized| {
        Box::new(StressFailure {
            seed,
            target: spec.name,
            violation,
            replay,
            minimized,
        })
    };
    let target = spec.try_to_target().map_err(|e| {
        let v = Violation::new(ViolationClass::Driver, format!("target malformed: {e}"));
        failure(v, String::new(), String::new())
    })?;
    let case = gen_case(&target, seed);
    let steps: Vec<u64> = match invariant {
        Invariant::Drift { steps } => (1..=*steps).collect(),
        _ => Vec::new(),
    };
    let violation = match invariant.check(spec, seed, &case.module, &case.runs, &steps) {
        Ok(passed) => return Ok(passed),
        Err(v) => v,
    };
    let original = (case.module, case.runs, steps);
    let ((module, runs, steps), violation) = if violation.class == ViolationClass::Driver {
        (original, violation)
    } else {
        // The shrink predicate: the reduced case still fails with the
        // same class. The oracles also demand a closed module (a
        // reduction that merely introduces undefined inputs is not a
        // counterexample); a panic while checking is a different failure.
        let still_fails = |m: &Module, r: &[(FuncId, Vec<i64>)], s: &[u64]| {
            if matches!(invariant, Invariant::Oracles { .. }) && !is_closed(m, &target) {
                return false;
            }
            let checked = catch_unwind(AssertUnwindSafe(|| invariant.check(spec, seed, m, r, s)));
            matches!(checked, Ok(Err(v)) if violation.class.reproduced_by(&v))
        };
        // Shrink the drift steps first (greedy single drops), then the
        // module under the kept steps.
        let mut kept = original.2.clone();
        for i in (0..kept.len()).rev() {
            let mut candidate = kept.clone();
            candidate.remove(i);
            if still_fails(&original.0, &original.1, &candidate) {
                kept = candidate;
            }
        }
        let (module, runs) = minimize(&original.0, &original.1, |m, r| still_fails(m, r, &kept));
        // Re-check so the reported detail describes the case actually
        // printed; fall back to the generated case if the failure's
        // class drifted.
        let recheck = invariant.check(spec, seed, &module, &runs, &kept);
        confirm_minimized(original, violation, (module, runs, kept), recheck)
    };
    let replay = invariant.replay_text(seed, &runs, &steps);
    Err(failure(violation, replay, module.to_string()))
}

/// Runs `config.invariant` over `config.seeds` seeds × `config.targets`
/// targets on the work-stealing pool. Deterministic: the summary
/// (including failure order) is a pure function of the configuration.
pub fn run_stress(config: &StressConfig) -> StressSummary {
    let mut items: Vec<(TargetSpec, u64)> = Vec::new();
    for seed in config.start..config.start.saturating_add(config.seeds) {
        for spec in &config.targets {
            items.push((spec.clone(), seed));
        }
    }
    let mut summary = StressSummary {
        cases: items.len(),
        ..StressSummary::default()
    };
    let coords: Vec<(&'static str, u64)> = items.iter().map(|(s, seed)| (s.name, *seed)).collect();
    // The oracles catch pipeline panics, and sessions contain them; this
    // net covers a panic in the generator, a check or the minimizer
    // itself, converting it into a failure that names its (target, seed)
    // instead of killing the sweep.
    let invariant = config.invariant;
    let outcomes = match try_run_indexed(items, config.threads, move |_, (spec, seed)| {
        with_quiet_panics(|| run_case(&invariant, &spec, seed))
    }) {
        Ok(outcomes) => outcomes,
        Err(p) => {
            let (target, seed) = coords[p.index];
            let detail = format!("stress harness panicked: {}", p.message());
            summary.failures.push(StressFailure {
                seed,
                target,
                violation: Violation::new(ViolationClass::Driver, detail),
                replay: String::new(),
                minimized: String::new(),
            });
            return summary;
        }
    };

    if let Invariant::Oracles { exact: Some(_) } = config.invariant {
        summary.exact = config
            .targets
            .iter()
            .map(|spec| TargetGapStats {
                target: spec.name,
                stats: ExactStats::default(),
            })
            .collect();
    }
    // Items were pushed seed-major, so case `i` ran on target
    // `i % targets.len()`.
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok((counters, exact)) => {
                summary.counters += counters;
                if let Some(t) = summary.exact.get_mut(i % config.targets.len()) {
                    t.stats.accumulate(&exact);
                }
            }
            Err(failure) => summary.failures.push(*failure),
        }
    }
    summary
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn assert_passed(summary: &StressSummary) {
        assert!(
            summary.passed(),
            "failures:\n{}",
            summary
                .failures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    pub(crate) fn sweep(
        start: u64,
        seeds: u64,
        threads: usize,
        invariant: Invariant,
    ) -> StressSummary {
        run_stress(&StressConfig {
            start,
            seeds,
            targets: spillopt_targets::registry(),
            threads,
            invariant,
        })
    }

    #[test]
    fn smoke_slice_passes_on_every_registered_target() {
        let summary = sweep(0, 3, 0, Invariant::Oracles { exact: None });
        assert_eq!(summary.cases, 3 * spillopt_targets::registry().len());
        assert_passed(&summary);
        assert!(summary.counters.functions > 0);
    }

    /// Every invariant's summary — counters, gap statistics and failure
    /// order — is the same serial and on the pool.
    #[test]
    fn summary_is_deterministic_across_thread_counts() {
        for (start, seeds, invariant) in [
            (5, 2, Invariant::Oracles { exact: None }),
            (
                0,
                1,
                Invariant::Oracles {
                    exact: Some(ExactOptions::default()),
                },
            ),
            (7, 2, Invariant::Drift { steps: 4 }),
            (40, 4, Invariant::Faults),
        ] {
            let serial = sweep(start, seeds, 1, invariant);
            let pooled = sweep(start, seeds, 4, invariant);
            assert_eq!(serial.cases, pooled.cases);
            assert_eq!(serial.counters, pooled.counters, "{invariant:?}");
            assert_eq!(
                format!("{:?}", serial.exact),
                format!("{:?}", pooled.exact),
                "{invariant:?}"
            );
            let failures =
                |s: &StressSummary| s.failures.iter().map(|f| f.to_string()).collect::<Vec<_>>();
            assert_eq!(failures(&serial), failures(&pooled), "{invariant:?}");
            assert!(serial.counters.functions > 0);
        }
    }

    #[test]
    fn exact_mode_aggregates_per_target_gap_stats() {
        let summary = sweep(
            0,
            2,
            0,
            Invariant::Oracles {
                exact: Some(ExactOptions::default()),
            },
        );
        assert_passed(&summary);
        assert_eq!(summary.exact.len(), spillopt_targets::registry().len());
        // Every generated function is accounted for under both models.
        for t in &summary.exact {
            for m in [&t.stats.jump, &t.stats.exec] {
                assert!(
                    m.solved + m.bounded + m.skipped > 0,
                    "{}: no coverage",
                    t.target
                );
            }
        }
        // The oracle runs once per placed function (functions with no
        // callee-saved use have a trivially empty optimal placement).
        let accounted: usize = summary
            .exact
            .iter()
            .map(|t| t.stats.jump.solved + t.stats.jump.bounded + t.stats.jump.skipped)
            .sum();
        assert_eq!(accounted as u64, summary.counters.placed_functions);
        let solved: usize = summary.exact.iter().map(|t| t.stats.jump.solved).sum();
        assert!(solved > 0, "exact oracle certified nothing");
        // The JSON report names every target.
        let json = summary.gap_report_json().to_compact();
        for spec in spillopt_targets::registry() {
            assert!(json.contains(spec.name), "missing {} in {json}", spec.name);
        }
    }
}
