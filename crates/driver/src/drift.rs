//! Profile-drift fuzzer: the differential oracle for delta-driven
//! incremental re-optimization.
//!
//! A drift case starts from a [`spillopt_stress::gen_case`] module and a
//! deterministic base profile per function, then applies a seeded
//! sequence of profile mutations ("drift steps"). After the base run and
//! after every step, the same module + profiles go through two
//! pipelines:
//!
//! * a **warm session** (analysis arena on), whose repeated
//!   [`crate::session::Session::optimize_profiled`] calls take the
//!   warm-hit / incremental-refold / cold-replace paths; and
//! * a **fresh cold session** per check (arena off), the frozen
//!   whole-function recompute.
//!
//! The [`crate::report::ModuleReport`] JSON bytes must be identical on
//! every check — the warm arena is an invisible cache, never an answer
//! change. A divergence is shrunk twice: first the drift sequence
//! (greedy step drop), then the module itself via
//! [`spillopt_stress::minimize()`] with a replay-the-drift predicate, so a
//! [`DriftFailure`] prints a small module and the few steps that still
//! reproduce it.
//!
//! Mutation kinds are chosen per step from an RNG stream keyed by
//! `(seed, step)` and defined relative to the *current* module shape
//! (function counts, CFG edge lists), so a shrunk module replays the
//! same step sequence meaningfully. The kinds deliberately cover every
//! triage path in the session arena: a zero delta (warm hit), entry and
//! single-edge count bumps (re-allocate-and-compare, usually
//! incremental), a full re-randomize of one function (allocation
//! change, cold replace), and a weights-preserving move of counts
//! between two edges sharing a destination block (block counts — and
//! hence allocation weights — unchanged, guaranteeing the incremental
//! path).

use crate::pool::try_run_indexed;
use crate::session::{OptimizerBuilder, Session};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spillopt_ir::{Cfg, FuncId, Module};
use spillopt_profile::{random_walk_profile, EdgeProfile};
use spillopt_stress::{gen_case, minimize, with_quiet_panics};
use spillopt_targets::TargetSpec;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Drift steps applied per case when the CLI flag does not say
/// otherwise.
pub const DEFAULT_DRIFT_STEPS: u64 = 8;

/// Configuration of one drift run.
#[derive(Clone, Debug, Default)]
pub struct DriftConfig {
    /// First seed (inclusive).
    pub start: u64,
    /// Number of seeds to run.
    pub seeds: u64,
    /// Drift steps per case (checks per case = steps + 1 for the base
    /// profile).
    pub steps: u64,
    /// Targets to check every seed on.
    pub targets: Vec<TargetSpec>,
    /// Worker threads; `0` = available parallelism, `1` = serial.
    pub threads: usize,
}

/// A minimized warm-vs-cold divergence.
#[derive(Clone, Debug)]
pub struct DriftFailure {
    /// The seed that produced the case.
    pub seed: u64,
    /// Registry name of the target it failed on.
    pub target: &'static str,
    /// The minimized drift sequence: the step ids (1-based, in original
    /// order) that still reproduce the divergence when replayed against
    /// the minimized module.
    pub steps: Vec<u64>,
    /// What diverged (first differing check, with both report bodies).
    pub detail: String,
    /// IR text of the minimized module.
    pub minimized: String,
}

impl fmt::Display for DriftFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "seed {} on target {}: incremental re-optimization diverged from the cold oracle",
            self.seed, self.target
        )?;
        writeln!(f, "drift steps kept: {:?}", self.steps)?;
        writeln!(f, "{}", self.detail)?;
        writeln!(f, "minimized module:")?;
        write!(f, "{}", self.minimized)
    }
}

/// Aggregated outcome of a drift run.
#[derive(Debug, Default)]
pub struct DriftSummary {
    /// `(target, seed)` cases checked (including failing ones).
    pub cases: usize,
    /// Warm-vs-cold byte comparisons performed (base + steps, summed
    /// over passing cases; a failing case stops at its divergence).
    pub steps_checked: u64,
    /// Functions generated across all cases.
    pub functions: usize,
    /// Warm-session arena hits (zero-delta steps served from the
    /// outcome cache).
    pub warm_hits: u64,
    /// Warm-session incremental re-folds (drifted profile, allocation
    /// unchanged).
    pub incremental: u64,
    /// Regions actually re-folded by the incremental calls.
    pub regions_refolded: u64,
    /// Regions the incremental calls would have folded cold.
    pub regions_total: u64,
    /// Minimized counterexamples, ordered by seed then registry order.
    pub failures: Vec<DriftFailure>,
}

impl DriftSummary {
    /// `true` when every check was byte-identical.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// How a replay ended short of full success.
enum ReplayError {
    /// The warm report's bytes differed from the cold oracle's — the
    /// failure this fuzzer exists to find (and the only one the
    /// minimizer is allowed to chase).
    Diverged(String),
    /// Either pipeline refused or panicked; reported, but never treated
    /// as "the same failure" while shrinking.
    Driver(String),
}

/// What a fully-passing replay measured.
struct ReplayStats {
    checks: u64,
    warm_hits: u64,
    incremental: u64,
    regions_refolded: u64,
    regions_total: u64,
}

fn warm_session(spec: &TargetSpec) -> Result<Session, ReplayError> {
    OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(1)
        .build()
        .map_err(|e| ReplayError::Driver(format!("warm session: {e}")))
}

fn cold_session(spec: &TargetSpec) -> Result<Session, ReplayError> {
    OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(1)
        .reuse_analyses(false)
        .build()
        .map_err(|e| ReplayError::Driver(format!("cold session: {e}")))
}

/// Deterministic base profiles for `module` (per-function random walks,
/// seeded like the session's synthetic source).
fn base_profiles(module: &Module, seed: u64) -> Vec<EdgeProfile> {
    module
        .func_ids()
        .map(|fid| {
            let cfg = Cfg::compute(module.func(fid));
            random_walk_profile(
                &cfg,
                96,
                128,
                seed ^ (fid.index() as u64).wrapping_mul(0x9e37_79b9),
            )
        })
        .collect()
}

/// Two distinct edges sharing a destination block, the first with a
/// nonzero count — the precondition for a weights-preserving move
/// (block counts are sums of incoming edge counts, so shifting count
/// between such edges changes no block count and no allocation weight).
fn weight_preserving_pair(cfg: &Cfg, counts: &[u64]) -> Option<(usize, usize)> {
    for (ia, ea) in cfg.edges() {
        if counts[ia.index()] == 0 {
            continue;
        }
        for (ib, eb) in cfg.edges() {
            if ia != ib && ea.to == eb.to {
                return Some((ia.index(), ib.index()));
            }
        }
    }
    None
}

/// Applies a weights-preserving nudge to every function that admits
/// one: moves one count unit between two edges sharing a destination
/// block, leaving every block count — and hence every allocation
/// weight — unchanged while producing a non-empty [`ProfileDelta`].
/// Returns how many functions were drifted (functions without a
/// sharing pair keep their profile verbatim). `spillopt stats` uses
/// this for its third, incremental run.
///
/// [`ProfileDelta`]: spillopt_profile::ProfileDelta
pub(crate) fn nudge_weight_preserving(module: &Module, profiles: &mut [EdgeProfile]) -> usize {
    let mut drifted = 0;
    for (fid, p) in module.func_ids().zip(profiles.iter_mut()) {
        let cfg = Cfg::compute(module.func(fid));
        let mut counts = p.edge_counts().to_vec();
        if let Some((a, b)) = weight_preserving_pair(&cfg, &counts) {
            counts[a] -= 1;
            counts[b] += 1;
            *p = EdgeProfile::new(&cfg, counts, p.entry_count());
            drifted += 1;
        }
    }
    drifted
}

/// Applies drift step `step` of `seed`'s sequence to `profiles`,
/// in place. Pure in `(module shape, seed, step, current profiles)`.
fn mutate_step(module: &Module, profiles: &mut [EdgeProfile], seed: u64, step: u64) {
    let mut rng = SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ step.wrapping_add(0xd1f7),
    );
    if profiles.is_empty() {
        return;
    }
    let f = rng.gen_range(0..profiles.len());
    let cfg = Cfg::compute(module.func(FuncId::from_index(f)));
    let mut counts = profiles[f].edge_counts().to_vec();
    let mut entry = profiles[f].entry_count();
    match rng.gen_range(0..5u32) {
        // Zero delta: the warm session must serve the cached outcome.
        0 => {}
        // Entry bump: entry block count changes, so allocation weights
        // change; the session re-allocates and compares.
        1 => entry = (entry + rng.gen_range(1..100u64)) & 0xffff,
        // Single-edge bump.
        2 if !counts.is_empty() => {
            let e = rng.gen_range(0..counts.len());
            counts[e] = (counts[e] + rng.gen_range(1..1000u64)) & 0xffff;
        }
        // Full re-randomize: typically flips hot/cold blocks and forces
        // a cold structure replace.
        3 => {
            for c in counts.iter_mut() {
                *c = rng.gen_range(0..1000u64);
            }
            entry = rng.gen_range(1..1000u64);
        }
        // Weights-preserving move (guaranteed incremental path), with a
        // plain bump as fallback on shapes without a sharing pair.
        _ => {
            if let Some((a, b)) = weight_preserving_pair(&cfg, &counts) {
                let moved = rng.gen_range(1..=counts[a].min(64));
                counts[a] -= moved;
                counts[b] += moved;
            } else if !counts.is_empty() {
                let e = rng.gen_range(0..counts.len());
                counts[e] += 1;
            }
        }
    }
    profiles[f] = EdgeProfile::new(&cfg, counts, entry);
}

/// One warm-vs-cold comparison of `module` under `profiles`.
fn check(
    warm: &Session,
    spec: &TargetSpec,
    module: &Module,
    profiles: &[EdgeProfile],
    label: u64,
) -> Result<(), ReplayError> {
    let warm_run = warm
        .optimize_profiled(module, profiles)
        .map_err(|e| ReplayError::Driver(format!("step {label}: warm run failed: {e}")))?;
    let cold_run = cold_session(spec)?
        .optimize_profiled(module, profiles)
        .map_err(|e| ReplayError::Driver(format!("step {label}: cold run failed: {e}")))?;
    let warm_bytes = warm_run.report.to_json().to_compact();
    let cold_bytes = cold_run.report.to_json().to_compact();
    if warm_bytes != cold_bytes {
        return Err(ReplayError::Diverged(format!(
            "step {label}: warm report != cold report\n  cold: {cold_bytes}\n  warm: {warm_bytes}"
        )));
    }
    Ok(())
}

/// Replays a drift sequence against `module`: the base profiles, then
/// each listed step, byte-comparing warm vs cold after every run.
fn replay(
    spec: &TargetSpec,
    module: &Module,
    seed: u64,
    step_ids: &[u64],
) -> Result<ReplayStats, ReplayError> {
    let warm = warm_session(spec)?;
    let mut profiles = base_profiles(module, seed);
    check(&warm, spec, module, &profiles, 0)?;
    let mut checks = 1;
    for &step in step_ids {
        mutate_step(module, &mut profiles, seed, step);
        check(&warm, spec, module, &profiles, step)?;
        checks += 1;
    }
    let arena = warm.stats().arena;
    Ok(ReplayStats {
        checks,
        warm_hits: arena.hits,
        incremental: arena.incremental,
        regions_refolded: arena.regions_refolded,
        regions_total: arena.regions_total,
    })
}

/// `true` when replaying `step_ids` over `module` still reproduces a
/// byte divergence (a driver error or panic is a *different* failure
/// and must not steer the minimizer).
fn still_diverges(spec: &TargetSpec, module: &Module, seed: u64, step_ids: &[u64]) -> bool {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        matches!(
            replay(spec, module, seed, step_ids),
            Err(ReplayError::Diverged(_))
        )
    }));
    caught.unwrap_or(false)
}

/// Runs one `(target, seed)` case; a failure comes back minimized.
fn drift_seed(
    spec: &TargetSpec,
    seed: u64,
    steps: u64,
) -> Result<(usize, ReplayStats), Box<DriftFailure>> {
    let case = gen_case(&spec.to_target(), seed);
    let all_steps: Vec<u64> = (1..=steps).collect();
    let detail = match replay(spec, &case.module, seed, &all_steps) {
        Ok(stats) => return Ok((case.module.num_funcs(), stats)),
        Err(ReplayError::Diverged(detail)) => detail,
        Err(ReplayError::Driver(detail)) => {
            // Not a divergence, but still a failed case: report it
            // un-minimized (the minimizer only chases divergences).
            return Err(Box::new(DriftFailure {
                seed,
                target: spec.name,
                steps: all_steps,
                detail,
                minimized: case.module.to_string(),
            }));
        }
    };

    // Shrink the drift sequence first (greedy single-step drops), then
    // the module under the kept sequence.
    let mut kept = all_steps;
    let mut i = kept.len();
    while i > 0 {
        i -= 1;
        let mut candidate = kept.clone();
        candidate.remove(i);
        if still_diverges(spec, &case.module, seed, &candidate) {
            kept = candidate;
        }
    }
    let (module, _) = minimize(&case.module, &case.runs, |m, _| {
        still_diverges(spec, m, seed, &kept)
    });
    let detail = match replay(spec, &module, seed, &kept) {
        Err(ReplayError::Diverged(d)) => d,
        // minimize() only keeps reductions the predicate confirmed, so
        // the original detail still describes the failure.
        _ => detail,
    };
    Err(Box::new(DriftFailure {
        seed,
        target: spec.name,
        steps: kept,
        detail,
        minimized: module.to_string(),
    }))
}

/// Runs the drift differential over `config.seeds` seeds ×
/// `config.targets` targets on the work-stealing pool. Deterministic:
/// the summary (including failure order) is a pure function of the
/// configuration.
pub fn run_drift(config: &DriftConfig) -> DriftSummary {
    let mut items: Vec<(TargetSpec, u64)> = Vec::new();
    for seed in config.start..config.start.saturating_add(config.seeds) {
        for spec in &config.targets {
            items.push((spec.clone(), seed));
        }
    }
    let cases = items.len();
    let coords: Vec<(&'static str, u64)> = items.iter().map(|(s, seed)| (s.name, *seed)).collect();
    let steps = config.steps;
    // Sessions run inline (threads(1)) and already convert pipeline
    // panics into driver errors; this net covers a panic in the
    // generator or minimizer itself, converting it into a failure that
    // names its (target, seed) instead of killing the sweep.
    let outcomes: Vec<Result<(usize, ReplayStats), Box<DriftFailure>>> =
        match try_run_indexed(items, config.threads, move |_, (spec, seed)| {
            with_quiet_panics(|| drift_seed(&spec, seed, steps))
        }) {
            Ok(outcomes) => outcomes,
            Err(p) => {
                let (target, seed) = coords[p.index];
                return DriftSummary {
                    cases,
                    failures: vec![DriftFailure {
                        seed,
                        target,
                        steps: Vec::new(),
                        detail: format!("drift harness panicked: {}", p.message()),
                        minimized: String::new(),
                    }],
                    ..DriftSummary::default()
                };
            }
        };

    let mut summary = DriftSummary {
        cases,
        ..DriftSummary::default()
    };
    for outcome in outcomes {
        match outcome {
            Ok((functions, stats)) => {
                summary.steps_checked += stats.checks;
                summary.functions += functions;
                summary.warm_hits += stats.warm_hits;
                summary.incremental += stats.incremental;
                summary.regions_refolded += stats.regions_refolded;
                summary.regions_total += stats.regions_total;
            }
            Err(failure) => summary.failures.push(*failure),
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_smoke_passes_on_every_registered_target() {
        let summary = run_drift(&DriftConfig {
            start: 0,
            seeds: 4,
            steps: 6,
            targets: spillopt_targets::registry(),
            threads: 0,
        });
        assert_eq!(summary.cases, 4 * spillopt_targets::registry().len());
        assert!(
            summary.passed(),
            "drift failures:\n{}",
            summary
                .failures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        // base + 6 steps per case
        assert_eq!(summary.steps_checked, 7 * summary.cases as u64);
        assert!(summary.functions > 0);
        // The mutation mix must actually exercise the fast paths: some
        // zero-delta steps hit the outcome cache, and the
        // weights-preserving moves take the incremental re-fold.
        assert!(summary.warm_hits > 0, "no warm hits across the sweep");
        assert!(summary.incremental > 0, "no incremental re-folds");
        assert!(summary.regions_refolded <= summary.regions_total);
    }

    #[test]
    fn drift_sweep_is_deterministic() {
        let config = DriftConfig {
            start: 7,
            seeds: 2,
            steps: 4,
            targets: spillopt_targets::registry(),
            threads: 1,
        };
        let a = run_drift(&config);
        let b = run_drift(&config);
        assert_eq!(a.steps_checked, b.steps_checked);
        assert_eq!(a.incremental, b.incremental);
        assert_eq!(a.regions_refolded, b.regions_refolded);
        assert_eq!(a.regions_total, b.regions_total);
    }
}
