//! The perf-trajectory bench: `spillopt bench --json`.
//!
//! Times the module-scale `optimize` pipeline — current implementation
//! versus the frozen pre-rewrite reference ([`crate::refimpl`]) — over a
//! seeded, stress-generated corpus on every registered target, asserts
//! the two pipelines' [`crate::ModuleReport`]s are byte-identical, and emits a
//! machine-readable JSON record (`BENCH_PR4.json` at the repo root is
//! the first committed point of the trajectory).
//!
//! Timing discipline: the corpus is generated *outside* the timed
//! region; each arm runs `reps` times and reports the **minimum**
//! wall-clock total (the standard estimator for "how fast can this code
//! go" under scheduler noise); both arms run at the same thread count
//! (default 1, the deterministic serial schedule). The byte-equality
//! check runs once per target before any timing, so a report-shape
//! regression fails the bench regardless of speed.
//!
//! The current arm runs through the [`crate::Session`] facade — the
//! same path every consumer uses — with analysis reuse disabled
//! ([`crate::OptimizerBuilder::reuse_analyses`]`(false)`): the bench
//! times the cold pipeline, never arena lookups.
//!
//! After the timed arms, a separate **non-timed instrumented profiling
//! pass** re-runs the corpus under an active [`spillopt_obs`] recording
//! — once cold and once warm through an arena-enabled session, so the
//! trace carries both `arena_miss` and `arena_hit` counters. The timed
//! arms themselves always run with the recorder disabled (one relaxed
//! atomic load per probe); the pass feeds the `phases`/`counters`
//! sections of the JSON record and, via `spillopt bench --trace FILE`,
//! a Chrome Trace Event file.

use crate::driver::{DriverError, ProfileSource};
use crate::json::Json;
use crate::refimpl::optimize_module_reference;
use crate::session::OptimizerBuilder;
use spillopt_ir::Module;
use spillopt_targets::{registry, TargetSpec};
use std::time::Instant;

/// Bench configuration.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Minimum number of stress-generated functions in the corpus (cases
    /// are added whole until the floor is reached).
    pub functions: usize,
    /// Function-size multiplier passed to the stress generator
    /// ([`spillopt_stress::gen_case_scaled`]): the corpus keeps the
    /// stress subsystem's adversarial shapes at module-scale function
    /// sizes, where optimizer wall-clock actually matters.
    pub scale: u32,
    /// First generator seed.
    pub seed_start: u64,
    /// Timed repetitions per arm (minimum is reported).
    pub reps: usize,
    /// Worker threads for both arms (0 = available parallelism).
    pub threads: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            functions: 200,
            scale: 32,
            seed_start: 0,
            reps: 3,
            threads: 1,
        }
    }
}

impl BenchConfig {
    /// The CI smoke configuration: a small corpus, one rep — enough to
    /// exercise both pipelines and the equality gate on every PR.
    pub fn smoke() -> Self {
        BenchConfig {
            functions: 40,
            scale: 2,
            reps: 1,
            ..BenchConfig::default()
        }
    }
}

/// One target's measurements.
#[derive(Clone, Debug)]
pub struct TargetBench {
    /// Registry name.
    pub target: &'static str,
    /// Minimum wall-clock of the current pipeline over the corpus, in
    /// nanoseconds.
    pub current_ns: u128,
    /// Minimum wall-clock of the frozen reference pipeline, in
    /// nanoseconds.
    pub reference_ns: u128,
    /// `ModuleReport` JSON byte-equality between the two pipelines.
    pub reports_identical: bool,
}

/// The full bench outcome.
#[derive(Clone, Debug)]
pub struct BenchOutcome {
    /// Configuration the bench ran with.
    pub config: BenchConfig,
    /// Worker threads both arms actually ran with: the session's
    /// resolved pool size, not the raw configuration value (which may
    /// be the `0` = "available parallelism" default).
    pub threads: usize,
    /// Corpus shape: number of generated modules (cases).
    pub cases: usize,
    /// Corpus shape: number of functions across all cases.
    pub functions: usize,
    /// Per-target measurements, in registry order.
    pub targets: Vec<TargetBench>,
    /// Trace collected by the non-timed instrumented profiling pass
    /// (cold + warm arena runs over the same corpus). Feeds the
    /// `phases`/`counters` JSON sections and `--trace` output; never
    /// part of the timed arms.
    pub trace: spillopt_obs::Trace,
}

impl BenchOutcome {
    /// Total current-pipeline nanoseconds across targets.
    pub fn total_current_ns(&self) -> u128 {
        self.targets.iter().map(|t| t.current_ns).sum()
    }

    /// Total reference-pipeline nanoseconds across targets.
    pub fn total_reference_ns(&self) -> u128 {
        self.targets.iter().map(|t| t.reference_ns).sum()
    }

    /// Overall wall-clock speedup (reference / current).
    pub fn speedup(&self) -> f64 {
        self.total_reference_ns() as f64 / self.total_current_ns().max(1) as f64
    }

    /// `true` when every target's reports matched byte for byte.
    pub fn reports_identical(&self) -> bool {
        self.targets.iter().all(|t| t.reports_identical)
    }

    /// The JSON record (`BENCH_*.json` schema, version 2; version 2
    /// added the `phases`/`counters` profiling sections).
    pub fn to_json(&self) -> Json {
        let ms = |ns: u128| Json::Float(ns as f64 / 1e6);
        let metrics = self.trace.metrics();
        let mut phases = Vec::new();
        for p in &metrics.phases {
            phases.push(
                Json::obj()
                    .with("phase", Json::str(p.name))
                    .with("count", Json::UInt(p.count))
                    .with("total_ms", ms(p.total_ns as u128))
                    .with("p50_ms", ms(p.p50_ns as u128))
                    .with("p95_ms", ms(p.p95_ns as u128))
                    .with("max_ms", ms(p.max_ns as u128)),
            );
        }
        let mut counters = Json::obj();
        for (name, total) in &metrics.counters {
            counters = counters.with(name, Json::UInt(*total));
        }
        let mut targets = Vec::new();
        for t in &self.targets {
            targets.push(
                Json::obj()
                    .with("target", Json::str(t.target))
                    .with("optimize_ms", ms(t.current_ns))
                    .with("optimize_reference_ms", ms(t.reference_ns))
                    .with(
                        "speedup",
                        Json::Float(t.reference_ns as f64 / t.current_ns.max(1) as f64),
                    )
                    .with("reports_identical", Json::Bool(t.reports_identical)),
            );
        }
        Json::obj()
            .with("bench", Json::str("module_optimize"))
            .with("schema_version", Json::UInt(2))
            .with(
                "corpus",
                Json::obj()
                    .with("generator", Json::str("stress"))
                    .with("scale", Json::UInt(self.config.scale as u64))
                    .with("seed_start", Json::UInt(self.config.seed_start))
                    .with("cases", Json::UInt(self.cases as u64))
                    .with("functions", Json::UInt(self.functions as u64)),
            )
            .with("reps", Json::UInt(self.config.reps as u64))
            .with("threads", Json::UInt(self.threads as u64))
            .with("targets", Json::Array(targets))
            .with("total_optimize_ms", ms(self.total_current_ns()))
            .with("total_reference_ms", ms(self.total_reference_ns()))
            .with("speedup", Json::Float(self.speedup()))
            .with("reports_identical", Json::Bool(self.reports_identical()))
            .with("phases", Json::Array(phases))
            .with("counters", counters)
    }
}

/// Builds the deterministic bench corpus: whole stress cases from
/// consecutive seeds until at least `functions` functions are collected.
/// The generator is target-convention-aware, so the corpus is built per
/// target (same seeds everywhere).
pub fn corpus_for(spec: &TargetSpec, config: &BenchConfig) -> Vec<Module> {
    let target = spec.to_target();
    let mut modules = Vec::new();
    let mut functions = 0usize;
    let mut seed = config.seed_start;
    while functions < config.functions {
        let case = spillopt_stress::gen_case_scaled(&target, seed, config.scale);
        functions += case.module.num_funcs();
        modules.push(case.module);
        seed += 1;
    }
    modules
}

/// Runs the bench: equality gate first, then timed reps of each arm.
///
/// # Errors
///
/// Returns the first driver failure (a panicking pipeline or workload).
pub fn run_bench(config: &BenchConfig) -> Result<BenchOutcome, DriverError> {
    let specs = registry();
    let profile = ProfileSource::default();
    let mut targets = Vec::new();
    let mut corpus_cases = 0;
    let mut corpus_functions = 0;
    let mut effective_threads = config.threads;
    for spec in &specs {
        let corpus = corpus_for(spec, config);
        corpus_cases = corpus.len();
        corpus_functions = corpus.iter().map(|m| m.num_funcs()).sum();

        // The current arm runs through the session facade — the same
        // path every consumer uses — with analysis reuse OFF: the bench
        // times the cold pipeline, not arena lookups.
        let session = OptimizerBuilder::new()
            .target_spec(spec.clone())
            .threads(config.threads)
            .reuse_analyses(false)
            .build()?;
        // The session resolves `0` to the actual pool size; report that
        // (it is part of the record's provenance — wall-clock numbers
        // are meaningless without it).
        effective_threads = session.threads();

        // Equality gate: the rewrite must not have changed a single
        // byte of any report.
        let mut reports_identical = true;
        for module in &corpus {
            let current = session.optimize(module)?;
            let reference = optimize_module_reference(module, spec, config.threads, &profile)?;
            if current.report.to_json().to_compact() != reference.report.to_json().to_compact() {
                reports_identical = false;
            }
        }

        let time_arm = |reference: bool| -> Result<u128, DriverError> {
            let mut best: Option<u128> = None;
            for _ in 0..config.reps.max(1) {
                let t = Instant::now();
                for module in &corpus {
                    if reference {
                        std::hint::black_box(&optimize_module_reference(
                            module,
                            spec,
                            config.threads,
                            &profile,
                        )?);
                    } else {
                        std::hint::black_box(&session.optimize(module)?);
                    };
                }
                let ns = t.elapsed().as_nanos();
                best = Some(best.map_or(ns, |b| b.min(ns)));
            }
            Ok(best.expect("at least one rep"))
        };
        let current_ns = time_arm(false)?;
        let reference_ns = time_arm(true)?;

        targets.push(TargetBench {
            target: spec.name,
            current_ns,
            reference_ns,
            reports_identical,
        });
    }

    // Non-timed instrumented profiling pass: the same corpus through an
    // arena-*enabled* session, cold then warm, under an active
    // recording. Cold runs populate the trace with `arena_miss` and
    // every core-phase span; warm runs add `arena_hit` lookups. This
    // pass is deliberately outside the timed region — its wall-clock
    // never touches the speedup numbers.
    let recording = spillopt_obs::Recording::start();
    for spec in &specs {
        let corpus = corpus_for(spec, config);
        let session = OptimizerBuilder::new()
            .target_spec(spec.clone())
            .threads(config.threads)
            .reuse_analyses(true)
            .build()?;
        for _ in 0..2 {
            for module in &corpus {
                std::hint::black_box(&session.optimize(module)?);
            }
        }
    }
    let trace = recording.finish();

    Ok(BenchOutcome {
        config: config.clone(),
        threads: effective_threads,
        cases: corpus_cases,
        functions: corpus_functions,
        targets,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke bench must hold the byte-equality gate and produce a
    /// well-formed record. (Speed itself is asserted by CI on the full
    /// corpus, not here — unit tests run in debug builds.)
    #[test]
    fn smoke_bench_reports_identical_and_shapes_json() {
        let outcome = run_bench(&BenchConfig {
            functions: 6,
            reps: 1,
            ..BenchConfig::smoke()
        })
        .expect("bench runs");
        assert!(outcome.reports_identical(), "pipelines diverged");
        assert!(outcome.functions >= 6);
        assert_eq!(outcome.targets.len(), registry().len());
        let json = outcome.to_json().to_compact();
        for field in [
            r#""bench":"module_optimize""#,
            r#""schema_version":2"#,
            r#""corpus""#,
            r#""speedup""#,
            r#""threads":1"#,
            r#""reports_identical":true"#,
            r#""phases":["#,
            r#""counters":{"#,
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        // The profiling pass ran cold+warm with the arena on, so both
        // lookup outcomes and the core phases must appear. (Presence
        // checks only: the recorder is process-global, so a concurrent
        // test in this binary may add events — never remove them.)
        for counter in ["arena_hit", "arena_miss", "solver_fixpoint_iters"] {
            assert!(
                outcome
                    .trace
                    .counters
                    .iter()
                    .any(|(n, v)| *n == counter && *v > 0),
                "profiling pass missing counter {counter}"
            );
        }
        for phase in ["cfg", "liveness", "solver_fixpoint", "validate", "function"] {
            assert!(
                outcome.trace.spans.iter().any(|s| s.name == phase),
                "profiling pass missing phase span {phase}"
            );
        }
    }

    /// With the `0` = "available parallelism" default, the record must
    /// carry the session's *resolved* pool size — a `"threads":0` entry
    /// would make the wall-clock numbers unreproducible.
    #[test]
    fn json_reports_effective_thread_count() {
        let outcome = run_bench(&BenchConfig {
            functions: 2,
            scale: 1,
            reps: 1,
            threads: 0,
            ..BenchConfig::smoke()
        })
        .expect("bench runs");
        assert!(outcome.threads >= 1, "unresolved thread count");
        let json = outcome.to_json().to_compact();
        assert!(
            !json.contains(r#""threads":0"#),
            "effective thread count not serialized: {json}"
        );
        assert!(
            json.contains(&format!(r#""threads":{}"#, outcome.threads)),
            "threads field mismatch: {json}"
        );
    }
}
