//! The four workloads, their closed-loop pass driver, the correctness
//! gate, and the end-to-end (untraced) and per-layer (traced) runs.

use crate::drift::{DriftStream, KINDS};
use crate::inputs::{spec_corpus, stress_corpus, Corpus, Rng, Size};
use crate::measure::{kernel_ns, median, proc_status_mb, quantile, speed, CallObserver, Retired};
use crate::replay::{self, Job, ProfilePath, Span, States, Tracer, ON_PATH, SPLITS};
use spillopt_driver::{
    ArenaStats, DriverError, Json, ModuleRun, OptimizerBuilder, ProfileSource, Session, Strategy,
};
use spillopt_ir::{FuncId, Module, Target};
use spillopt_profile::EdgeProfile;
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Modules per `optimize_many` batch on the pool workload.
const POOL_BATCH: usize = 8;

/// Timed passes every end-to-end run makes at least; `spill_cost_ratio`
/// is taken over exactly these, so it does not depend on how many
/// passes fit in the run.
const MIN_PASSES: u64 = 3;

/// Drift passes per second of `--seconds` (a pass with its per-pass
/// oracle takes about 0.75 s on a 2-core Linux container).
const DRIFT_PASSES_PER_S: f64 = 1.3;

/// Seed stream labels (see [`Rng::new`]).
const ORDER_STREAM: u64 = 1;
const POOL_STREAM: u64 = 2;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every pass runs the paper's modules through fresh sessions.
    Cold,
    /// Every call is an exact arena hit on a session warmed in setup.
    Warm,
    /// Long-lived sessions under a seeded profile-drift stream.
    Drift,
    /// A stress corpus in `optimize_many` batches on the worker pool.
    Pool,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Cold,
        Workload::Warm,
        Workload::Drift,
        Workload::Pool,
    ];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Warm => "warm",
            Workload::Drift => "drift",
            Workload::Pool => "pool",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Passes per episode of a traced run (drift adds its base pass).
    fn traced_passes(self) -> u64 {
        match self {
            Workload::Cold => 2,
            Workload::Warm => 4,
            Workload::Drift => 3,
            Workload::Pool => 3,
        }
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// How long the measuring loop runs.
    pub seconds: f64,
    /// `false`: end-to-end metrics, all tracing off. `true`: the traced
    /// run and its per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Set-ups timed for `setup_s` (the median is reported).
    pub setup_reps: usize,
    /// Self-test hook: corrupt one report before the byte comparison,
    /// to prove the gate can fail.
    pub corrupt: bool,
    /// Where the traced run writes its spans (`None`: not written).
    pub spans_out: Option<PathBuf>,
}

impl Config {
    /// The benchmark proper for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            workload,
            seed,
            seconds,
            trace,
            size: Size::Full,
            setup_reps: match workload {
                Workload::Pool => 3,
                _ => 9,
            },
            corrupt: false,
            spans_out: None,
        }
    }
}

/// One named, unit-carrying number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every output matched its oracle.
    pub correct: bool,
    /// Functions submitted.
    pub attempted: u64,
    /// Functions that failed (driver error, fault ledger entry, report
    /// bytes different from the oracle, or replay mismatch).
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Outcome {
    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics = metrics.with(
                &m.name,
                Json::obj()
                    .with("value", Json::Float(m.value))
                    .with("unit", Json::str(m.unit)),
            );
        }
        Json::obj()
            .with("correct", Json::Bool(self.correct))
            .with("attempted", Json::UInt(self.attempted))
            .with("failed", Json::UInt(self.failed))
            .with("metrics", metrics)
            .to_compact()
    }
}

/// One pass's measurements and checked outputs.
#[derive(Debug, Default)]
struct Pass {
    /// Wall-clock inside session calls.
    call_ns: u64,
    /// Functions submitted.
    attempted: u64,
    /// Functions that failed.
    failed: u64,
    /// Retirements, with the corpus index of their unit.
    retired: Vec<(usize, Retired)>,
    /// Per unit, per function: the report's predicted costs (`None` for
    /// a function that needed no placement).
    costs: Vec<Vec<Option<[u64; 4]>>>,
    /// Σ hierarchical-jump and Σ entry/exit predicted cost.
    hier_jump: u128,
    baseline: u128,
    /// Per unit: the report bytes of each function (`None`: the call
    /// failed).
    bytes: Vec<Option<Vec<String>>>,
    /// Errors of the calls that failed.
    errors: Vec<String>,
    /// Converts this pass's times to the reference machine speed.
    speed: f64,
}

/// The loaded workload: inputs, oracle, and long-lived sessions.
struct Bench {
    config: Config,
    corpus: Corpus,
    targets: Vec<Target>,
    /// Units per call, in corpus order (one unit per call except on the
    /// pool workload).
    batches: Vec<Range<usize>>,
    /// The pool workload's modules, in corpus order.
    modules: Vec<Module>,
    /// Drift: the base profiles each episode restarts from.
    base: Vec<Vec<EdgeProfile>>,
    stream: Option<DriftStream>,
    /// Warm and drift: the long-lived sessions, one per target.
    sessions: Vec<Session>,
    /// Report bytes per unit per function from fresh arena-free serial
    /// sessions (cold, warm, pool); drift computes its per pass.
    oracle: Vec<Vec<String>>,
}

fn err(e: DriverError) -> String {
    e.to_string()
}

impl Bench {
    /// Everything before the timed region: inputs, training profiles,
    /// sessions, and the warm-up pass.
    fn setup(config: &Config) -> Result<Bench, String> {
        let corpus = match config.workload {
            Workload::Pool => {
                let mut corpus = stress_corpus(config.size).map_err(err)?;
                Rng::new(config.seed, POOL_STREAM).shuffle(&mut corpus.units);
                corpus
            }
            _ => spec_corpus(config.size).map_err(err)?,
        };
        let targets = corpus.specs.iter().map(|s| s.to_target()).collect();
        let batch = if config.workload == Workload::Pool {
            POOL_BATCH
        } else {
            1
        };
        let n = corpus.units.len();
        let batches = (0..n)
            .step_by(batch)
            .map(|s| s..(s + batch).min(n))
            .collect();
        let modules = match config.workload {
            Workload::Pool => corpus.units.iter().map(|u| u.module.clone()).collect(),
            _ => Vec::new(),
        };
        let base = corpus.units.iter().map(|u| u.profiles.clone()).collect();
        let stream = (config.workload == Workload::Drift)
            .then(|| DriftStream::new(&corpus.units, config.seed));
        let mut bench = Bench {
            config: config.clone(),
            corpus,
            targets,
            batches,
            modules,
            base,
            stream,
            sessions: Vec::new(),
            oracle: Vec::new(),
        };
        if matches!(config.workload, Workload::Warm | Workload::Drift) {
            bench.sessions = bench.fresh_sessions().map_err(err)?;
        }
        // Warm-up pass: fills the warm and drift arenas; on cold and pool
        // it lets caches and the allocator settle.
        let sessions = bench.pass_sessions().map_err(err)?;
        bench.run_pass(sessions.as_ref().unwrap_or(&bench.sessions), 0);
        Ok(bench)
    }

    /// One session per target, as the workload configures it.
    fn fresh_sessions(&self) -> Result<Vec<Session>, DriverError> {
        let threads = match self.config.workload {
            Workload::Pool => spillopt_sync::thread::available_parallelism().map_or(2, |n| n.get()),
            _ => 1,
        };
        self.corpus
            .specs
            .iter()
            .map(|spec| {
                OptimizerBuilder::new()
                    .target_spec(spec.clone())
                    .threads(threads)
                    .build()
            })
            .collect()
    }

    /// Cold and pool passes each get fresh sessions; warm and drift
    /// reuse the long-lived ones (`None`).
    fn pass_sessions(&self) -> Result<Option<Vec<Session>>, DriverError> {
        match self.config.workload {
            Workload::Cold | Workload::Pool => self.fresh_sessions().map(Some),
            _ => Ok(None),
        }
    }

    /// Fresh arena-free serial sessions over the current profiles: the
    /// oracle bytes every report is compared with.
    fn compute_oracle(&self) -> Result<Vec<Vec<String>>, String> {
        let mut out = Vec::with_capacity(self.corpus.units.len());
        let sessions = self
            .corpus
            .specs
            .iter()
            .map(|spec| {
                OptimizerBuilder::new()
                    .target_spec(spec.clone())
                    .threads(1)
                    .reuse_analyses(false)
                    .build()
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        for unit in &self.corpus.units {
            let session = &sessions[unit.target];
            let run = if self.config.workload == Workload::Pool {
                session.optimize(&unit.module)
            } else {
                session.optimize_profiled(&unit.module, &unit.profiles)
            }
            .map_err(err)?;
            out.push(function_bytes(&run));
        }
        Ok(out)
    }

    /// Runs one pass: every batch once, in a seeded order, each call
    /// sent only after the previous one returned.
    fn run_pass(&self, sessions: &[Session], pass: u64) -> Pass {
        let units = &self.corpus.units;
        let mut order: Vec<usize> = (0..self.batches.len()).collect();
        Rng::new(self.config.seed, ORDER_STREAM ^ (pass << 8)).shuffle(&mut order);
        let mut out = Pass {
            costs: vec![Vec::new(); units.len()],
            bytes: vec![None; units.len()],
            ..Pass::default()
        };
        let kernel_before = kernel_ns();
        for b in order {
            let range = self.batches[b].clone();
            let names: Vec<&str> = units[range.clone()]
                .iter()
                .map(|u| u.module.name())
                .collect();
            let attempted: u64 = units[range.clone()]
                .iter()
                .map(|u| u.module.num_funcs() as u64)
                .sum();
            out.attempted += attempted;
            let observer = CallObserver::start(&names);
            let runs = if self.config.workload == Workload::Pool {
                sessions[0].optimize_many_observed(&self.modules[range.clone()], &observer)
            } else {
                let unit = &units[range.start];
                sessions[unit.target]
                    .optimize_profiled_observed(&unit.module, &unit.profiles, &observer)
                    .map(|run| vec![run])
            };
            out.call_ns += observer.elapsed_ns();
            let retired = observer.finish();
            out.retired
                .extend(retired.into_iter().map(|r| (range.start + r.module, r)));
            match runs {
                Ok(runs) => {
                    for (ui, run) in range.zip(runs) {
                        out.failed += run.faults().len() as u64;
                        out.costs[ui] = function_costs(&run);
                        for c in out.costs[ui].iter().flatten() {
                            out.hier_jump += c[3] as u128;
                            out.baseline += c[0] as u128;
                        }
                        out.bytes[ui] = Some(function_bytes(&run));
                    }
                }
                Err(e) => {
                    out.failed += attempted;
                    out.errors.push(e.to_string());
                }
            }
        }
        out.speed = speed(kernel_before, kernel_ns());
        out
    }

    /// Byte-compares a pass's reports with the oracle, counting each
    /// differing function as failed.
    fn check(&self, pass: &mut Pass, oracle: &[Vec<String>], corrupt: bool) {
        for (ui, bytes) in pass.bytes.iter_mut().enumerate() {
            let Some(bytes) = bytes else { continue };
            if corrupt && ui == 0 {
                if let Some(first) = bytes.first_mut() {
                    first.push(' ');
                }
            }
            pass.failed += bytes
                .iter()
                .zip(&oracle[ui])
                .filter(|(got, want)| got != want)
                .count() as u64;
            pass.failed += bytes.len().abs_diff(oracle[ui].len()) as u64;
        }
    }

    /// The oracle for the current inputs: computed once for fixed
    /// inputs, per pass under drift.
    fn oracle_now(&self) -> Result<Option<Vec<Vec<String>>>, String> {
        match self.config.workload {
            Workload::Drift => self.compute_oracle().map(Some),
            _ => Ok(None),
        }
    }

    /// Restores the drift base profiles.
    fn reset_profiles(&mut self) {
        for (unit, base) in self.corpus.units.iter_mut().zip(&self.base) {
            unit.profiles.clone_from(base);
        }
    }

    /// Applies drift pass `pass` and returns a human line with its
    /// mutation counts.
    fn drift(&mut self, pass: u64) -> Option<String> {
        let stream = self.stream.as_ref()?;
        let counts = stream.mutate(&mut self.corpus.units, pass);
        let kinds: Vec<String> = KINDS
            .iter()
            .zip(counts)
            .map(|(k, n)| format!("{k}={n}"))
            .collect();
        Some(format!("drift pass {pass} mutations: {}", kinds.join(" ")))
    }
}

/// Every function report of a run, as compact JSON.
fn function_bytes(run: &ModuleRun) -> Vec<String> {
    run.report
        .functions
        .iter()
        .map(|f| f.to_json().to_compact())
        .collect()
}

/// Every function's predicted costs in suite order.
fn function_costs(run: &ModuleRun) -> Vec<Option<[u64; 4]>> {
    run.report
        .functions
        .iter()
        .map(|f| {
            let mut costs = [0u64; 4];
            for (slot, strategy) in costs.iter_mut().zip(Strategy::all()) {
                *slot = f.strategy(strategy)?.cost.raw();
            }
            Some(costs)
        })
        .collect()
}

/// Runs the benchmark.
///
/// # Errors
///
/// Returns a description of a failure that leaves no result to report
/// (inputs that cannot be generated, a session that cannot be built).
pub fn run(config: &Config) -> Result<Outcome, String> {
    if config.trace {
        run_traced(config)
    } else {
        run_untraced(config)
    }
}

/// The end-to-end run: tracing off, latency and throughput over as many
/// closed-loop passes as fit in the configured time.
fn run_untraced(config: &Config) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..config.setup_reps.max(1) {
        // Drop the previous set-up first, so peak memory holds one.
        drop(bench.take());
        let kernel_before = kernel_ns();
        let t = Instant::now();
        bench = Some(Bench::setup(config)?);
        let secs = t.elapsed().as_secs_f64();
        setups.push(secs * speed(kernel_before, kernel_ns()));
    }
    let mut bench = bench.expect("at least one set-up");
    if config.workload != Workload::Drift {
        bench.oracle = bench.compute_oracle()?;
    }

    let mut out = Outcome::default();
    // Per pass: functions/s, p50 and p95 latency (us) as measured, and
    // the pass's machine speed.
    let mut per_pass: Vec<([f64; 3], f64)> = Vec::new();
    let (mut samples, mut above) = (0usize, 0usize);
    let (mut hier_jump, mut baseline) = (0u128, 0u128);
    let budget = Duration::from_secs_f64(config.seconds);
    let start = Instant::now();
    // Drift runs a pass count fixed by `--seconds`: its arena grows
    // with every pass, so a time-bounded loop would tie `peak_rss_mb` to
    // the speed of the code.
    let drift_passes = (config.seconds * DRIFT_PASSES_PER_S)
        .ceil()
        .max(MIN_PASSES as f64) as u64;
    let more = |pass: u64| match config.workload {
        Workload::Drift => pass < drift_passes,
        _ => pass < MIN_PASSES || start.elapsed() < budget,
    };
    let mut pass = 0u64;
    while more(pass) {
        pass += 1;
        if let Some(line) = bench.drift(pass) {
            out.lines.push(line);
        }
        let sessions = bench.pass_sessions().map_err(err)?;
        let mut p = bench.run_pass(sessions.as_ref().unwrap_or(&bench.sessions), pass);
        let oracle = bench.oracle_now()?;
        bench.check(
            &mut p,
            oracle.as_ref().unwrap_or(&bench.oracle),
            config.corrupt && pass == 1,
        );
        out.lines.push(format!(
            "pass {pass}: {} functions in {:.3} ms of calls, machine speed {:.3}",
            p.retired.len(),
            p.call_ns as f64 / 1e6,
            p.speed
        ));
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.lines
            .extend(p.errors.iter().map(|e| format!("pass {pass}: {e}")));
        if pass <= MIN_PASSES {
            hier_jump += p.hier_jump;
            baseline += p.baseline;
        }
        let mut latencies: Vec<u64> = p.retired.iter().map(|(_, r)| r.latency_ns).collect();
        latencies.sort_unstable();
        let p95 = quantile(&latencies, 0.95);
        samples += latencies.len();
        above += latencies.iter().filter(|&&l| l > p95).count();
        per_pass.push((
            [
                latencies.len() as f64 / (p.call_ns as f64 / 1e9),
                quantile(&latencies, 0.5) as f64 / 1e3,
                p95 as f64 / 1e3,
            ],
            p.speed,
        ));
    }

    // Each metric is the median over passes of the pass's value; the
    // reported times are converted to the reference machine speed with
    // the kernel timed around each pass (see `measure::kernel_ns`).
    let at_speed = |i: usize, to_reference: bool| {
        let values: Vec<f64> = per_pass
            .iter()
            .map(|(v, speed)| match (to_reference, i) {
                (false, _) => v[i],
                (true, 0) => v[i] / speed,
                (true, _) => v[i] * speed,
            })
            .collect();
        median(&values)
    };
    out.lines.push(format!(
        "workload {} seed {}: {pass} passes, {samples} functions ({samples} latency samples, {above} above their pass's p95); error_rate {} ({} of {} failed)",
        config.workload.name(),
        config.seed,
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    ));
    out.lines.push(format!(
        "as measured: {:.1} fn/s, p50 {:.3} us, p95 {:.3} us, at median machine speed {:.3}; reported at speed 1",
        at_speed(0, false),
        at_speed(1, false),
        at_speed(2, false),
        median(&per_pass.iter().map(|(_, s)| *s).collect::<Vec<_>>())
    ));
    out.push("functions_per_s", at_speed(0, true), "fn/s");
    out.push("fn_p50_us", at_speed(1, true), "us");
    out.push("fn_p95_us", at_speed(2, true), "us");
    out.push(
        "spill_cost_ratio",
        ratio(hier_jump as f64, baseline as f64),
        "ratio",
    );
    if let Some(peak) = proc_status_mb("VmHWM") {
        out.push("peak_rss_mb", peak, "MB");
    }
    out.push("setup_s", median(&setups), "s");
    out.correct = out.failed == 0 && out.attempted > 0;
    Ok(out)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One pass of an episode: whether it is measured, its records, and
/// the drift profiles it used (per unit, per function).
type EpisodePass = (bool, Pass, Option<Vec<Vec<EdgeProfile>>>);

/// One traced-run episode: the workload's passes from a fixed starting
/// state, so every episode sees the same inputs.
#[derive(Debug, Default)]
struct Episode {
    passes: Vec<EpisodePass>,
    /// Arena counter deltas over the measured passes, summed over the
    /// episode's sessions.
    arena: ArenaStats,
    /// Per worker: items, busy ns, idle ns (summed over pool sessions).
    workers: Vec<(u64, u64, u64)>,
    /// Resident memory after the first and the last measured pass.
    rss: (Option<f64>, Option<f64>),
}

impl Episode {
    fn measured(&self) -> impl Iterator<Item = &Pass> {
        self.passes.iter().filter(|(m, _, _)| *m).map(|(_, p, _)| p)
    }

    /// Functions retired and nanoseconds inside calls (at the reference
    /// machine speed) over the measured passes.
    fn functions_per_s(&self) -> (u64, f64) {
        self.measured().fold((0, 0.0), |(n, ns), p| {
            (n + p.retired.len() as u64, ns + p.call_ns as f64 * p.speed)
        })
    }
}

fn add_stats(total: &mut ArenaStats, after: ArenaStats, before: ArenaStats) {
    total.hits += after.hits - before.hits;
    total.misses += after.misses - before.misses;
    total.incremental += after.incremental - before.incremental;
}

impl Bench {
    /// Runs one episode. Drift restarts from fresh sessions and the base
    /// profiles, with an unmeasured base pass the replay needs for its
    /// state; warm reuses the sessions warmed in setup; cold and pool
    /// passes get fresh sessions anyway.
    fn episode(
        &mut self,
        keep_profiles: bool,
        oracles: &mut Vec<Vec<Vec<String>>>,
    ) -> Result<Episode, String> {
        let workload = self.config.workload;
        let mut ep = Episode::default();
        if workload == Workload::Drift {
            self.reset_profiles();
            self.sessions = self.fresh_sessions().map_err(err)?;
        }
        let first = if workload == Workload::Drift { 0 } else { 1 };
        let last = workload.traced_passes();
        let mut entries = 0;
        for pass in first..=last {
            let measured = pass > 0;
            if pass > 0 {
                self.drift(pass);
            }
            let fresh = self.pass_sessions().map_err(err)?;
            let sessions = fresh.as_ref().unwrap_or(&self.sessions);
            let before: Vec<ArenaStats> = sessions.iter().map(Session::arena_stats).collect();
            let mut p = self.run_pass(sessions, pass);
            if workload == Workload::Drift {
                let k = pass as usize;
                if oracles.len() <= k {
                    oracles.push(self.compute_oracle()?);
                }
                self.check(&mut p, &oracles[k], false);
            } else {
                self.check(&mut p, &self.oracle, false);
            }
            if measured {
                entries = 0;
                for (s, b) in sessions.iter().zip(before) {
                    let stats = s.stats();
                    add_stats(&mut ep.arena, stats.arena, b);
                    entries += stats.arena.entries;
                    for (i, w) in stats.pool_workers.iter().enumerate() {
                        if ep.workers.len() <= i {
                            ep.workers.push((0, 0, 0));
                        }
                        ep.workers[i].0 += w.items;
                        ep.workers[i].1 += w.busy_ns;
                        ep.workers[i].2 += w.idle_ns;
                    }
                }
                let rss = proc_status_mb("VmRSS");
                if ep.rss.0.is_none() {
                    ep.rss.0 = rss;
                }
                ep.rss.1 = rss;
            }
            let profiles = (keep_profiles && workload == Workload::Drift).then(|| {
                self.corpus
                    .units
                    .iter()
                    .map(|u| u.profiles.clone())
                    .collect()
            });
            ep.passes.push((measured, p, profiles));
        }
        ep.arena.entries = entries;
        Ok(ep)
    }
}

/// The traced run: untraced and traced episodes alternate for the
/// configured time (their throughput difference is the tracing
/// overhead), then the first traced episode is replayed layer by layer.
fn run_traced(config: &Config) -> Result<Outcome, String> {
    let mut bench = Bench::setup(config)?;
    if config.workload != Workload::Drift {
        bench.oracle = bench.compute_oracle()?;
    }
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut oracles = Vec::new();
    let mut plain = (0u64, 0.0);
    let mut traced = (0u64, 0.0);
    let mut first: Option<Episode> = None;
    let budget = Duration::from_secs_f64(config.seconds);
    let start = Instant::now();
    loop {
        for keep in [false, true] {
            let ep = bench.episode(keep, &mut oracles)?;
            for (_, p, _) in &ep.passes {
                out.attempted += p.attempted;
                out.failed += p.failed;
                out.lines.extend(p.errors.iter().cloned());
            }
            let (n, ns) = ep.functions_per_s();
            let sum = if keep { &mut traced } else { &mut plain };
            sum.0 += n;
            sum.1 += ns;
            if keep && first.is_none() {
                first = Some(ep);
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    let episode = first.expect("one traced episode");

    // Replay the first traced episode.
    let mut states = States::new();
    let mut session_spans = Vec::new();
    let (mut measured, mut session_ns) = (0u64, 0.0);
    let profile_path = match config.workload {
        Workload::Pool => match ProfileSource::default() {
            ProfileSource::Synthetic {
                walks,
                max_steps,
                seed,
            } => ProfilePath::Synthetic {
                walks,
                max_steps,
                seed,
            },
            _ => unreachable!("the default profile source is synthetic"),
        },
        _ => ProfilePath::Explicit,
    };
    let units = &bench.corpus.units;
    let mut id = 0u64;
    for (is_measured, pass, profiles) in &episode.passes {
        if matches!(config.workload, Workload::Cold | Workload::Pool) {
            states.clear();
        }
        let kernel_before = kernel_ns();
        for (ui, r) in &pass.retired {
            let unit = &units[*ui];
            let profile = match profiles {
                Some(p) => &p[*ui][r.func],
                None => &unit.profiles[r.func],
            };
            let job = Job {
                key: (*ui, r.func),
                source: unit.module.func(FuncId::from_index(r.func)),
                profile,
                target: &bench.targets[unit.target],
                costs: bench.corpus.specs[unit.target].costs,
                profile_path,
                reported: pass.costs[*ui].get(r.func).copied().flatten(),
            };
            tracer.begin(id, *is_measured);
            if let Err(e) = replay::replay(&mut tracer, &mut states, &job, r.provenance) {
                out.failed += 1;
                out.lines.push(format!("replay mismatch: {e}"));
            }
            if *is_measured {
                measured += 1;
                session_ns += r.latency_ns as f64 * pass.speed;
                let end_ns = tracer.offset_ns(r.at);
                session_spans.push(Span {
                    name: "session.function",
                    func: id,
                    start_ns: end_ns.saturating_sub(r.latency_ns),
                    end_ns,
                });
            }
            id += 1;
        }
        tracer.fold(speed(kernel_before, kernel_ns()));
    }

    let per_fn = |ns: f64| ratio(ns / 1e3, measured as f64);
    let busy = |name: &str| tracer.busy_ns.get(name).copied().unwrap_or(0.0);
    let session_mean = per_fn(session_ns);
    let layer_sum: f64 = ON_PATH.iter().map(|n| per_fn(busy(n))).sum();
    let overhead = session_mean - layer_sum;
    let c = &tracer.counts;
    let fmean = |total: u64| ratio(total as f64, measured as f64);

    for name in ["ir.cfg", "ir.liveness", "ir.derived", "ir.sccs"] {
        out.push(&format!("{name}_us"), per_fn(busy(name)), "us");
    }
    out.push("ir.blocks", fmean(c.blocks), "count");
    out.push("ir.insts", fmean(c.insts), "count");
    for name in ["regalloc.allocate", "regalloc.interfere", "regalloc.color"] {
        out.push(&format!("{name}_us"), per_fn(busy(name)), "us");
    }
    out.push("regalloc.rounds", c.regalloc_rounds as f64, "count");
    out.push("regalloc.spilled_vregs", c.spilled_vregs as f64, "count");
    out.push("pst.build_us", per_fn(busy("pst.build")), "us");
    out.push("pst.regions", c.pst_regions as f64, "count");
    out.push("pst.dirty_us", per_fn(busy("pst.dirty")), "us");
    out.push("profile.delta_us", per_fn(busy("profile.delta")), "us");
    out.push("profile.changed_edges", c.changed_edges as f64, "count");
    out.push("profile.synth_us", per_fn(busy("profile.synth")), "us");
    for name in [
        "core.usage",
        "core.entry_exit",
        "core.chow",
        "core.hier_seed",
        "core.hier_exec",
        "core.hier_jump",
        "core.validate",
        "core.price",
        "core.memoize",
        "core.refold",
    ] {
        out.push(&format!("{name}_us"), per_fn(busy(name)), "us");
    }
    out.push("core.regions_refolded", c.regions_refolded as f64, "count");
    out.push("core.regions_total", c.regions_total as f64, "count");
    out.push(
        "core.refold_ratio",
        if c.regions_total == 0 {
            0.0
        } else {
            1.0 - c.regions_refolded as f64 / c.regions_total as f64
        },
        "fraction",
    );
    out.push("driver.overhead_us", overhead, "us");
    out.push(
        "driver.unattributed_frac",
        ratio(overhead, session_mean),
        "fraction",
    );
    let a = episode.arena;
    out.push("driver.arena_hits", a.hits as f64, "count");
    out.push("driver.arena_misses", a.misses as f64, "count");
    out.push("driver.arena_incremental", a.incremental as f64, "count");
    out.push("driver.arena_entries", a.entries as f64, "count");
    out.push(
        "driver.arena_hit_ratio",
        ratio(
            (a.hits + a.incremental) as f64,
            (a.hits + a.misses + a.incremental) as f64,
        ),
        "fraction",
    );
    if let (Some(first), Some(last)) = episode.rss {
        out.push("driver.rss_growth_mb", last - first, "MB");
    }
    let w = &episode.workers;
    let (busy_ns, idle_ns) = w.iter().fold((0, 0), |(b, i), x| (b + x.1, i + x.2));
    let passes = episode.measured().count().max(1) as f64;
    out.push(
        "driver.pool_busy_frac",
        ratio(busy_ns as f64, (busy_ns + idle_ns) as f64),
        "fraction",
    );
    out.push("driver.pool_idle_ms", idle_ns as f64 / 1e6 / passes, "ms");
    let items: Vec<f64> = w.iter().map(|x| x.0 as f64).collect();
    let mean_items = ratio(items.iter().sum(), items.len() as f64);
    out.push(
        "driver.pool_items_imbalance",
        ratio(items.iter().copied().fold(0.0, f64::max), mean_items),
        "ratio",
    );
    out.push("bench.session_mean_us", session_mean, "us");
    let fps = |(n, ns): (u64, f64)| ratio(n as f64, ns / 1e9);
    out.push(
        "bench.trace_overhead_frac",
        ratio(fps(traced) - fps(plain), fps(plain)),
        "fraction",
    );
    out.push(
        "error_rate",
        ratio(out.failed as f64, out.attempted as f64),
        "fraction",
    );

    out.lines.push(format!(
        "workload {} seed {} (traced): {measured} functions replayed, session mean {session_mean:.3} us = layer sum {layer_sum:.3} us + driver overhead {overhead:.3} us; on-path spans: {}; split spans: {}",
        config.workload.name(),
        config.seed,
        ON_PATH.join(" "),
        SPLITS.join(" ")
    ));
    if let Some(path) = &config.spans_out {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, tracer.chrome_json(&session_spans)));
        match written {
            Ok(()) => out.lines.push(format!(
                "{} spans written to {}",
                tracer.spans.len() + session_spans.len(),
                path.display()
            )),
            Err(e) => return Err(format!("writing spans to {}: {e}", path.display())),
        }
    }
    out.correct = out.failed == 0 && out.attempted > 0;
    Ok(out)
}
