//! The `spillopt` command-line interface.
//!
//! ```text
//! spillopt optimize (--bench NAME | --input FILE) [--target T] [--threads N] [--strategy S] [--techniques LIST] [--on-fault P] [--budget-ms N] [--budget-iters N] [--progress] [--trace FILE] [--out FILE]
//! spillopt compare  (--bench NAME | --input FILE) [--target T|all] [--threads N] [--techniques LIST] [--on-fault P] [--budget-ms N] [--budget-iters N] [--progress] [--trace FILE] [--json]
//! spillopt report   (--bench NAME | --input FILE) [--target T|all] [--threads N] [--techniques LIST] [--on-fault P] [--budget-ms N] [--budget-iters N] [--progress] [--trace FILE] [--compact] [--out FILE]
//! spillopt stats    (--bench NAME | --input FILE) [--target T] [--threads N] [--techniques LIST] [--trace FILE] [--json] [--out FILE]
//! spillopt stress   --seeds N [--start S] [--target T|all] [--threads N] [--exact] [--gap PCT] [--drift] [--faults] [--trace FILE]
//! spillopt gap      --seeds N [--start S] [--target T|all] [--threads N] [--gap PCT] [--json] [--out FILE]
//! spillopt list-benches
//! spillopt list-targets
//! ```
//!
//! Exit codes are distinct by failure class: `0` success, `1` internal
//! or pipeline failure, `2` usage / configuration error, `3` degraded
//! success (`--on-fault degrade|skip` completed and produced its
//! primary output, but the fault ledger is non-empty).
//!
//! * `optimize` emits the optimized module as IR text: every function
//!   register-allocated, save/restore code inserted under the chosen
//!   strategy (default: the per-function best).
//! * `compare` prints the four strategies side by side per function;
//!   `--target all` compares every registered backend target instead.
//! * `report` emits the full deterministic JSON report; `--target all`
//!   adds the cross-target comparison section.
//! * `stats` runs the pipeline under the [`spillopt_obs`] recorder
//!   (three times — cold, warm through the analysis arena, and under a
//!   weights-preserving profile drift that exercises the incremental
//!   re-fold) and prints the aggregated per-phase timing table (count /
//!   total / p50 / p95 / max), the counter totals, the dirty-region
//!   ledger, and the session's arena and pool-worker statistics;
//!   `--json` emits the machine-readable form.
//! * `stress` runs the differential stress subsystem: seeded random
//!   modules through all four placements on the chosen target(s),
//!   checked by the interpreter oracles, with minimized counterexample
//!   reporting. `--exact` adds the fourth (optimality-gap) oracle: a
//!   branch-and-bound solver certifies each function's minimum
//!   placement cost and hier-jump must land within `--gap` percent.
//!   `--drift` switches to the profile-drift differential instead: each
//!   seed's module is re-optimized through a warm incremental session
//!   under `--drift-steps` seeded profile mutations, and the report
//!   bytes must match a fresh cold pipeline after every step.
//!   `--faults` switches to the fault-injection fuzzer: one seeded
//!   fault (panic / error / budget trip) is armed at a named probe site
//!   per case, and containment, ledger exactness, blast radius, and
//!   session recovery are all checked against a fault-free oracle.
//! * `gap` measures the optimality gap across the stress corpus and
//!   emits the per-target gap histogram (`--json` for the machine
//!   record the nightly CI job archives).
//!
//! Every pipeline subcommand accepts `--trace FILE`: the run executes
//! under an active [`spillopt_obs`] recording and the collected trace
//! is written as Chrome Trace Event JSON, loadable directly in Perfetto
//! or `chrome://tracing`.
//!
//! Inputs are either a generated SPEC stand-in (`--bench`, profiled on
//! its training workload) or an IR text file (`--input`, profiled
//! synthetically). Argument parsing is hand-rolled: the surface is a
//! handful of subcommands and flags, not worth a dependency the offline
//! build would have to shim.

use crate::driver::{DriverError, ModuleRun, ProfileSource, Strategy};
use crate::json::Json;
use crate::report::{CrossTargetReport, FunctionReport};
use crate::session::{Budget, FailurePolicy, OptimizerBuilder, Provenance, TechniqueSet};
use crate::stress::{run_stress, Invariant, StressConfig, StressSummary};
use spillopt_ir::{display, parse_module_traced, Module};
use spillopt_targets::{registry, spec_by_name, TargetSpec};
use std::io::Write;
use std::time::Instant;

/// Entry point for the binary: parses `std::env::args`, runs, maps
/// errors to stderr + their [`CliError::exit_code`] (1 internal, 2
/// usage, 3 degraded success).
pub fn run_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout();
    match run(&args, &mut stdout) {
        Ok(()) => 0,
        Err(e @ CliError::Usage(_)) => {
            eprintln!("{e}\n\n{USAGE}");
            e.exit_code()
        }
        Err(e) => {
            eprintln!("spillopt: {e}");
            e.exit_code()
        }
    }
}

const USAGE: &str = "\
usage:
  spillopt optimize (--bench NAME | --input FILE) [--target T] [--threads N] [--strategy S] [--techniques LIST] [--on-fault P] [--budget-ms N] [--budget-iters N] [--progress] [--trace FILE] [--out FILE]
  spillopt compare  (--bench NAME | --input FILE) [--target T|all] [--threads N] [--techniques LIST] [--on-fault P] [--budget-ms N] [--budget-iters N] [--progress] [--trace FILE] [--json]
  spillopt report   (--bench NAME | --input FILE) [--target T|all] [--threads N] [--techniques LIST] [--on-fault P] [--budget-ms N] [--budget-iters N] [--progress] [--trace FILE] [--compact] [--out FILE]
  spillopt stats    (--bench NAME | --input FILE) [--target T] [--threads N] [--techniques LIST] [--trace FILE] [--json] [--out FILE]
  spillopt stress   --seeds N [--start S] [--target T|all] [--threads N] [--exact] [--gap PCT] [--drift] [--drift-steps N] [--faults] [--trace FILE]
  spillopt gap      --seeds N [--start S] [--target T|all] [--threads N] [--gap PCT] [--json] [--out FILE]
  spillopt list-benches
  spillopt list-targets

strategies: baseline | shrinkwrap | hier-exec | hier-jump | best (default)
--techniques selects which placement techniques the session reports
(and `optimize` may apply): `all` (default) or a comma-separated list
of strategy names.
--progress streams one stderr line per function as it retires from the
worker pool, plus a final summary line (functions retired, warm arena
hits, elapsed wall-clock) once the module is done.
--trace FILE records the run with the spillopt-obs recorder and writes
a Chrome Trace Event JSON file (open in Perfetto or chrome://tracing).
--target names a registered backend (see list-targets; default pa-risc-like);
`--target all` fans compare/report out across every registered target.
--threads 0 uses all cores (default); --threads 1 is the serial reference.
`stats` runs the pipeline three times (cold, warm through the analysis
arena, then under a weights-preserving profile drift that takes the
incremental re-fold path) under the recorder and prints the per-phase
timing table (count/total/p50/p95/max), counter totals, the dirty-region
ledger, and arena/pool statistics; --json emits the machine-readable
form.
--on-fault sets the session failure policy: `fail` (default) surfaces
the first pipeline failure as an error; `degrade` retries a failing
function down the technique ladder (hier-jump, hier-exec, shrinkwrap,
baseline) and `skip` passes it through unoptimized — both record the
original error in the run's fault ledger and keep the rest of the
module. --budget-ms / --budget-iters cap each function's wall-clock and
solver iterations; an exceeded budget is a failure the policy handles
like any other.
`stress --drift` switches to the profile-drift differential: each seed's
module is re-optimized through a warm incremental session under a seeded
sequence of profile mutations (--drift-steps, default 8) and the report
bytes must match a fresh cold pipeline after every step.
`stress --faults` switches to the fault-injection fuzzer: one seeded
fault (panic / error / budget trip) is armed at a named probe site per
case, and containment, ledger exactness, blast radius, and session
recovery are all checked against a fault-free oracle; violations are
minimized and printed.
`stress` fuzzes seeded random modules through all four placements on the
chosen target(s) (default all), checking the interpreter-backed oracles;
failures are minimized and printed. --exact adds the optimality-gap
oracle (certified-minimum placement cost per function; hier-jump must
land within --gap percent of it, default 50 — the measured corpus
worst case).
`gap` runs the stress corpus under the exact oracle and reports the
per-target optimality-gap histogram.

exit codes: 0 success; 1 internal or pipeline failure; 2 usage or
configuration error; 3 degraded success (--on-fault degrade|skip
completed and produced its primary output, but one or more functions
were degraded or skipped — the fault ledger is printed to stderr).";

/// The accepted `--strategy` values, for error messages.
const STRATEGIES: &str = "baseline, shrinkwrap, hier-exec, hier-jump, best";

/// A CLI failure.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments (exit code 2, usage printed).
    Usage(String),
    /// Pipeline failure (exit code 1).
    Run(String),
    /// Degraded success (exit code 3): the run completed and produced
    /// its primary output, but `--on-fault degrade|skip` contained one
    /// or more function failures.
    Degraded(String),
}

impl CliError {
    /// The process exit code this failure class maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Run(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Degraded(_) => 3,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Run(msg) | CliError::Degraded(msg) => {
                write!(f, "{msg}")
            }
        }
    }
}

/// Runs the CLI against `args`, writing primary output to `out`.
/// Factored from [`run_main`] so tests can drive it in-process.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut args = args.iter().map(String::as_str);
    let sub = args.next().ok_or_else(|| usage("missing subcommand"))?;
    let rest: Vec<&str> = args.collect();
    match sub {
        "optimize" => optimize(&parse_opts("optimize", &rest)?, out),
        "compare" => compare(&parse_opts("compare", &rest)?, out),
        "report" => report(&parse_opts("report", &rest)?, out),
        "stats" => stats(&parse_opts("stats", &rest)?, out),
        "stress" => stress(&rest, out),
        "gap" => gap(&rest, out),
        "list-benches" => {
            for spec in spillopt_benchgen::all_benchmarks() {
                writeln!(out, "{}", spec.name).map_err(io_err)?;
            }
            Ok(())
        }
        "list-targets" => {
            for spec in registry() {
                writeln!(
                    out,
                    "{:<18} {:>2} callee-saved / {:>2} regs, pair {}, align {:>2}  {}",
                    spec.name,
                    spec.callee_saved.len(),
                    spec.callee_saved.len() + spec.caller_saved.len(),
                    spec.costs.pair_size,
                    spec.stack_align,
                    spec.description
                )
                .map_err(io_err)?;
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").map_err(io_err)?;
            Ok(())
        }
        other => Err(usage(&format!("unknown subcommand `{other}`"))),
    }
}

fn usage(msg: &str) -> CliError {
    CliError::Usage(msg.to_string())
}

/// Resolves a concrete `--target` value, listing the registry on error
/// (shared by the module subcommands and `stress`).
fn parse_target(name: &str) -> Result<TargetSpec, CliError> {
    spec_by_name(name).ok_or_else(|| {
        usage(&format!(
            "unknown target `{name}` (registered: {})",
            registry()
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
                .join(", ")
        ))
    })
}

fn io_err(e: std::io::Error) -> CliError {
    CliError::Run(format!("write failed: {e}"))
}

/// Parsed flags shared by the three module subcommands.
struct Opts {
    bench: Option<String>,
    input: Option<String>,
    target: TargetChoice,
    threads: usize,
    strategy: Option<Strategy>,
    techniques: TechniqueSet,
    on_fault: FailurePolicy,
    budget: Budget,
    progress: bool,
    trace: Option<String>,
    out: Option<String>,
    json: bool,
    compact: bool,
}

/// The `--target` flag: one registered target or all of them.
enum TargetChoice {
    One(TargetSpec),
    All,
}

/// The flags each subcommand accepts; anything else is rejected rather
/// than silently ignored.
fn allowed_flags(sub: &str) -> &'static [&'static str] {
    match sub {
        "optimize" => &[
            "--bench",
            "--input",
            "--target",
            "--threads",
            "--strategy",
            "--techniques",
            "--on-fault",
            "--budget-ms",
            "--budget-iters",
            "--progress",
            "--trace",
            "--out",
        ],
        "compare" => &[
            "--bench",
            "--input",
            "--target",
            "--threads",
            "--techniques",
            "--on-fault",
            "--budget-ms",
            "--budget-iters",
            "--progress",
            "--trace",
            "--json",
        ],
        "report" => &[
            "--bench",
            "--input",
            "--target",
            "--threads",
            "--techniques",
            "--on-fault",
            "--budget-ms",
            "--budget-iters",
            "--progress",
            "--trace",
            "--compact",
            "--out",
        ],
        "stats" => &[
            "--bench",
            "--input",
            "--target",
            "--threads",
            "--techniques",
            "--trace",
            "--json",
            "--out",
        ],
        _ => &[],
    }
}

fn parse_opts(sub: &str, rest: &[&str]) -> Result<Opts, CliError> {
    let mut opts = Opts {
        bench: None,
        input: None,
        target: TargetChoice::One(spillopt_targets::pa_risc_like()),
        threads: 0,
        strategy: None,
        techniques: TechniqueSet::ALL,
        on_fault: FailurePolicy::Fail,
        budget: Budget::none(),
        progress: false,
        trace: None,
        out: None,
        json: false,
        compact: false,
    };
    let mut it = rest.iter();
    while let Some(&flag) = it.next() {
        if !allowed_flags(sub).contains(&flag) {
            return Err(usage(&format!(
                "`{sub}` does not accept `{flag}` (accepted: {})",
                allowed_flags(sub).join(", ")
            )));
        }
        let mut value = || {
            it.next()
                .copied()
                .ok_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag {
            "--bench" => opts.bench = Some(value()?.to_string()),
            "--input" => opts.input = Some(value()?.to_string()),
            "--target" => {
                let v = value()?;
                opts.target = match v {
                    "all" if sub == "optimize" || sub == "stats" => {
                        return Err(usage(&format!(
                            "`{sub}` needs one concrete target (`--target all` only \
                             applies to compare/report)",
                        )))
                    }
                    "all" => TargetChoice::All,
                    name => TargetChoice::One(parse_target(name)?),
                }
            }
            "--threads" => {
                opts.threads = value()?
                    .parse()
                    .map_err(|_| usage("--threads needs a number"))?
            }
            "--strategy" => {
                let v = value()?;
                opts.strategy = match v {
                    "best" => None,
                    s => Some(Strategy::parse(s).ok_or_else(|| {
                        usage(&format!("unknown strategy `{s}` (accepted: {STRATEGIES})"))
                    })?),
                }
            }
            "--techniques" => {
                opts.techniques = TechniqueSet::parse(value()?).map_err(|e| usage(&e))?;
            }
            "--on-fault" => {
                let v = value()?;
                opts.on_fault = FailurePolicy::parse(v).ok_or_else(|| {
                    usage(&format!(
                        "unknown failure policy `{v}` (accepted: fail, degrade, skip)"
                    ))
                })?;
            }
            "--budget-ms" => {
                let ms = value()?
                    .parse()
                    .map_err(|_| usage("--budget-ms needs a number of milliseconds"))?;
                opts.budget = opts.budget.wall_ms(ms);
            }
            "--budget-iters" => {
                let iters = value()?
                    .parse()
                    .map_err(|_| usage("--budget-iters needs a number"))?;
                opts.budget = opts.budget.solver_iters(iters);
            }
            "--progress" => opts.progress = true,
            "--trace" => opts.trace = Some(value()?.to_string()),
            "--out" => opts.out = Some(value()?.to_string()),
            "--json" => opts.json = true,
            "--compact" => opts.compact = true,
            other => return Err(usage(&format!("unknown flag `{other}`"))),
        }
    }
    if opts.bench.is_some() == opts.input.is_some() {
        return Err(usage("exactly one of --bench or --input is required"));
    }
    if let Some(strategy) = opts.strategy {
        if !opts.techniques.contains(strategy) {
            return Err(usage(&format!(
                "--strategy {} is not in --techniques {}",
                strategy.name(),
                opts.techniques.names()
            )));
        }
    }
    if matches!(opts.target, TargetChoice::All)
        && (opts.on_fault != FailurePolicy::Fail || opts.budget.is_some())
    {
        // The cross-target report aggregates ModuleReports and has no
        // per-target fault ledger to surface; keep the degraded exit
        // code honest by requiring one concrete target.
        return Err(usage(
            "--on-fault / --budget-* need one concrete target (not `--target all`)",
        ));
    }
    Ok(opts)
}

/// Loads the module and its profile source for one target.
fn load(opts: &Opts, spec: &TargetSpec) -> Result<(Module, ProfileSource), CliError> {
    let target = spec
        .try_to_target()
        .map_err(|e| CliError::Run(format!("target `{}` is malformed: {e}", spec.name)))?;
    if let Some(name) = &opts.bench {
        if target.arg_regs().len() < spillopt_benchgen::BENCH_NUM_PARAMS {
            return Err(CliError::Run(format!(
                "target `{}` has {} argument register(s) but generated benchmarks need {}; \
                 use --input with a hand-written module instead",
                spec.name,
                target.arg_regs().len(),
                spillopt_benchgen::BENCH_NUM_PARAMS
            )));
        }
        let bench_spec = spillopt_benchgen::benchmark_by_name(name).ok_or_else(|| {
            CliError::Run(format!("unknown benchmark `{name}` (see list-benches)"))
        })?;
        let bench = spillopt_benchgen::build_bench(&bench_spec, &target);
        Ok((bench.module, ProfileSource::Workload(bench.train_runs)))
    } else {
        let path = opts.input.as_deref().expect("validated by parse_opts");
        load_input(path)
    }
}

/// Reads, parses, and verifies an `--input` IR file. Target-independent:
/// `--target all` loads the file once and shares the module.
///
/// Parse errors surface with their source line; verifier errors are
/// listed one per line, each mapped back to the closest source line the
/// parser recorded.
fn load_input(path: &str) -> Result<(Module, ProfileSource), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Run(format!("cannot read `{path}`: {e}")))?;
    let (module, smap) = parse_module_traced(&text)
        .map_err(|e| CliError::Run(format!("parse error in `{path}`: {e}")))?;
    let errs = spillopt_ir::verify_module(&module, spillopt_ir::RegDiscipline::Virtual);
    if !errs.is_empty() {
        let rendered: Vec<String> = errs
            .iter()
            .map(|e| match smap.line_of(e) {
                Some(l) => format!("  line {l}: {e}"),
                None => format!("  {e}"),
            })
            .collect();
        return Err(CliError::Run(format!(
            "`{path}` does not verify (virtual register discipline):\n{}",
            rendered.join("\n")
        )));
    }
    Ok((module, ProfileSource::default()))
}

/// The `--progress` observer: one stderr line per retiring function,
/// streamed from the session as the pool finishes each one. The target
/// name disambiguates the interleaved `--target all` fan-out; the
/// provenance tag says whether the function ran cold, hit the arena
/// warm, or was incrementally re-folded after a profile drift.
fn progress_observer() -> impl Fn(&str, &str, &FunctionReport, Provenance) + Sync {
    |target: &str, module: &str, report: &FunctionReport, provenance: Provenance| {
        let best = report.best.map_or("(no callee-saved use)", |b| b.name());
        eprintln!(
            "  [{target}] {module}::{} placed: {best} [{}]",
            report.name,
            provenance.name()
        );
    }
}

/// The `--progress` final summary: one stderr line once the module (or
/// the whole cross-target fan-out) is done — it follows every streamed
/// `function_retired` line because the session only returns after its
/// `module_done` notification. Reuse provenance is summarized as warm
/// hits and incremental re-folds (both zero for arena-less runs).
fn progress_summary(
    label: &str,
    functions: usize,
    stats: &crate::session::SessionStats,
    started: Instant,
) {
    eprintln!(
        "  [{label}] done: {functions} function(s) retired, {} warm arena hit(s), \
         {} incremental re-fold(s), {:.1}ms",
        stats.arena.hits,
        stats.arena.incremental,
        started.elapsed().as_secs_f64() * 1e3
    );
}

/// Runs `f` under an active [`spillopt_obs`] recording when `path` is
/// set, writing the collected trace as Chrome Trace Event JSON. The
/// trace is only written when the run succeeds; the recording itself is
/// torn down either way.
fn with_trace<T>(
    path: Option<&str>,
    f: impl FnOnce() -> Result<T, CliError>,
) -> Result<T, CliError> {
    let Some(path) = path else { return f() };
    let recording = spillopt_obs::Recording::start();
    let result = f();
    let trace = recording.finish();
    if result.is_ok() {
        std::fs::write(path, trace.chrome_json())
            .map_err(|e| CliError::Run(format!("cannot write trace `{path}`: {e}")))?;
        eprintln!(
            "trace: {} span(s), {} counter(s) -> {path}",
            trace.spans.len(),
            trace.counters.len()
        );
    }
    result
}

fn drive(opts: &Opts, spec: &TargetSpec) -> Result<crate::driver::ModuleRun, CliError> {
    let (module, profile) = load(opts, spec)?;
    let session = OptimizerBuilder::new()
        .target_spec(spec.clone())
        .profile(profile)
        .threads(opts.threads)
        .techniques(opts.techniques)
        .on_fault(opts.on_fault)
        .budget(opts.budget)
        // One-shot process: an arena would cache results nothing reads.
        .reuse_analyses(false)
        .build()
        .map_err(|e| CliError::Run(e.to_string()))?;
    let started = Instant::now();
    let run = if opts.progress {
        session.optimize_observed(&module, &progress_observer())
    } else {
        session.optimize(&module)
    };
    let run = run.map_err(|e| CliError::Run(e.to_string()))?;
    if opts.progress {
        progress_summary(
            spec.name,
            run.report.functions.len(),
            &session.stats(),
            started,
        );
    }
    Ok(run)
}

/// Runs the pipeline on every registered target.
///
/// An `--input` module is target-independent: it is read, parsed, and
/// verified **once** here and cloned per target, instead of re-doing the
/// file I/O and parse for each of them. Generated benchmarks still build
/// per target — they lower against each target's calling convention.
fn drive_all(opts: &Opts) -> Result<CrossTargetReport, CliError> {
    let shared: Option<(Module, ProfileSource)> = match opts.input.as_deref() {
        Some(path) => Some(load_input(path)?),
        None => None,
    };
    let session = OptimizerBuilder::new()
        .all_targets()
        .threads(opts.threads)
        .techniques(opts.techniques)
        // One-shot process: an arena would cache results nothing reads.
        .reuse_analyses(false)
        .build()
        .map_err(|e| CliError::Run(e.to_string()))?;
    let load_for = |spec: &TargetSpec| match &shared {
        Some(pair) => Ok(pair.clone()),
        None => load(opts, spec).map_err(|e| match e {
            CliError::Run(msg) | CliError::Usage(msg) | CliError::Degraded(msg) => {
                DriverError::Load(format!("target {}: {msg}", spec.name))
            }
        }),
    };
    let started = Instant::now();
    let report = if opts.progress {
        session.cross_target_observed(load_for, &progress_observer())
    } else {
        session.cross_target(load_for)
    };
    let report = report.map_err(|e| CliError::Run(e.to_string()))?;
    if opts.progress {
        let functions: usize = report.targets.iter().map(|(_, r)| r.functions.len()).sum();
        progress_summary("all", functions, &session.stats(), started);
    }
    Ok(report)
}

/// Writes `text` to `--out` or the primary stream.
fn emit(opts: &Opts, out: &mut dyn Write, text: &str) -> Result<(), CliError> {
    match &opts.out {
        Some(path) => std::fs::write(path, text)
            .map_err(|e| CliError::Run(format!("cannot write `{path}`: {e}"))),
        None => out.write_all(text.as_bytes()).map_err(io_err),
    }
}

/// Converts a non-empty fault ledger into the degraded-success exit
/// (code 3), after the primary output has been produced. Each contained
/// fault is printed to stderr.
fn degraded_check(run: &ModuleRun) -> Result<(), CliError> {
    if run.faults().is_empty() {
        return Ok(());
    }
    for fault in run.faults() {
        eprintln!("spillopt: contained fault: {fault}");
    }
    Err(CliError::Degraded(format!(
        "completed with {} contained fault(s); degraded functions listed above",
        run.faults().len()
    )))
}

fn optimize(opts: &Opts, out: &mut dyn Write) -> Result<(), CliError> {
    let TargetChoice::One(spec) = &opts.target else {
        unreachable!("rejected in parse_opts");
    };
    let run = with_trace(opts.trace.as_deref(), || drive(opts, spec))?;
    let optimized = run.apply(opts.strategy);
    eprintln!(
        "optimized {} for {}: {} functions, {} placed, speedup {}",
        run.report.module,
        run.report.target,
        run.report.functions.len(),
        run.report.placed_functions(),
        run.report
            .speedup()
            .map_or("n/a".to_string(), |x| format!("{x:.2}x"))
    );
    emit(opts, out, &display::module_to_string(&optimized))?;
    degraded_check(&run)
}

fn compare(opts: &Opts, out: &mut dyn Write) -> Result<(), CliError> {
    match &opts.target {
        TargetChoice::One(spec) => {
            let run = with_trace(opts.trace.as_deref(), || drive(opts, spec))?;
            if opts.json {
                emit(opts, out, &(run.report.to_json().to_pretty() + "\n"))?;
            } else {
                emit(opts, out, &run.report.render_human())?;
            }
            degraded_check(&run)
        }
        TargetChoice::All => {
            let cross = with_trace(opts.trace.as_deref(), || drive_all(opts))?;
            if opts.json {
                emit(opts, out, &(cross.to_json().to_pretty() + "\n"))
            } else {
                emit(opts, out, &cross.render_human())
            }
        }
    }
}

/// Flags shared by `stress` and `gap`: the sweep and the output knobs.
struct StressFlags {
    config: StressConfig,
    json: bool,
    trace: Option<String>,
    out: Option<String>,
}

/// Parses the `stress` / `gap` flag surface. `sub` selects which extras
/// are accepted (`--exact`/`--drift`/`--faults` only on stress,
/// `--json`/`--out` only on gap).
fn parse_stress_flags(sub: &str, rest: &[&str]) -> Result<StressFlags, CliError> {
    let (mut start, mut threads, mut targets) = (0, 0, registry());
    let (mut json, mut trace, mut out) = (false, None, None);
    let (mut exact, mut drift, mut faults) = (sub == "gap", false, false);
    let mut gap_percent = spillopt_stress::DEFAULT_GAP_PERCENT;
    let mut drift_steps = crate::drift::DEFAULT_DRIFT_STEPS;
    let mut seeds: Option<u64> = None;
    let mut it = rest.iter();
    while let Some(&flag) = it.next() {
        let mut value = || {
            it.next()
                .copied()
                .ok_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag {
            "--seeds" => {
                seeds = Some(
                    value()?
                        .parse()
                        .map_err(|_| usage("--seeds needs a number"))?,
                )
            }
            "--start" => {
                start = value()?
                    .parse()
                    .map_err(|_| usage("--start needs a number"))?
            }
            "--threads" => {
                threads = value()?
                    .parse()
                    .map_err(|_| usage("--threads needs a number"))?
            }
            "--target" => {
                let v = value()?;
                // Last flag wins in both directions: `all` restores the
                // full registry after an earlier narrowing.
                targets = if v == "all" {
                    registry()
                } else {
                    vec![parse_target(v)?]
                };
            }
            "--exact" if sub == "stress" => exact = true,
            "--drift" if sub == "stress" => drift = true,
            "--faults" if sub == "stress" => faults = true,
            "--drift-steps" if sub == "stress" => {
                drift_steps = value()?
                    .parse()
                    .map_err(|_| usage("--drift-steps needs a number"))?
            }
            "--gap" => {
                gap_percent = value()?
                    .parse()
                    .map_err(|_| usage("--gap needs a percentage"))?
            }
            "--json" if sub == "gap" => json = true,
            "--trace" if sub == "stress" => trace = Some(value()?.to_string()),
            "--out" if sub == "gap" => out = Some(value()?.to_string()),
            other => {
                let accepted = if sub == "stress" {
                    "--seeds, --start, --target, --threads, --exact, --gap, --drift, \
                     --drift-steps, --faults, --trace"
                } else {
                    "--seeds, --start, --target, --threads, --gap, --json, --out"
                };
                return Err(usage(&format!(
                    "`{sub}` does not accept `{other}` (accepted: {accepted})"
                )));
            }
        }
    }
    let seeds = seeds.ok_or_else(|| usage(&format!("`{sub}` requires --seeds N")))?;
    if !exact && gap_percent != spillopt_stress::DEFAULT_GAP_PERCENT {
        return Err(usage("--gap only applies with --exact"));
    }
    if (drift as u8) + (exact as u8) + (faults as u8) > 1 {
        return Err(usage(
            "--drift, --exact, and --faults are separate oracles; pick one per run",
        ));
    }
    if !drift && drift_steps != crate::drift::DEFAULT_DRIFT_STEPS {
        return Err(usage("--drift-steps only applies with --drift"));
    }
    let invariant = if drift {
        Invariant::Drift { steps: drift_steps }
    } else if faults {
        Invariant::Faults
    } else {
        Invariant::Oracles {
            exact: exact.then(|| spillopt_stress::ExactOptions {
                gap_percent,
                ..spillopt_stress::ExactOptions::default()
            }),
        }
    };
    Ok(StressFlags {
        config: StressConfig {
            start,
            seeds,
            targets,
            threads,
            invariant,
        },
        json,
        trace,
        out,
    })
}

/// Writes the counterexamples and converts a failed sweep into the
/// subcommand's error.
fn stress_failures(
    config: &StressConfig,
    summary: &StressSummary,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    if summary.passed() {
        return Ok(());
    }
    for f in &summary.failures {
        writeln!(out, "\n=== counterexample ===\n{f}").map_err(io_err)?;
    }
    let what = match config.invariant {
        Invariant::Oracles { .. } => "stress cases failed an oracle",
        Invariant::Drift { .. } => "drift cases diverged from the cold oracle",
        Invariant::Faults => "fault cases violated a containment invariant",
    };
    Err(CliError::Run(format!(
        "{} of {} {what} (minimized counterexamples above)",
        summary.failures.len(),
        summary.cases
    )))
}

/// The `stress` subcommand: one sweep of the chosen invariant — the
/// interpreter oracles on all four placements (semantic equivalence,
/// model fidelity, never-worse — and, with `--exact`, the optimality
/// gap), the profile-drift differential (`--drift`), or the
/// fault-injection fuzzer (`--faults`). See [`crate::stress`].
fn stress(rest: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = parse_stress_flags("stress", rest)?;
    let config = &flags.config;
    let summary = with_trace(flags.trace.as_deref(), || Ok(run_stress(config)))?;
    let (c, failures) = (&summary.counters, summary.failures.len());
    let sweep = format!(
        "{} cases (seeds {}..{} x {} target(s)",
        summary.cases,
        config.start,
        config.start.saturating_add(config.seeds),
        config.targets.len()
    );
    match config.invariant {
        Invariant::Oracles { .. } => writeln!(
            out,
            "stress: {sweep}): {} functions, {} placed, {} placements checked, \
             {failures} failure(s)",
            c.functions, c.placed_functions, c.placements_checked
        ),
        Invariant::Drift { steps } => writeln!(
            out,
            "drift: {sweep}, {steps} step(s)): {} checks, {} functions, {} warm hit(s), \
             {} incremental re-fold(s), {}/{} regions re-folded, {failures} failure(s)",
            c.checks, c.functions, c.warm_hits, c.incremental, c.regions_refolded, c.regions_total
        ),
        Invariant::Faults => writeln!(
            out,
            "faults: {sweep}): {} functions, {} fault(s) fired, {} degraded, {} skipped, \
             {failures} violation(s)",
            c.functions, c.fired, c.degraded, c.skipped
        ),
    }
    .map_err(io_err)?;
    for t in &summary.exact {
        let j = &t.stats.jump;
        writeln!(
            out,
            "  exact [{}]: {} certified, {} budget-bounded, {} skipped, \
             max hier-jump gap {:.1}%",
            t.target,
            j.solved,
            j.bounded,
            j.skipped,
            j.hist.max_permille as f64 / 10.0
        )
        .map_err(io_err)?;
    }
    stress_failures(config, &summary, out)
}

/// The `gap` subcommand: the stress corpus under the exact oracle,
/// reported as a per-target optimality-gap histogram.
fn gap(rest: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = parse_stress_flags("gap", rest)?;
    let config = &flags.config;
    let Invariant::Oracles { exact: Some(exact) } = config.invariant else {
        unreachable!("`gap` always runs the exact oracle");
    };
    let summary = run_stress(config);
    let json = Json::obj()
        .with("report", Json::str("optimality_gap"))
        .with("schema_version", Json::UInt(1))
        .with("start", Json::UInt(config.start))
        .with("seeds", Json::UInt(config.seeds))
        .with("gap_percent", Json::UInt(exact.gap_percent))
        .with("cases", Json::UInt(summary.cases as u64))
        .with("functions", Json::UInt(summary.counters.functions))
        .with("failures", Json::UInt(summary.failures.len() as u64))
        .with("targets", summary.gap_report_json());
    let text = if flags.json {
        json.to_pretty() + "\n"
    } else {
        let mut t = format!(
            "{:<18} {:>9} {:>8} {:>8} {:>9} {:>11}\n",
            "target", "certified", "bounded", "skipped", "zero-gap", "max-gap"
        );
        for target in &summary.exact {
            let j = &target.stats.jump;
            t.push_str(&format!(
                "{:<18} {:>9} {:>8} {:>8} {:>9} {:>10.1}%\n",
                target.target,
                j.solved,
                j.bounded,
                j.skipped,
                j.hist.zero,
                j.hist.max_permille as f64 / 10.0
            ));
        }
        t
    };
    match &flags.out {
        Some(path) => std::fs::write(path, &text)
            .map_err(|e| CliError::Run(format!("cannot write `{path}`: {e}")))?,
        None => out.write_all(text.as_bytes()).map_err(io_err)?,
    }
    stress_failures(config, &summary, out)
}

fn report(opts: &Opts, out: &mut dyn Write) -> Result<(), CliError> {
    let (json, run) = with_trace(opts.trace.as_deref(), || match &opts.target {
        TargetChoice::One(spec) => {
            let run = drive(opts, spec)?;
            Ok((run.report.to_json(), Some(run)))
        }
        TargetChoice::All => Ok((drive_all(opts)?.to_json(), None)),
    })?;
    let text = if opts.compact {
        json.to_compact() + "\n"
    } else {
        json.to_pretty() + "\n"
    };
    emit(opts, out, &text)?;
    match &run {
        Some(run) => degraded_check(run),
        None => Ok(()),
    }
}

/// The `stats` subcommand: the pipeline under the recorder, reported as
/// an aggregated metrics snapshot instead of a timeline. The module
/// runs three times through an arena-*enabled* session — cold, warm,
/// then under a weights-preserving profile drift — so the arena
/// counters show every lookup outcome (miss, hit, incremental re-fold),
/// the dirty-region ledger has something to report, and the phase table
/// covers the cached and incremental paths too.
fn stats(opts: &Opts, out: &mut dyn Write) -> Result<(), CliError> {
    let TargetChoice::One(spec) = &opts.target else {
        unreachable!("rejected in parse_opts");
    };
    let (module, profile) = load(opts, spec)?;
    let session = OptimizerBuilder::new()
        .target_spec(spec.clone())
        .profile(profile)
        .threads(opts.threads)
        .techniques(opts.techniques)
        .reuse_analyses(true)
        .build()
        .map_err(|e| CliError::Run(e.to_string()))?;
    let recording = spillopt_obs::Recording::start();
    let started = Instant::now();
    let mut functions = 0;
    for _ in 0..2 {
        let run = session
            .optimize(&module)
            .map_err(|e| CliError::Run(e.to_string()))?;
        functions = run.report.functions.len();
    }
    // Third run: drift the profile without touching any block count, so
    // allocation is reusable and the placement re-fold goes through the
    // incremental path (functions with no suitable edge pair stay
    // warm hits).
    let mut profiles = session
        .resolve_profiles(&module)
        .map_err(|e| CliError::Run(e.to_string()))?;
    let drifted_funcs = crate::drift::nudge_weight_preserving(&module, &mut profiles);
    session
        .optimize_profiled(&module, &profiles)
        .map_err(|e| CliError::Run(e.to_string()))?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let trace = recording.finish();
    if let Some(path) = &opts.trace {
        std::fs::write(path, trace.chrome_json())
            .map_err(|e| CliError::Run(format!("cannot write trace `{path}`: {e}")))?;
    }
    let metrics = trace.metrics();
    let session_stats = session.stats();
    let ms = |ns: u64| ns as f64 / 1e6;
    let text = if opts.json {
        let mut phases = Vec::new();
        for p in &metrics.phases {
            phases.push(
                Json::obj()
                    .with("phase", Json::str(p.name))
                    .with("count", Json::UInt(p.count))
                    .with("total_ms", Json::Float(ms(p.total_ns)))
                    .with("p50_ms", Json::Float(ms(p.p50_ns)))
                    .with("p95_ms", Json::Float(ms(p.p95_ns)))
                    .with("max_ms", Json::Float(ms(p.max_ns))),
            );
        }
        let mut counters = Json::obj();
        for (name, total) in &metrics.counters {
            counters = counters.with(name, Json::UInt(*total));
        }
        let mut workers = Vec::new();
        for w in &session_stats.pool_workers {
            workers.push(
                Json::obj()
                    .with("items", Json::UInt(w.items))
                    .with("busy_ms", Json::Float(ms(w.busy_ns)))
                    .with("idle_ms", Json::Float(ms(w.idle_ns))),
            );
        }
        Json::obj()
            .with("report", Json::str("stats"))
            .with("schema_version", Json::UInt(1))
            .with("module", Json::str(module.name()))
            .with("target", Json::str(spec.name))
            .with("runs", Json::UInt(3))
            .with("functions", Json::UInt(functions as u64))
            .with("drifted_functions", Json::UInt(drifted_funcs as u64))
            .with("elapsed_ms", Json::Float(elapsed_ms))
            .with("phases", Json::Array(phases))
            .with("counters", counters)
            .with(
                "arena",
                Json::obj()
                    .with("hits", Json::UInt(session_stats.arena.hits))
                    .with("misses", Json::UInt(session_stats.arena.misses))
                    .with(
                        "reallocations",
                        Json::UInt(session_stats.arena.reallocations),
                    )
                    .with("incremental", Json::UInt(session_stats.arena.incremental))
                    .with("evictions", Json::UInt(session_stats.arena.evictions))
                    .with(
                        "regions_refolded",
                        Json::UInt(session_stats.arena.regions_refolded),
                    )
                    .with(
                        "regions_total",
                        Json::UInt(session_stats.arena.regions_total),
                    ),
            )
            .with("pool_workers", Json::Array(workers))
            .to_pretty()
            + "\n"
    } else {
        let mut t = format!(
            "stats: {} on {} — 3 runs (cold + warm + drifted), {} function(s), {:.1}ms\n\
             {:<22} {:>7} {:>11} {:>10} {:>10} {:>10}\n",
            module.name(),
            spec.name,
            functions,
            elapsed_ms,
            "phase",
            "count",
            "total(ms)",
            "p50(ms)",
            "p95(ms)",
            "max(ms)"
        );
        for p in &metrics.phases {
            t.push_str(&format!(
                "{:<22} {:>7} {:>11.3} {:>10.3} {:>10.3} {:>10.3}\n",
                p.name,
                p.count,
                ms(p.total_ns),
                ms(p.p50_ns),
                ms(p.p95_ns),
                ms(p.max_ns)
            ));
        }
        t.push_str("counters:\n");
        for (name, total) in &metrics.counters {
            t.push_str(&format!("  {name:<28} {total}\n"));
        }
        t.push_str(&format!(
            "arena: {} hit(s) / {} miss(es) / {} incremental / {} eviction(s) / \
             {} reallocation(s)\n",
            session_stats.arena.hits,
            session_stats.arena.misses,
            session_stats.arena.incremental,
            session_stats.arena.evictions,
            session_stats.arena.reallocations
        ));
        t.push_str(&format!(
            "dirty regions: {} re-folded of {} across the incremental run \
             ({drifted_funcs} function(s) drifted)\n",
            session_stats.arena.regions_refolded, session_stats.arena.regions_total
        ));
        if session_stats.pool_workers.is_empty() {
            t.push_str("pool: serial (no persistent workers)\n");
        } else {
            for (i, w) in session_stats.pool_workers.iter().enumerate() {
                t.push_str(&format!(
                    "pool: worker {i}: {} item(s), busy {:.1}ms, idle {:.1}ms\n",
                    w.items,
                    ms(w.busy_ns),
                    ms(w.idle_ns)
                ));
            }
        }
        t
    };
    emit(opts, out, &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_capture(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(run_capture(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run_capture(&["compare"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_capture(&["bench", "--json"]),
            Err(CliError::Usage(msg)) if msg.contains("unknown subcommand `bench`")
        ));
        assert!(matches!(
            run_capture(&["compare", "--bench", "mcf", "--input", "x"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_capture(&["optimize", "--bench", "mcf", "--strategy", "bogus"]),
            Err(CliError::Usage(_))
        ));
        // Flags that don't apply to the subcommand are rejected, not
        // silently ignored.
        assert!(matches!(
            run_capture(&["report", "--bench", "mcf", "--strategy", "baseline"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_capture(&["optimize", "--bench", "mcf", "--json"]),
            Err(CliError::Usage(_))
        ));
        // `optimize` needs one concrete target.
        assert!(matches!(
            run_capture(&["optimize", "--bench", "mcf", "--target", "all"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn strategy_errors_list_the_accepted_values() {
        let Err(CliError::Usage(msg)) =
            run_capture(&["optimize", "--bench", "mcf", "--strategy", "bogus"])
        else {
            panic!("expected usage error");
        };
        for s in ["baseline", "shrinkwrap", "hier-exec", "hier-jump", "best"] {
            assert!(msg.contains(s), "`{msg}` does not list `{s}`");
        }
    }

    #[test]
    fn techniques_flag_is_typed_and_lists_accepted_values() {
        let Err(CliError::Usage(msg)) =
            run_capture(&["compare", "--bench", "mcf", "--techniques", "bogus"])
        else {
            panic!("expected usage error");
        };
        for s in ["baseline", "shrinkwrap", "hier-exec", "hier-jump"] {
            assert!(msg.contains(s), "`{msg}` does not list `{s}`");
        }
        // A strategy outside the selected set is rejected up front.
        assert!(matches!(
            run_capture(&[
                "optimize",
                "--bench",
                "mcf",
                "--techniques",
                "baseline",
                "--strategy",
                "hier-jump",
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn techniques_rejects_empty_lists() {
        // An empty technique set cannot run anything — reject it at the
        // flag, in every spelling (bare, separators-only, whitespace).
        for bad in ["", ",", " ", " , "] {
            assert!(
                matches!(
                    run_capture(&["compare", "--bench", "mcf", "--techniques", bad]),
                    Err(CliError::Usage(_))
                ),
                "`--techniques {bad:?}` was accepted"
            );
        }
    }

    #[test]
    fn compare_with_a_technique_subset_runs() {
        let out = run_capture(&[
            "compare",
            "--bench",
            "mcf",
            "--techniques",
            "baseline,hier-jump",
            "--threads",
            "1",
        ])
        .expect("compare");
        assert!(out.contains("module mcf"), "{out}");
        assert!(out.contains("hier-jump"), "{out}");
    }

    #[test]
    fn target_errors_list_the_registry() {
        let Err(CliError::Usage(msg)) =
            run_capture(&["compare", "--bench", "mcf", "--target", "pdp11"])
        else {
            panic!("expected usage error");
        };
        assert!(msg.contains("unknown target `pdp11`"));
        for t in [
            "pa-risc-like",
            "x86-64-sysv",
            "aarch64-aapcs64",
            "riscv64-lp64",
        ] {
            assert!(msg.contains(t), "`{msg}` does not list `{t}`");
        }
    }

    #[test]
    fn tiny_target_with_bench_is_a_clean_error() {
        // `tiny` has one argument register; generated benchmarks need
        // two. This must surface as a CLI error, not a panic.
        let Err(CliError::Run(msg)) =
            run_capture(&["compare", "--bench", "mcf", "--target", "tiny"])
        else {
            panic!("expected run error");
        };
        assert!(msg.contains("argument register"), "unhelpful: {msg}");
    }

    #[test]
    fn list_benches_names_the_eleven() {
        let out = run_capture(&["list-benches"]).expect("list");
        assert!(out.lines().count() >= 11);
        assert!(out.contains("gzip") && out.contains("mcf"));
    }

    #[test]
    fn list_targets_names_the_backends() {
        let out = run_capture(&["list-targets"]).expect("list");
        assert!(out.lines().count() >= 4);
        for t in [
            "pa-risc-like",
            "x86-64-sysv",
            "aarch64-aapcs64",
            "riscv64-lp64",
        ] {
            assert!(out.contains(t), "missing target {t}");
        }
    }

    #[test]
    fn compare_renders_a_table() {
        let out = run_capture(&["compare", "--bench", "mcf", "--threads", "2"]).expect("compare");
        assert!(out.contains("module mcf"));
        assert!(out.contains("pa-risc-like"));
        assert!(out.contains("hier-jump"));
    }

    #[test]
    fn compare_accepts_a_concrete_target() {
        let out = run_capture(&[
            "compare",
            "--bench",
            "mcf",
            "--target",
            "x86-64-sysv",
            "--threads",
            "2",
        ])
        .expect("compare");
        assert!(out.contains("x86-64-sysv"));
    }

    #[test]
    fn report_is_json() {
        let out = run_capture(&["report", "--bench", "mcf", "--compact"]).expect("report");
        assert!(out.starts_with('{') && out.trim_end().ends_with('}'));
        assert!(out.contains(r#""module":"mcf""#));
        assert!(out.contains(r#""target":"pa-risc-like""#));
    }

    #[test]
    fn stress_usage_errors() {
        assert!(matches!(run_capture(&["stress"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_capture(&["stress", "--seeds", "abc"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_capture(&["stress", "--seeds", "1", "--bench", "mcf"]),
            Err(CliError::Usage(_))
        ));
        let Err(CliError::Usage(msg)) =
            run_capture(&["stress", "--seeds", "1", "--target", "pdp11"])
        else {
            panic!("expected usage error");
        };
        assert!(msg.contains("unknown target `pdp11`"));
    }

    #[test]
    fn stress_smoke_runs_and_summarizes() {
        let out =
            run_capture(&["stress", "--seeds", "2", "--target", "pa-risc-like"]).expect("stress");
        assert!(out.contains("stress: 2 cases"), "{out}");
        assert!(out.contains("0 failure(s)"), "{out}");
        // Without --exact there is no gap line.
        assert!(!out.contains("exact ["), "{out}");
    }

    #[test]
    fn stress_exact_smoke_passes_the_gap_oracle() {
        let out = run_capture(&[
            "stress",
            "--seeds",
            "2",
            "--target",
            "pa-risc-like",
            "--exact",
        ])
        .expect("stress --exact");
        assert!(out.contains("0 failure(s)"), "{out}");
        assert!(out.contains("exact [pa-risc-like]"), "{out}");
        assert!(out.contains("certified"), "{out}");
    }

    #[test]
    fn stress_drift_smoke_runs_and_summarizes() {
        let out = run_capture(&[
            "stress",
            "--seeds",
            "2",
            "--target",
            "pa-risc-like",
            "--drift",
            "--drift-steps",
            "4",
        ])
        .expect("stress --drift");
        assert!(out.contains("drift: 2 cases"), "{out}");
        assert!(out.contains("4 step(s)"), "{out}");
        // base + 4 steps per case
        assert!(out.contains("10 checks"), "{out}");
        assert!(out.contains("0 failure(s)"), "{out}");
    }

    #[test]
    fn drift_usage_errors() {
        // --drift and --exact are mutually exclusive oracles.
        assert!(matches!(
            run_capture(&["stress", "--seeds", "1", "--drift", "--exact"]),
            Err(CliError::Usage(_))
        ));
        // --drift-steps needs --drift.
        assert!(matches!(
            run_capture(&["stress", "--seeds", "1", "--drift-steps", "4"]),
            Err(CliError::Usage(_))
        ));
        // gap never accepts the drift flags.
        assert!(matches!(
            run_capture(&["gap", "--seeds", "1", "--drift"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn exit_codes_are_distinct_by_failure_class() {
        assert_eq!(CliError::Run("x".into()).exit_code(), 1);
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::Degraded("x".into()).exit_code(), 3);
    }

    #[test]
    fn on_fault_and_budget_usage_errors() {
        // Unknown policy values are rejected with the accepted list.
        let Err(CliError::Usage(msg)) =
            run_capture(&["compare", "--bench", "mcf", "--on-fault", "retry"])
        else {
            panic!("expected usage error");
        };
        assert!(msg.contains("fail") && msg.contains("degrade") && msg.contains("skip"));
        // Budgets need numbers.
        assert!(matches!(
            run_capture(&["compare", "--bench", "mcf", "--budget-ms", "soon"]),
            Err(CliError::Usage(_))
        ));
        // The fault knobs need one concrete target: the cross-target
        // report has no ledger to keep the degraded exit honest.
        assert!(matches!(
            run_capture(&[
                "compare",
                "--bench",
                "mcf",
                "--target",
                "all",
                "--on-fault",
                "degrade",
            ]),
            Err(CliError::Usage(_))
        ));
        // `stats` keeps its frozen three-run protocol: no fault knobs.
        assert!(matches!(
            run_capture(&["stats", "--bench", "mcf", "--on-fault", "degrade"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn exhausted_budget_is_exit_one_under_fail_and_exit_three_under_degrade() {
        // A zero iteration cap trips in the Chow fixpoint. Under the
        // default `fail` policy that is a pipeline failure (exit 1)...
        let err = run_capture(&[
            "compare",
            "--bench",
            "mcf",
            "--threads",
            "1",
            "--budget-iters",
            "0",
        ])
        .expect_err("cap must trip");
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("budget exceeded"), "{err}");

        // ...and under `degrade` the run completes, emits its output,
        // and exits 3 with the ledger summarized.
        let err = run_capture(&[
            "compare",
            "--bench",
            "mcf",
            "--threads",
            "1",
            "--budget-iters",
            "0",
            "--on-fault",
            "degrade",
        ])
        .expect_err("degraded success is still a non-zero exit");
        let CliError::Degraded(msg) = &err else {
            panic!("expected degraded exit: {err}");
        };
        assert_eq!(err.exit_code(), 3);
        assert!(msg.contains("contained fault(s)"), "{msg}");
    }

    #[test]
    fn usage_documents_the_exit_codes() {
        let help = run_capture(&["--help"]).expect("help");
        assert!(help.contains("exit codes:"), "{help}");
        for needle in ["0 success", "3 degraded success", "--on-fault", "--faults"] {
            assert!(help.contains(needle), "help does not mention {needle}");
        }
    }

    #[test]
    fn stress_faults_smoke_runs_and_summarizes() {
        let out = run_capture(&[
            "stress",
            "--seeds",
            "6",
            "--target",
            "pa-risc-like",
            "--faults",
        ])
        .expect("stress --faults");
        assert!(out.contains("faults: 6 cases"), "{out}");
        assert!(out.contains("0 violation(s)"), "{out}");
    }

    #[test]
    fn faults_usage_errors() {
        // --faults is its own oracle, exclusive with --drift and --exact.
        assert!(matches!(
            run_capture(&["stress", "--seeds", "1", "--faults", "--drift"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_capture(&["stress", "--seeds", "1", "--faults", "--exact"]),
            Err(CliError::Usage(_))
        ));
        // gap never accepts it.
        assert!(matches!(
            run_capture(&["gap", "--seeds", "1", "--faults"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn gap_flag_requires_exact_mode() {
        assert!(matches!(
            run_capture(&["stress", "--seeds", "1", "--gap", "10"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn gap_subcommand_usage_errors() {
        assert!(matches!(run_capture(&["gap"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_capture(&["gap", "--seeds", "1", "--exact"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn gap_subcommand_emits_the_per_target_report() {
        let out = run_capture(&["gap", "--seeds", "2", "--target", "pa-risc-like", "--json"])
            .expect("gap --json");
        for field in [
            "optimality_gap",
            "\"schema_version\"",
            "\"gap_percent\"",
            "pa-risc-like",
            "hier_jump_vs_jump_optimum",
            "max_gap_permille",
        ] {
            assert!(out.contains(field), "missing {field} in {out}");
        }
        // The human rendering is a table headed by the target column.
        let human = run_capture(&["gap", "--seeds", "1", "--target", "pa-risc-like"]).expect("gap");
        assert!(human.contains("certified"), "{human}");
        assert!(human.contains("pa-risc-like"), "{human}");
    }

    #[test]
    fn parse_errors_are_readable_with_line_numbers() {
        let dir = std::env::temp_dir().join("spillopt-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad-parse.ir");
        std::fs::write(
            &path,
            "module m\nfunc @f(0) {\nblock A:\n  v0 = frob v1, v2\n}\n",
        )
        .unwrap();
        let Err(CliError::Run(msg)) = run_capture(&["compare", "--input", path.to_str().unwrap()])
        else {
            panic!("expected run error");
        };
        // Display with the source line, not the Debug struct dump.
        assert!(msg.contains("line 4: unknown operation `frob`"), "{msg}");
        assert!(!msg.contains("ParseError"), "Debug-formatted: {msg}");
    }

    #[test]
    fn verify_errors_are_readable_with_line_numbers() {
        let dir = std::env::temp_dir().join("spillopt-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad-verify.ir");
        // Parses fine, but block B is unreachable.
        std::fs::write(
            &path,
            "module m\nfunc @f(0) {\nblock A:\n  ret\nblock B:\n  ret\n}\n",
        )
        .unwrap();
        let Err(CliError::Run(msg)) = run_capture(&["compare", "--input", path.to_str().unwrap()])
        else {
            panic!("expected run error");
        };
        assert!(msg.contains("does not verify"), "{msg}");
        assert!(msg.contains("line 5:"), "no line number: {msg}");
        assert!(msg.contains("unreachable from entry"), "{msg}");
        assert!(!msg.contains("Unreachable {"), "Debug-formatted: {msg}");
    }

    #[test]
    fn stats_renders_the_phase_table() {
        let out = run_capture(&["stats", "--bench", "mcf", "--threads", "1"]).expect("stats runs");
        assert!(out.contains("stats: mcf on pa-risc-like"), "{out}");
        for col in [
            "phase",
            "count",
            "total(ms)",
            "p50(ms)",
            "p95(ms)",
            "max(ms)",
        ] {
            assert!(out.contains(col), "missing column {col}: {out}");
        }
        assert!(out.contains("counters:"), "{out}");
        // The warm second run must have hit the session arena.
        assert!(!out.contains("arena: 0 hit(s)"), "no warm hits: {out}");
        // The third (drifted) run must have taken the incremental path
        // and reported its dirty-region ledger.
        assert!(!out.contains("/ 0 incremental /"), "no incremental: {out}");
        assert!(out.contains("dirty regions:"), "no ledger: {out}");
        assert!(
            !out.contains("dirty regions: 0 re-folded of 0"),
            "empty ledger: {out}"
        );
        assert!(
            out.contains("pool: serial (no persistent workers)"),
            "{out}"
        );
    }

    #[test]
    fn stats_usage_errors() {
        // One concrete target only, and no report-only flags.
        assert!(matches!(
            run_capture(&["stats", "--bench", "mcf", "--target", "all"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_capture(&["stats", "--bench", "mcf", "--strategy", "baseline"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_capture(&["stats", "--bench", "mcf", "--progress"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn trace_flag_is_rejected_where_it_cannot_apply() {
        // `gap` emits its own JSON record; it has no --trace.
        assert!(matches!(
            run_capture(&["gap", "--seeds", "1", "--trace", "t.json"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn cross_target_report_has_comparison_section() {
        let out = run_capture(&[
            "report",
            "--bench",
            "mcf",
            "--target",
            "all",
            "--compact",
            "--threads",
            "2",
        ])
        .expect("report");
        assert!(out.contains(r#""cross_targets":"#));
        assert!(out.contains(r#""target":"aarch64-aapcs64""#));
        assert!(out.contains(r#""best_target":"#));
    }
}
