//! One benchmark, measured: generate → optimize through the driver's
//! [`Session`](spillopt_driver::Session) (train-workload profiles,
//! Chaitin/Briggs allocation, every placement technique, validity
//! checks) → materialize each strategy with
//! [`ModuleRun::apply`](spillopt_driver::ModuleRun::apply) → execute the
//! ref workload on the interpreter → count.

use spillopt_benchgen::{build_bench, BenchSpec};
use spillopt_core::SpillCostModel;
use spillopt_driver::{OptimizerBuilder, ProfileSource, Strategy};
use spillopt_ir::{FuncId, Module, Target};
use spillopt_obs::Recording;
use spillopt_profile::{ExecCounts, Machine};
use std::time::Duration;

/// Measured outcome of one strategy on one benchmark.
#[derive(Clone, Debug, Default)]
pub struct StrategyResult {
    /// Dynamic spill-code overhead (the paper's Figure 5 metric: executed
    /// allocator spill loads/stores + callee-saved saves/restores).
    pub dynamic_overhead: u64,
    /// Executed callee-saved saves/restores only.
    pub callee_saved_overhead: u64,
    /// Executed jump-block jump instructions (not part of the Figure 5
    /// metric; the jump-edge model's subject).
    pub jump_overhead: u64,
    /// Static save/restore instructions placed.
    pub static_count: usize,
    /// Placement pass time: the session's recorder spans for the
    /// strategy's own work, summed over functions (`place_entry_exit`;
    /// `place_chow`; `place_hier_seed` plus `place_hier_exec` or
    /// `place_hier_jump`). The recorder is process-wide, so a placement
    /// running on another thread meanwhile would be counted too.
    pub pass_time: Duration,
}

/// Measured outcome of one benchmark across all strategies.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Results per strategy, in [`Strategy::all`] order.
    pub strategies: Vec<(Strategy, StrategyResult)>,
    /// Functions that used at least one callee-saved register.
    pub funcs_with_callee_saved: usize,
    /// Total functions.
    pub funcs: usize,
    /// Static module size (instructions) after allocation, before
    /// placement.
    pub module_insts: usize,
    /// Workload scale multiplier (applied to the reported overheads).
    pub scale: u64,
}

impl BenchResult {
    /// Result of one strategy.
    pub fn of(&self, s: Strategy) -> &StrategyResult {
        &self
            .strategies
            .iter()
            .find(|(x, _)| *x == s)
            .expect("strategy present")
            .1
    }

    /// The paper's Table 1 ratio: strategy overhead / baseline overhead
    /// (1.0 when the baseline overhead is zero — no callee-saved use, as
    /// in mcf).
    pub fn ratio(&self, s: Strategy) -> f64 {
        let base = self.of(Strategy::Baseline).dynamic_overhead;
        if base == 0 {
            1.0
        } else {
            self.of(s).dynamic_overhead as f64 / base as f64
        }
    }
}

/// Errors from the pipeline (all indicate bugs, not input conditions; the
/// harness surfaces them instead of panicking so the repro binary can
/// report which benchmark failed).
#[derive(Debug)]
pub struct PipelineError {
    /// Benchmark name.
    pub bench: String,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.bench, self.message)
    }
}

impl std::error::Error for PipelineError {}

/// Runs the measured pipeline for one benchmark spec, with the placement
/// decisions priced by `costs` (the measured overheads stay what the
/// interpreter counts — only the placement choices change;
/// [`SpillCostModel::UNIT`] reproduces the paper's PA-RISC accounting).
///
/// The placements are the ones `spillopt optimize` ships: one serial
/// session optimizes the module once, and each strategy's module is
/// that run's [`ModuleRun::apply`](spillopt_driver::ModuleRun::apply).
/// The session rejects invalid placements and `apply` verifies every
/// emitted function; this adds the interpreter's verdict that program
/// behaviour is unchanged.
///
/// # Errors
///
/// Returns [`PipelineError`] if any stage fails or any strategy changes
/// program behaviour.
pub fn run_benchmark(
    spec: &BenchSpec,
    target: &Target,
    costs: &SpillCostModel,
) -> Result<BenchResult, PipelineError> {
    let bench = build_bench(spec, target);
    let fail = |message: String| PipelineError {
        bench: bench.name.clone(),
        message,
    };

    let (reference, _) = execute_counted(&bench.module, target, &bench.ref_runs)
        .map_err(|e| fail(format!("ref run failed: {e}")))?;

    let session = OptimizerBuilder::new()
        .target(target.clone())
        .cost_model(*costs)
        .threads(1)
        .profile(ProfileSource::Workload(bench.train_runs))
        .build()
        .map_err(|e| fail(e.to_string()))?;
    // A one-thread session runs on this thread, and the SCCs and PST are
    // computed before the placement spans open, so the spans time each
    // technique's incremental work on analyses the compiler has anyway.
    let recording = Recording::start();
    let run = session.optimize(&bench.module);
    let phases = recording.finish().metrics().phases;
    let run = run.map_err(|e| fail(e.to_string()))?;
    let span = |name: &str| {
        let ns = phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.total_ns);
        Duration::from_nanos(ns)
    };

    let mut strategies = Vec::new();
    for strategy in Strategy::all() {
        let (outputs, counts) =
            execute_counted(&run.apply(Some(strategy)), target, &bench.ref_runs)
                .map_err(|e| fail(format!("{}: execution failed: {e}", strategy.name())))?;
        if outputs != reference {
            return Err(fail(format!(
                "{}: program behaviour changed",
                strategy.name()
            )));
        }
        let pass_time = match strategy {
            Strategy::Baseline => span("place_entry_exit"),
            Strategy::Shrinkwrap => span("place_chow"),
            Strategy::HierExec => span("place_hier_seed") + span("place_hier_exec"),
            Strategy::HierJump => span("place_hier_seed") + span("place_hier_jump"),
        };
        strategies.push((
            strategy,
            StrategyResult {
                dynamic_overhead: counts.spill_code_overhead() * bench.scale,
                callee_saved_overhead: counts.callee_save_overhead() * bench.scale,
                jump_overhead: counts.jump_block_jumps * bench.scale,
                static_count: run
                    .report
                    .functions
                    .iter()
                    .filter_map(|f| f.strategy(strategy))
                    .map(|s| s.static_count)
                    .sum(),
                pass_time,
            },
        ));
    }

    Ok(BenchResult {
        name: bench.name.clone(),
        strategies,
        funcs_with_callee_saved: run.report.placed_functions(),
        funcs: bench.module.num_funcs(),
        module_insts: run.report.functions.iter().map(|f| f.insts).sum(),
        scale: bench.scale,
    })
}

/// Executes a workload and returns outputs plus dynamic counters.
fn execute_counted(
    module: &Module,
    target: &Target,
    runs: &[(FuncId, Vec<i64>)],
) -> Result<(Vec<i64>, ExecCounts), spillopt_profile::ExecError> {
    let mut m = Machine::new(module, target);
    m.set_fuel(1 << 30);
    let mut out = Vec::with_capacity(runs.len());
    for (f, args) in runs {
        out.push(m.call(*f, args)?);
    }
    Ok((out, m.counts().clone()))
}

/// Convenience: generate and run one named benchmark under the paper's
/// unit cost model.
///
/// # Panics
///
/// Panics on unknown benchmark names.
pub fn run_named_benchmark(name: &str, target: &Target) -> Result<BenchResult, PipelineError> {
    let spec = spillopt_benchgen::benchmark_by_name(name)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
    run_benchmark(&spec, target, &SpillCostModel::UNIT)
}
