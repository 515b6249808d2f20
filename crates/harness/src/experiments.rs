//! The experiments: one per table and figure of the paper.

use crate::report::{pct, Table};
use crate::runner::{run_benchmark, BenchResult, PipelineError};
use spillopt_benchgen::all_benchmarks;
use spillopt_core::SpillCostModel;
use spillopt_core::{
    chow_shrink_wrap, entry_exit_placement, fig1_example, hierarchical_placement, paper_example,
    placement_model_cost, CostModel, EdgeShares,
};
use spillopt_driver::Strategy;
use spillopt_ir::Target;
use spillopt_pst::Pst;

/// The paper's Table 1 reference values: (benchmark, optimized/baseline,
/// shrinkwrap/baseline).
pub const PAPER_TABLE1: [(&str, f64, f64); 11] = [
    ("gzip", 0.830, 1.026),
    ("vpr", 0.995, 1.000),
    ("gcc", 0.596, 0.939),
    ("mcf", 1.000, 1.000),
    ("crafty", 0.440, 0.933),
    ("parser", 0.858, 0.990),
    ("perlbmk", 0.897, 0.996),
    ("gap", 0.885, 0.954),
    ("vortex", 0.988, 1.000),
    ("bzip2", 0.902, 1.005),
    ("twolf", 0.939, 1.080),
];

/// The paper's Table 2 reference values: (benchmark, shrink-wrap
/// incremental seconds, optimized incremental seconds, ratio).
pub const PAPER_TABLE2: [(&str, f64, f64, f64); 11] = [
    ("gzip", 0.42, 2.2, 5.24),
    ("vpr", 0.59, 4.74, 8.03),
    ("gcc", 115.10, 269.02, 2.34),
    ("mcf", 0.05, 0.24, 4.8),
    ("crafty", 0.34, 1.15, 3.38),
    ("parser", 1.04, 8.40, 8.08),
    ("perlbmk", 15.8, 62.99, 3.99),
    ("gap", 10.51, 64.67, 6.15),
    ("vortex", 5.23, 40.68, 7.78),
    ("bzip2", 0.50, 3.70, 7.40),
    ("twolf", 2.88, 7.58, 2.63),
];

/// Runs all eleven benchmarks (expensive; the repro binary caches the
/// result across table printers).
///
/// # Errors
///
/// Propagates the first pipeline failure.
pub fn run_all_benchmarks(target: &Target) -> Result<Vec<BenchResult>, PipelineError> {
    all_benchmarks()
        .iter()
        .map(|spec| run_benchmark(spec, target, &SpillCostModel::UNIT))
        .collect()
}

/// Runs one benchmark on every registered backend target and measures
/// the paper's Table 1 ratios per target — the cross-target evaluation
/// the paper's single-machine setup could not produce. Each target gets
/// its own module build (the generated code lowers against the target's
/// convention) and its own cost-model-driven placement decisions.
///
/// # Errors
///
/// Propagates the first pipeline failure.
pub fn cross_target(name: &str) -> Result<Table, PipelineError> {
    let spec = spillopt_benchgen::benchmark_by_name(name).ok_or_else(|| PipelineError {
        bench: name.to_string(),
        message: "unknown benchmark".to_string(),
    })?;
    let mut t = Table::new(vec![
        "target",
        "callee-saved",
        "pair",
        "optimized/baseline",
        "shrinkwrap/baseline",
        "optimized overhead",
    ]);
    for tspec in spillopt_targets::registry() {
        let target = tspec.to_target();
        let r = run_benchmark(&spec, &target, &tspec.costs)?;
        t.row(vec![
            tspec.name.to_string(),
            tspec.callee_saved.len().to_string(),
            tspec.costs.pair_size.to_string(),
            pct(r.ratio(Strategy::HierJump)),
            pct(r.ratio(Strategy::Shrinkwrap)),
            r.of(Strategy::HierJump).dynamic_overhead.to_string(),
        ]);
    }
    Ok(t)
}

/// Figure 1: whether shrink-wrapping beats entry/exit depends purely on
/// the profile. Sweeps the shaded blocks' execution count and reports the
/// crossover.
pub fn fig1() -> String {
    let mut t = Table::new(vec![
        "busy-arm count",
        "entry/exit cost",
        "shrink-wrap cost",
        "winner",
    ]);
    let entry = 100u64;
    for busy in [0u64, 10, 25, 50] {
        let ex = fig1_example(entry, busy);
        let ee = entry_exit_placement(&ex.cfg, &ex.usage);
        let sw = chow_shrink_wrap(&ex.cfg, &ex.usage);
        let cost = |p: &spillopt_core::Placement| {
            placement_model_cost(
                CostModel::ExecutionCount,
                &ex.cfg,
                &ex.profile,
                p,
                &EdgeShares::none(),
            )
        };
        let (ce, cs) = (cost(&ee), cost(&sw));
        t.row(vec![
            busy.to_string(),
            ce.to_string(),
            cs.to_string(),
            if cs < ce {
                "shrink-wrap".to_string()
            } else if cs == ce {
                "tie".to_string()
            } else {
                "entry/exit".to_string()
            },
        ]);
    }
    format!(
        "Figure 1 — shrink-wrapping vs entry/exit crossover\n\
         (diamond with both arms shaded; procedure entered {entry} times;\n\
         the paper: shrink-wrapping wins only when the average shaded-block\n\
         count is below the procedure entry count)\n\n{}",
        t.render()
    )
}

/// Figures 2-4: the worked example, traced region by region under both
/// cost models.
pub fn fig2_walkthrough() -> String {
    let ex = paper_example();
    let pst = Pst::compute(&ex.cfg);
    let mut out = String::new();
    out.push_str("Figures 2-4 — the paper's worked example (blocks A..P)\n\n");

    let cost = |p: &spillopt_core::Placement| {
        placement_model_cost(
            CostModel::ExecutionCount,
            &ex.cfg,
            &ex.profile,
            p,
            &EdgeShares::none(),
        )
    };
    let ee = entry_exit_placement(&ex.cfg, &ex.usage);
    let sw = chow_shrink_wrap(&ex.cfg, &ex.usage);
    out.push_str(&format!(
        "entry/exit placement cost: {} (paper: 200)\n",
        cost(&ee)
    ));
    out.push_str(&format!(
        "Chow shrink-wrapping cost:  {} (paper: 250 — worse than entry/exit)\n\n",
        cost(&sw)
    ));

    for (model, label, paper) in [
        (
            CostModel::ExecutionCount,
            "execution count model (Figure 4a)",
            "final sets 1, 2, 5 — cost 190",
        ),
        (
            CostModel::JumpEdge,
            "jump edge model (Figure 4b)",
            "tie at 200 — save in A, restore in P",
        ),
    ] {
        let res = hierarchical_placement(&ex.cfg, &pst, &ex.usage, &ex.profile, model);
        out.push_str(&format!("--- hierarchical, {label} ---\n"));
        let mut t = Table::new(vec!["region", "blocks", "contained", "boundary", "action"]);
        for ev in &res.trace {
            let region = pst.region(ev.region);
            let blocks: String = region
                .blocks
                .iter()
                .map(|b| {
                    ex.func
                        .block(spillopt_ir::BlockId::from_index(b))
                        .name
                        .clone()
                        .unwrap_or_default()
                })
                .collect();
            t.row(vec![
                ev.region.to_string(),
                blocks,
                ev.contained_cost.to_string(),
                ev.boundary_cost.to_string(),
                if ev.replaced { "replace" } else { "keep" }.to_string(),
            ]);
        }
        out.push_str(&t.render());
        let total = placement_model_cost(
            model,
            &ex.cfg,
            &ex.profile,
            &res.placement,
            &EdgeShares::none(),
        );
        out.push_str(&format!("final cost {total}   (paper: {paper})\n\n"));
    }
    out
}

/// Figure 5: total dynamic spill-code overhead per benchmark for the
/// three placements (absolute counts; the measured analog of the paper's
/// bar chart).
pub fn fig5(results: &[BenchResult]) -> String {
    let mut t = Table::new(vec![
        "benchmark",
        "baseline",
        "shrinkwrap",
        "optimized",
        "optimized-exec*",
        "jump-insts(opt)",
    ]);
    for r in results {
        t.row(vec![
            r.name.clone(),
            r.of(Strategy::Baseline).dynamic_overhead.to_string(),
            r.of(Strategy::Shrinkwrap).dynamic_overhead.to_string(),
            r.of(Strategy::HierJump).dynamic_overhead.to_string(),
            r.of(Strategy::HierExec).dynamic_overhead.to_string(),
            r.of(Strategy::HierJump).jump_overhead.to_string(),
        ]);
    }
    format!(
        "Figure 5 — dynamic spill code overhead (executed spill loads/stores\n\
         plus callee-saved saves/restores, scaled by the workload multiplier)\n\
         *ablation: execution-count model, not in the paper's figure\n\n{}",
        t.render()
    )
}

/// Table 1: overhead ratios relative to the baseline, with the paper's
/// numbers alongside.
pub fn table1(results: &[BenchResult]) -> String {
    let mut t = Table::new(vec![
        "benchmark",
        "optimized/baseline",
        "paper",
        "shrinkwrap/baseline",
        "paper",
    ]);
    let mut sum_opt = 0.0;
    let mut sum_sw = 0.0;
    for r in results {
        let paper = PAPER_TABLE1
            .iter()
            .find(|(n, _, _)| *n == r.name)
            .copied()
            .unwrap_or((/*name*/ "", f64::NAN, f64::NAN));
        let opt = r.ratio(Strategy::HierJump);
        let sw = r.ratio(Strategy::Shrinkwrap);
        sum_opt += opt;
        sum_sw += sw;
        t.row(vec![
            r.name.clone(),
            pct(opt),
            pct(paper.1),
            pct(sw),
            pct(paper.2),
        ]);
    }
    let n = results.len() as f64;
    t.row(vec![
        "Average".to_string(),
        pct(sum_opt / n),
        pct(0.848),
        pct(sum_sw / n),
        pct(0.993),
    ]);
    format!(
        "Table 1 — dynamic spill code overhead ratios vs entry/exit baseline\n\
         (paper columns: values from the original evaluation)\n\n{}",
        t.render()
    )
}

/// Table 2: incremental placement-pass time of shrink-wrapping vs the
/// hierarchical algorithm, as the recorder spans of each benchmark's
/// optimizing session measured it ([`crate::runner::StrategyResult::pass_time`]).
pub fn table2(results: &[BenchResult]) -> String {
    let mut t = Table::new(vec![
        "benchmark",
        "shrinkwrap (µs)",
        "optimized (µs)",
        "ratio",
        "paper ratio",
    ]);
    let mut sum_ratio = 0.0;
    let mut counted = 0usize;
    for r in results {
        let base = r.of(Strategy::Baseline).pass_time;
        let sw = r.of(Strategy::Shrinkwrap).pass_time.saturating_sub(base);
        let opt = r.of(Strategy::HierJump).pass_time.saturating_sub(base);
        let ratio = if sw.as_nanos() > 0 {
            opt.as_secs_f64() / sw.as_secs_f64()
        } else {
            f64::NAN
        };
        if ratio.is_finite() {
            sum_ratio += ratio;
            counted += 1;
        }
        let paper = PAPER_TABLE2
            .iter()
            .find(|(n, ..)| *n == r.name)
            .map(|x| x.3)
            .unwrap_or(f64::NAN);
        t.row(vec![
            r.name.clone(),
            format!("{:.1}", sw.as_secs_f64() * 1e6),
            format!("{:.1}", opt.as_secs_f64() * 1e6),
            format!("{ratio:.2}"),
            format!("{paper:.2}"),
        ]);
    }
    let avg = if counted > 0 {
        sum_ratio / counted as f64
    } else {
        f64::NAN
    };
    format!(
        "Table 2 — incremental placement-pass time vs entry/exit placement\n\
         (the paper reports whole-compiler incremental seconds on an HP C3000;\n\
         we sum the optimizing session's recorder spans per function —\n\
         shrinkwrap = place_chow, optimized = place_hier_seed + place_hier_jump,\n\
         each minus place_entry_exit; SCCs and the PST are computed before\n\
         those spans open, outside every technique's time — so the comparable\n\
         number is the ratio: paper average 5.44)\n\n{}\nmeasured average ratio: {avg:.2}\n",
        t.render()
    )
}

/// Sanity summary: the paper's guarantee checked on every benchmark.
pub fn guarantee_summary(results: &[BenchResult]) -> String {
    let mut lines = Vec::new();
    for r in results {
        let base = r.of(Strategy::Baseline).dynamic_overhead;
        let sw = r.of(Strategy::Shrinkwrap).dynamic_overhead;
        let opt = r.of(Strategy::HierJump).dynamic_overhead;
        let ok = opt <= base && opt <= sw;
        lines.push(format!(
            "{:>8}: optimized {} ≤ min(baseline {}, shrinkwrap {}) — {}",
            r.name,
            opt,
            base,
            sw,
            if ok { "ok" } else { "VIOLATED" }
        ));
    }
    format!(
        "Guarantee — optimized never exceeds shrink-wrapping or entry/exit\n\n{}\n",
        lines.join("\n")
    )
}
