//! The benchmark's self-test: tiny runs of every workload, a
//! non-vacuity check on the correctness gate, the printed metric names
//! against `BENCHMARK.json`, and exact repetition of the deterministic
//! counts under one seed.

use perfbench::{run, Config, Outcome, Size, Workload};
use std::path::PathBuf;

fn tiny(workload: Workload, seed: u64, trace: bool) -> Config {
    let mut config = Config::new(workload, seed, 0.05, trace);
    config.size = Size::Tiny;
    config.setup_reps = 1;
    config
}

fn run_ok(config: &Config) -> Outcome {
    let out = run(config).unwrap_or_else(|e| panic!("{config:?}: {e}"));
    assert!(out.correct, "{config:?}: {:?}", out.lines);
    assert_eq!(out.failed, 0, "{config:?}");
    assert!(out.attempted > 0, "{config:?}");
    out
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closing quote");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn printed(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_runs_clean_and_prints_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in Workload::ALL {
        let out = run_ok(&tiny(workload, 1, false));
        assert_eq!(printed(&out), end_to_end, "{}", workload.name());
        let json = out.json();
        assert!(
            json.starts_with("{\"correct\":true,\"attempted\":"),
            "{json}"
        );

        let out = run_ok(&tiny(workload, 1, true));
        assert_eq!(printed(&out), per_layer, "{}", workload.name());
        assert_eq!(out.metric("error_rate"), Some(0.0));
    }
}

#[test]
fn a_corrupted_report_raises_the_error_rate() {
    let mut config = tiny(Workload::Cold, 3, false);
    config.corrupt = true;
    let out = run(&config).expect("runs");
    assert!(!out.correct);
    assert!(out.failed > 0 && out.failed < out.attempted);
}

#[test]
fn the_traced_layer_sum_closes_to_the_session_mean() {
    let out = run_ok(&tiny(Workload::Cold, 2, true));
    let m = |name: &str| out.metric(name).unwrap_or_else(|| panic!("{name}"));
    let on_path: f64 = perfbench::replay::ON_PATH
        .iter()
        .map(|span| m(&format!("{span}_us")))
        .sum();
    let total = on_path + m("driver.overhead_us");
    let mean = m("bench.session_mean_us");
    assert!(
        (total - mean).abs() <= 1e-6 * mean.max(1.0),
        "{total} vs {mean}"
    );
    assert!(m("regalloc.allocate_us") > 0.0 && m("core.memoize_us") > 0.0);
}

#[test]
fn deterministic_counts_repeat_under_one_seed() {
    const COUNTS: [&str; 13] = [
        "ir.blocks",
        "ir.insts",
        "regalloc.rounds",
        "regalloc.spilled_vregs",
        "pst.regions",
        "profile.changed_edges",
        "core.regions_refolded",
        "core.regions_total",
        "driver.arena_hits",
        "driver.arena_misses",
        "driver.arena_incremental",
        "driver.arena_entries",
        "driver.arena_hit_ratio",
    ];
    for workload in [Workload::Cold, Workload::Drift] {
        let a = run_ok(&tiny(workload, 5, true));
        let b = run_ok(&tiny(workload, 5, true));
        for name in COUNTS {
            assert_eq!(a.metric(name), b.metric(name), "{} {name}", workload.name());
        }
        let ratio = |c: &Config| run_ok(c).metric("spill_cost_ratio");
        let config = tiny(workload, 5, false);
        assert_eq!(ratio(&config), ratio(&config), "{}", workload.name());
    }
    let drift = run_ok(&tiny(Workload::Drift, 5, true));
    assert!(drift.metric("driver.arena_incremental") > Some(0.0));
    assert!(drift.metric("core.regions_total") > Some(0.0));
}
