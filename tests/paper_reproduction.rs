//! Workspace-level reproduction checks: the paper's analytical results,
//! exercised through the public crate APIs the way a downstream user
//! would.

use spillopt_core::{
    chow_shrink_wrap, entry_exit_placement, fig1_example, hierarchical_placement, paper_example,
    placement_model_cost, Cost, CostModel, EdgeShares,
};
use spillopt_pst::Pst;

#[test]
fn figure2_headline_numbers() {
    let ex = paper_example();
    let pst = Pst::compute(&ex.cfg);
    let cost = |p: &spillopt_core::Placement| {
        placement_model_cost(
            CostModel::ExecutionCount,
            &ex.cfg,
            &ex.profile,
            p,
            &EdgeShares::none(),
        )
    };
    assert_eq!(
        cost(&entry_exit_placement(&ex.cfg, &ex.usage)),
        Cost::from_count(200)
    );
    assert_eq!(
        cost(&chow_shrink_wrap(&ex.cfg, &ex.usage)),
        Cost::from_count(250)
    );
    let exec = hierarchical_placement(
        &ex.cfg,
        &pst,
        &ex.usage,
        &ex.profile,
        CostModel::ExecutionCount,
    );
    assert_eq!(cost(&exec.placement), Cost::from_count(190));
    let jump = hierarchical_placement(&ex.cfg, &pst, &ex.usage, &ex.profile, CostModel::JumpEdge);
    assert_eq!(jump.placement, entry_exit_placement(&ex.cfg, &ex.usage));
}

#[test]
fn figure1_crossover_depends_on_profile() {
    // The paper's Figure 1 point: with both arms shaded, shrink-wrapping
    // beats entry/exit iff the shaded blocks execute rarely enough.
    let entry = 100u64;
    let cost_of = |busy: u64| {
        let ex = fig1_example(entry, busy);
        let sw = chow_shrink_wrap(&ex.cfg, &ex.usage);
        let ee = entry_exit_placement(&ex.cfg, &ex.usage);
        let eval = |p: &spillopt_core::Placement| {
            placement_model_cost(
                CostModel::ExecutionCount,
                &ex.cfg,
                &ex.profile,
                p,
                &EdgeShares::none(),
            )
        };
        (eval(&sw), eval(&ee))
    };
    // Cold arms: shrink-wrapping wins.
    let (sw, ee) = cost_of(10);
    assert!(sw < ee, "{sw:?} vs {ee:?}");
    // Hot arms (both execute half the time): shrink-wrapping loses or
    // ties; each arm costs 2*50 and entry/exit costs 200.
    let (sw, ee) = cost_of(50);
    assert!(sw >= ee, "{sw:?} vs {ee:?}");
    // The hierarchical algorithm with a profile picks the better of the
    // two every time.
    for busy in [0, 10, 25, 50] {
        let ex = fig1_example(entry, busy);
        let pst = Pst::compute(&ex.cfg);
        let hier = hierarchical_placement(
            &ex.cfg,
            &pst,
            &ex.usage,
            &ex.profile,
            CostModel::ExecutionCount,
        );
        let eval = |p: &spillopt_core::Placement| {
            placement_model_cost(
                CostModel::ExecutionCount,
                &ex.cfg,
                &ex.profile,
                p,
                &EdgeShares::none(),
            )
        };
        let h = eval(&hier.placement);
        let (sw, ee) = cost_of(busy);
        assert!(h <= sw && h <= ee, "busy={busy}: {h:?} vs {sw:?}/{ee:?}");
    }
}

#[test]
fn walkthrough_experiment_renders() {
    // The harness's textual walkthrough (`repro fig2`), byte for byte:
    // the paper's numbers and every traced region decision.
    let out = spillopt_harness::experiments::fig2_walkthrough();
    assert_eq!(out, include_str!("golden/fig2_walkthrough.txt"));
}

#[test]
fn paper_tables_render() {
    // Figure 5, Table 1, the guarantee summary over all eleven
    // benchmarks, and Table 1's ratios across every registered target
    // (`repro fig5`, `repro table1`, `repro targets crafty`), byte for
    // byte. Every number is an interpreter count on the placed module,
    // so the text pins what the measured pipeline places.
    use spillopt_harness::experiments;
    let results =
        experiments::run_all_benchmarks(&spillopt_ir::Target::default()).expect("pipeline");
    let crafty = experiments::cross_target("crafty").expect("pipeline");
    let out = format!(
        "{}\n{}\n{}\n{}",
        experiments::fig5(&results),
        experiments::table1(&results),
        experiments::guarantee_summary(&results),
        crafty.render()
    );
    assert_eq!(out, include_str!("golden/paper_tables.txt"));
}
