//! Minimized counterexamples found by the differential stress subsystem
//! (`spillopt-stress`), checked in as regressions.
//!
//! Each case is a module the random-CFG generator produced (and the
//! minimizer reduced) that exposed a bug — or, for the optimality-gap
//! case at the bottom, a measured limitation — in this crate; the fix
//! (or the open gap) is described at the test. Every case re-runs the
//! full oracle battery — semantic equivalence under the interpreter,
//! model fidelity (predicted save/restore/jump counts vs measured), the
//! never-worse guarantee, and the exact-optimum gap check — plus
//! targeted assertions on the behaviour in question.

use spillopt_core::{
    check_placement, entry_exit_placement, insert_placement, run_suite, run_suite_incremental,
    run_suite_memoized, CalleeSavedUsage, CostModel, Placement, SuiteInputs, SuiteOptions,
};
use spillopt_exact::{solve_exact, ExactLimits};
use spillopt_ir::{parse_module, Cfg, FuncId, Module, RegDiscipline};
use spillopt_regalloc::allocate;
use spillopt_stress::{check_case, check_case_with, ExactOptions};

/// Stress seed 0 (pa-risc-like), minimized by hand to the trigger: a
/// **back edge into the entry block**. Entry/exit placement puts every
/// save at `top(entry)`; before the fix that save re-executed on each
/// loop iteration, overwriting the caller's saved value with the
/// function's working value — `check_placement` flagged it as an
/// inconsistent merge and the whole suite panicked. The fix gives
/// `BlockTop(entry)` once-per-call semantics: the validator models it as
/// a virtual pre-entry transition, the insertion pass realizes it in a
/// fresh header block above the loop, the cost models price it by the
/// entry count, and edges into the entry block count the procedure
/// entry as an implicit predecessor (they can never sink code into the
/// entry's top).
const ENTRY_LOOP: &str = "\
module entry_loop
func @f0(0) {
  frame 1
  vregs 4
block entry:
  v0 = li 7
  v1 = load.data slot0
  v1 = add v1, 1
  store.data v1, slot0
  v2 = li 4
  r0 = call ext:1()
  v3 = mov r0
  v0 = xor v0, v3
  br lt v1, v2, entry, exit
block exit:
  r0 = mov v0
  ret r0
}
";

/// Stress seed 394 (riscv64-lp64 and aarch64-aapcs64), minimized by the
/// stress minimizer: the **modified** shrink-wrapping's initial sets
/// (per-path restores behind a shared handler) cost more than Chow's
/// original placement (one shared late restore), and the hierarchical
/// traversal — which can only replace sets at region boundaries — could
/// not recover, ending dynamically *worse than Chow* (28 vs 26 under
/// unit pricing). Fixed by the final group-wise comparison in
/// `hierarchical_placement_seeded`: the traversal's result is compared
/// against both entry/exit and Chow under the physically accurate
/// accounting, on every cost model, and the cheapest wins.
const MODIFIED_WORSE_THAN_CHOW: &str = "\
module stress394
func @f0(2) {
  frame 0
  vregs 33
block entry:
  v0 = mov r0
  v1 = mov r1
  v2 = li 118430
  v1 = shr v1, 11
  v3 = and v1, 15
  v4 = li 14
  br ge v3, v4, bb4, bb3
block bb3:
  v5 = and v0, 63
  v6 = li 1
  br lt v5, v6, handler0, bb6
block bb6:
  v7 = li 0
  v8 = li 2
block bb7:
  br ge v7, v8, bb9, bb8
block bb8:
  v9 = and v1, 63
  v10 = li 1
  br lt v9, v10, bb9, bb10
block bb10:
  r0 = mov v1
  r1 = mov v1
  r0 = call ext:0(r0, r1)
  v7 = add v7, 1
  jmp bb7
block bb9:
  jmp bb5
block bb4:
  v12 = and v1, 15
  v13 = li 1
  br lt v12, v13, epilogue, bb11
block bb11:
  v15 = and v2, 15
  v16 = li 1
  br lt v15, v16, handler0, bb12
block bb12:
  v17 = and v1, 15
  v18 = li 1
  br lt v17, v18, epilogue, bb13
block bb13:
block bb5:
  v19 = and v1, 15
  v20 = li 14
  br ge v19, v20, bb15, bb14
block bb14:
  jmp bb16
block bb15:
  v21 = and v0, 15
  v22 = li 1
  br lt v21, v22, handler0, bb17
block bb17:
block bb16:
  v23 = and v0, 15
  v24 = li 8
  br ge v23, v24, bb19, bb18
block bb18:
  v25 = and v0, 127
  v26 = li 1
  br lt v25, v26, handler0, bb20
block bb20:
block bb19:
  v27 = and v0, 15
  v28 = li 8
  br ge v27, v28, bb22, bb21
block bb21:
  v29 = and v0, 127
  v30 = li 1
  br lt v29, v30, handler0, bb23
block bb23:
block bb22:
  jmp bb24
block handler0:
  jmp epilogue
block bb24:
block epilogue:
  v31 = xor v0, v1
  v32 = xor v31, v2
  r0 = mov v32
  ret r0
}
";

fn parse(text: &str) -> Module {
    let m = parse_module(text).expect("regression module parses");
    let errs = spillopt_ir::verify_module(&m, RegDiscipline::Virtual);
    assert!(errs.is_empty(), "regression module invalid: {errs:?}");
    m
}

#[test]
fn entry_loop_passes_all_oracles() {
    let module = parse(ENTRY_LOOP);
    let runs = vec![(FuncId::from_index(0), vec![])];
    for spec in spillopt_targets::registry() {
        check_case(&module, &runs, &spec)
            .unwrap_or_else(|e| panic!("entry-loop oracles on {}: {e}", spec.name));
    }
}

#[test]
fn entry_loop_placement_is_valid_and_realized_above_the_loop() {
    let module = parse(ENTRY_LOOP);
    let target = spillopt_ir::Target::default();
    let mut func = module.func(FuncId::from_index(0)).clone();
    allocate(&mut func, &target, None);
    let cfg = Cfg::compute(&func);
    let usage = CalleeSavedUsage::from_function(&func, &cfg, &target);
    assert!(!usage.is_empty(), "a value crosses the call");

    // The back edge into the entry is critical even with one explicit
    // predecessor: the procedure entry is an implicit second one.
    let back = cfg
        .edge_ids()
        .find(|&e| cfg.edge(e).to == cfg.entry())
        .expect("back edge to entry");
    assert!(cfg.is_critical(back));

    // Entry/exit placement validates (the original panic) ...
    let placement = entry_exit_placement(&cfg, &usage);
    assert_eq!(check_placement(&cfg, &usage, &placement), vec![]);

    // ... and insertion realizes the entry saves in a fresh header block
    // above the loop: the new layout head has no predecessors and falls
    // through into the old entry.
    let blocks_before = func.num_blocks();
    let report = insert_placement(&mut func, &cfg, &placement);
    assert!(report.new_blocks >= 1, "entry must be split");
    assert!(func.num_blocks() > blocks_before);
    let new_cfg = Cfg::compute(&func);
    assert_eq!(new_cfg.num_preds(new_cfg.entry()), 0);
    assert!(spillopt_ir::verify_function(&func, RegDiscipline::Physical).is_empty());
}

#[test]
fn hierarchical_is_never_worse_than_chow_on_the_394_module() {
    let module = parse(MODIFIED_WORSE_THAN_CHOW);
    let runs = vec![
        (FuncId::from_index(0), vec![-16439, 302436]),
        (FuncId::from_index(0), vec![426964, -393359]),
    ];
    // The module reads r0/r1 as its two arguments, which only matches
    // conventions whose first argument register is the return register
    // (RISC-V a0, AArch64 x0) — the targets the fuzzer caught it on.
    for name in ["riscv64-lp64", "aarch64-aapcs64"] {
        let spec = spillopt_targets::spec_by_name(name).expect("registered");
        let target = spec.try_to_target().expect("valid");

        // Full oracle battery (includes the never-worse check).
        check_case(&module, &runs, &spec).unwrap_or_else(|e| panic!("394 oracles on {name}: {e}"));

        // Targeted: reproduce the suite and assert the ordering that
        // used to fail: hier-jump <= chow and <= entry/exit.
        let mut vm = spillopt_profile::Machine::new(&module, &target);
        vm.set_fuel(1 << 28);
        for (f, args) in &runs {
            vm.call(*f, args).expect("reference run");
        }
        let profile = vm.edge_profile(FuncId::from_index(0));
        drop(vm);
        let mut func = module.func(FuncId::from_index(0)).clone();
        allocate(&mut func, &target, Some(&profile));
        let cfg = Cfg::compute(&func);
        let usage = CalleeSavedUsage::from_function(&func, &cfg, &target);
        assert!(!usage.is_empty());
        let inputs = SuiteInputs::compute(&cfg, &usage, &profile);
        let suite = run_suite(&cfg, &inputs, &SuiteOptions::priced(spec.costs))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let [entry_exit, chow, _, hier_jump] = suite.predicted;
        assert!(
            hier_jump <= chow,
            "{name}: hier-jump {hier_jump:?} worse than chow {chow:?}"
        );
        assert!(
            hier_jump <= entry_exit,
            "{name}: hier-jump {hier_jump:?} worse than entry/exit {entry_exit:?}"
        );
    }
}

/// Drift-regression slot: minimized counterexamples from `spillopt
/// stress --drift` (a warm session's incremental re-fold diverging from
/// the cold oracle) land here, replayed at the core level —
/// `run_suite_incremental` against `run_suite` over the same analyses
/// under the recorded profile drift. No divergence has been caught to
/// date; the exemplar below drives the entry-loop module (above, with
/// its critical back edge into the entry block) through the drift kinds
/// the fuzzer mutates — zero delta, entry bump, back-edge bump, full
/// re-weight — and pins the placement-level agreement the fuzzer
/// enforces byte-for-byte end to end.
#[test]
fn entry_loop_incremental_refold_matches_cold_under_drift() {
    let module = parse(ENTRY_LOOP);
    let target = spillopt_ir::Target::default();
    let mut func = module.func(FuncId::from_index(0)).clone();
    allocate(&mut func, &target, None);
    let cfg = Cfg::compute(&func);
    let usage = CalleeSavedUsage::from_function(&func, &cfg, &target);
    assert!(!usage.is_empty(), "a value crosses the call");
    let cyclic = spillopt_ir::analysis::loops::sccs(&cfg);
    let pst = spillopt_pst::Pst::compute(&cfg);
    let derived = spillopt_ir::DerivedCfg::compute(&cfg);
    let opts = SuiteOptions::default();

    let base = spillopt_profile::random_walk_profile(&cfg, 64, 128, 7);
    let inputs = SuiteInputs::analyzed(&usage, &base, &cyclic, &pst, &derived);
    let (_, mut memo) = run_suite_memoized(&cfg, &inputs, &opts).expect("memoized fold");

    let back = cfg
        .edge_ids()
        .find(|&e| cfg.edge(e).to == cfg.entry())
        .expect("back edge to entry");
    let mut prev = base;
    for step in 0..4u64 {
        let mut counts = prev.edge_counts().to_vec();
        let mut entry = prev.entry_count();
        match step {
            0 => {}
            1 => entry += 5,
            2 => counts[back.index()] += 100,
            _ => {
                for (i, c) in counts.iter_mut().enumerate() {
                    *c = (*c + 1) * (i as u64 + 2) % 251;
                }
                entry = entry / 2 + 1;
            }
        }
        let next = spillopt_profile::EdgeProfile::new(&cfg, counts, entry);
        let delta = spillopt_profile::ProfileDelta::between(&prev, &next);
        let inputs = SuiteInputs::analyzed(&usage, &next, &cyclic, &pst, &derived);
        let (incremental, stats) = run_suite_incremental(&cfg, &inputs, &opts, &mut memo, &delta)
            .expect("incremental fold");
        let cold = run_suite(&cfg, &inputs, &opts).expect("cold fold");
        assert_eq!(incremental.entry_exit, cold.entry_exit, "step {step}");
        assert_eq!(incremental.chow, cold.chow, "step {step}");
        assert_eq!(
            incremental.hierarchical_exec, cold.hierarchical_exec,
            "step {step}: exec placement"
        );
        assert_eq!(
            incremental.hierarchical_jump, cold.hierarchical_jump,
            "step {step}: jump placement"
        );
        assert_eq!(incremental.predicted, cold.predicted, "step {step}");
        if step == 0 {
            assert_eq!(stats.regions_refolded, 0, "zero delta must re-fold nothing");
        }
        prev = next;
    }
}

/// Stress seed 92 (every registered target; this is the pa-risc-like
/// minimization), found by the **exact-optimum oracle**: the
/// hierarchical jump-model placement prices at 3 jump-model transitions
/// while the branch-and-bound certificate proves the minimum is 2 — a
/// 50% relative gap on a 1-transition absolute overshoot, the worst
/// case in the 500-seed corpus (everything else measures <= 10%). The
/// module is a chain of cold guard diamonds sharing one `handler0`
/// side exit plus a counted loop; the hierarchical traversal, which
/// only exchanges save/restore sets at region boundaries, keeps one
/// transition the global min cut avoids. `DEFAULT_GAP_PERCENT` (50) in
/// `spillopt-stress` is derived from exactly this case.
const SUBOPTIMAL_HIER_JUMP: &str = "\
module stress92\n\
\n\
func @f0(2) {\n\
  frame 7\n\
  vregs 181\n\
block entry:\n\
  v1 = mov r2\n\
  v3 = li 301783\n\
  store.data v3, slot3\n\
  store.data v1, slot6\n\
  v8 = load.data slot4\n\
  v11 = load.data slot6\n\
  v10 = xor v8, v11\n\
  store.data v10, slot4\n\
  v19 = load.data slot3\n\
  v20 = and v19, 15\n\
  v21 = li 1\n\
  br lt v20, v21, handler0, bb3\n\
block bb3:\n\
  v28 = load.data slot4\n\
  v29 = and v28, 15\n\
  v30 = li 8\n\
  br ge v29, v30, bb5, bb4\n\
block bb4:\n\
  v47 = load.data slot3\n\
  v48 = and v47, 15\n\
  v49 = li 1\n\
  br lt v48, v49, handler0, bb7\n\
block bb7:\n\
  v50 = load.data slot2\n\
  v51 = and v50, 63\n\
  v52 = li 1\n\
  br lt v51, v52, handler0, bb8\n\
block bb8:\n\
  v53 = load.data slot0\n\
  v54 = and v53, 63\n\
  v55 = li 1\n\
  br ge v54, v55, bb10, bb9\n\
block bb9:\n\
  jmp bb11\n\
block bb10:\n\
  v71 = load.data slot2\n\
  v72 = and v71, 15\n\
  v73 = li 1\n\
  br lt v72, v73, handler0, bb12\n\
block bb12:\n\
block bb11:\n\
  v74 = load.data slot1\n\
  v75 = and v74, 63\n\
  v76 = li 1\n\
  br lt v75, v76, handler0, bb13\n\
block bb13:\n\
  jmp bb6\n\
block bb5:\n\
  v83 = load.data slot0\n\
  v84 = and v83, 63\n\
  v85 = li 1\n\
  br ge v84, v85, bb15, bb14\n\
block bb14:\n\
block bb15:\n\
  v96 = load.data slot1\n\
  v97 = and v96, 15\n\
  v98 = li 1\n\
  br lt v97, v98, epilogue, bb16\n\
block bb16:\n\
block bb6:\n\
  v111 = li 0\n\
  v112 = li 3\n\
block bb17:\n\
  br ge v111, v112, bb19, bb18\n\
block bb18:\n\
  jmp bb17\n\
block bb19:\n\
  v150 = load.data slot1\n\
  v151 = and v150, 15\n\
  v152 = li 8\n\
  br ge v151, v152, bb21, bb20\n\
block bb20:\n\
  v153 = load.data slot2\n\
  v154 = and v153, 127\n\
  v155 = li 1\n\
  br lt v154, v155, handler0, bb22\n\
block bb22:\n\
block bb21:\n\
  v156 = load.data slot2\n\
  v157 = and v156, 15\n\
  v158 = li 8\n\
  br ge v157, v158, bb24, bb23\n\
block bb23:\n\
  v159 = load.data slot3\n\
  v160 = and v159, 127\n\
  v161 = li 1\n\
  br lt v160, v161, handler0, bb25\n\
block bb25:\n\
block bb24:\n\
  jmp bb26\n\
block handler0:\n\
  v162 = load.data slot3\n\
  v163 = load.data slot3\n\
  v164 = load.data slot0\n\
  r1 = mov v162\n\
  r2 = mov v163\n\
  r0 = call ext:0(r1, r2)\n\
  v165 = mov r0\n\
  v166 = xor v164, v165\n\
  jmp epilogue\n\
block bb26:\n\
block epilogue:\n\
  v172 = load.data slot0\n\
  v173 = load.data slot1\n\
  v174 = xor v172, v173\n\
  v175 = load.data slot2\n\
  v176 = xor v174, v175\n\
  v177 = load.data slot3\n\
  v178 = xor v176, v177\n\
  v179 = load.data slot4\n\
  v180 = xor v178, v179\n\
  r0 = mov v180\n\
  ret r0\n\
}\n";

/// Seed 92's workload on pa-risc-like (the profile the placements were
/// trained on).
fn seed_92_runs() -> Vec<(FuncId, Vec<i64>)> {
    vec![
        (FuncId::from_index(0), vec![520920, -444280]),
        (FuncId::from_index(0), vec![756635, -521788]),
    ]
}

/// Reproduces seed 92's suite and exact certificate on pa-risc-like:
/// `(hier-jump predicted, certified optimum)` in raw jump-model units.
fn seed_92_hier_jump_vs_optimum() -> (u64, u64) {
    let module = parse(SUBOPTIMAL_HIER_JUMP);
    let runs = seed_92_runs();
    let spec = spillopt_targets::spec_by_name("pa-risc-like").expect("registered");
    let target = spec.try_to_target().expect("valid");

    let mut vm = spillopt_profile::Machine::new(&module, &target);
    vm.set_fuel(1 << 28);
    for (f, args) in &runs {
        vm.call(*f, args).expect("reference run");
    }
    let profile = vm.edge_profile(FuncId::from_index(0));
    drop(vm);

    let mut func = module.func(FuncId::from_index(0)).clone();
    allocate(&mut func, &target, Some(&profile));
    let cfg = Cfg::compute(&func);
    let usage = CalleeSavedUsage::from_function(&func, &cfg, &target);
    assert!(!usage.is_empty(), "a callee-saved register is in play");
    let inputs = SuiteInputs::compute(&cfg, &usage, &profile);
    let suite = run_suite(&cfg, &inputs, &SuiteOptions::priced(spec.costs))
        .unwrap_or_else(|e| panic!("seed-92 suite: {e}"));
    let seeds: [&Placement; 4] = [
        &suite.entry_exit,
        &suite.chow,
        &suite.hierarchical_exec,
        &suite.hierarchical_jump,
    ];
    let outcome = solve_exact(
        &cfg,
        &usage,
        &profile,
        CostModel::JumpEdge,
        &spec.costs,
        &seeds,
        &ExactLimits::default(),
    );
    let sol = outcome
        .solved()
        .expect("within the default solver envelope");
    (suite.predicted[3].raw(), sol.optimum.raw())
}

#[test]
fn seed_92_gap_is_reproducible_and_bounds_the_default() {
    // Full oracle battery at the shipped defaults: the case must pass,
    // because this is the corpus worst case that *sets* the default gap.
    let module = parse(SUBOPTIMAL_HIER_JUMP);
    let spec = spillopt_targets::spec_by_name("pa-risc-like").expect("registered");
    check_case_with(
        &module,
        &seed_92_runs(),
        &spec,
        Some(&ExactOptions::default()),
    )
    .unwrap_or_else(|e| panic!("seed-92 oracles on pa-risc-like: {e}"));

    // Targeted: the measured gap is exactly 3 vs 2 (50%). If the first
    // assertion starts failing the gap has closed — un-ignore
    // `seed_92_hier_jump_reaches_the_certified_optimum` and tighten
    // `DEFAULT_GAP_PERCENT` to the next corpus worst case (10%).
    let (hier, optimum) = seed_92_hier_jump_vs_optimum();
    assert!(
        optimum < hier,
        "gap closed (both {optimum}): tighten DEFAULT_GAP_PERCENT"
    );
    assert_eq!(hier * 2, optimum * 3, "gap moved: was 3 vs 2 exactly");
}

/// The aspirational form: hier-jump lands on the certified optimum.
/// Ignored while the gap is open — the hierarchical traversal's
/// region-boundary set exchanges cannot reach the min-cut placement on
/// this module. Un-ignore after improving the traversal (and re-derive
/// `DEFAULT_GAP_PERCENT` from the then-worst corpus case).
#[test]
#[ignore = "known 50% hier-jump optimality gap (3 vs certified 2); see seed_92_gap_is_reproducible_and_bounds_the_default"]
fn seed_92_hier_jump_reaches_the_certified_optimum() {
    let (hier, optimum) = seed_92_hier_jump_vs_optimum();
    assert_eq!(
        hier, optimum,
        "hier-jump must price at the certified optimum"
    );
}
