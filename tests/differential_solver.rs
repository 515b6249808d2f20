//! Differential property tests: the word-parallel/dense rewrites must be
//! decision-for-decision identical to the retired per-register reference
//! implementations, over stress-generated modules.
//!
//! Layers covered, innermost out:
//!
//! 1. the bit-parallel saved-region solver against the per-register
//!    growth of `spillopt_core::dataflow` (the retired solver, kept as
//!    the oracle);
//! 2. the whole placement suite (Chow, both hierarchical variants,
//!    predicted costs, traces) against
//!    `spillopt_core::reference::run_suite_priced_reference`;
//! 3. the word-parallel validator against the per-register one (as
//!    violation sets);
//! 4. the end-to-end module pipeline — profile, allocation, analyses,
//!    suite, report — of an arena-free serial `Session` against the
//!    frozen pre-rewrite pipeline (`spillopt_driver::refimpl`), as
//!    `ModuleReport` JSON bytes.
//!
//! Layer 4 runs on every tier-1 run over a few hand-picked cases plus
//! the smoke corpus (stress seeds from 0 at scale 2, at least 40
//! functions per target). The full corpus (scale 32, at least 200
//! functions per target) is an `#[ignore]`d test that the nightly job
//! runs in release: `cargo test --release --test differential_solver --
//! --ignored`. Layers 1–3 keep the per-layer diagnosis sharp.

use spillopt_core::{run_suite, CalleeSavedUsage, RegWords, SuiteInputs, SuiteOptions};
use spillopt_driver::driver::ProfileSource;
use spillopt_driver::refimpl::optimize_module_reference;
use spillopt_driver::OptimizerBuilder;
use spillopt_ir::analysis::loops::sccs;
use spillopt_ir::{Cfg, DerivedCfg, Module, Target};
use spillopt_profile::random_walk_profile;
use spillopt_pst::Pst;
use spillopt_targets::{registry, TargetSpec};

/// Allocated stress functions with their profiles, for per-layer checks.
fn allocated_functions(
    spec: &TargetSpec,
    seeds: std::ops::Range<u64>,
    scale: u32,
) -> Vec<(spillopt_ir::Function, spillopt_profile::EdgeProfile)> {
    let target = spec.to_target();
    let mut out = Vec::new();
    for seed in seeds {
        let case = spillopt_stress::gen_case_scaled(&target, seed, scale);
        for (i, f) in case.module.func_ids().enumerate() {
            let mut func = case.module.func(f).clone();
            let cfg = Cfg::compute(&func);
            let profile = random_walk_profile(&cfg, 128, 256, seed * 31 + i as u64);
            spillopt_regalloc::allocate(&mut func, &target, Some(&profile));
            out.push((func, profile));
        }
    }
    out
}

#[test]
fn bit_parallel_solver_matches_per_register_on_stress_modules() {
    let spec = spillopt_targets::pa_risc_like();
    let target = spec.to_target();
    let mut checked_regs = 0usize;
    for (func, _) in allocated_functions(&spec, 0..6, 1) {
        let cfg = Cfg::compute(&func);
        let usage = CalleeSavedUsage::from_function(&func, &cfg, &target);
        if usage.is_empty() {
            continue;
        }
        let cyclic = sccs(&cfg);
        let derived = DerivedCfg::compute(&cfg);
        let mut words = RegWords::from_busy(cfg.num_blocks(), &usage);
        spillopt_core::solver::chow_grow_all(&derived, cfg.entry().index(), &cyclic, &mut words);
        for (bit, (_, busy)) in usage.regs().enumerate() {
            let reference = spillopt_core::dataflow::chow_grow(&cfg, &cyclic, busy);
            assert_eq!(
                words.project(bit),
                reference,
                "register bit {bit} of `{}` diverged",
                func.name()
            );
            checked_regs += 1;
        }
    }
    assert!(checked_regs > 0, "no callee-saved registers exercised");
}

#[test]
fn suite_and_validator_match_reference_on_stress_modules() {
    for spec in registry() {
        let target = spec.to_target();
        for (func, profile) in allocated_functions(&spec, 0..4, 1) {
            let cfg = Cfg::compute(&func);
            let usage = CalleeSavedUsage::from_function(&func, &cfg, &target);
            if usage.is_empty() {
                continue;
            }
            let cyclic = sccs(&cfg);
            let pst = Pst::compute(&cfg);
            let derived = DerivedCfg::compute(&cfg);
            let fast = run_suite(
                &cfg,
                &SuiteInputs::analyzed(&usage, &profile, &cyclic, &pst, &derived),
                &SuiteOptions::priced(spec.costs),
            )
            .expect("valid placements");
            let slow = spillopt_core::reference::run_suite_priced_reference(
                &cfg,
                &cyclic,
                &pst,
                &usage,
                &profile,
                &spec.costs,
            );
            assert_eq!(fast.entry_exit, slow.entry_exit);
            assert_eq!(fast.chow, slow.chow, "`{}` chow diverged", func.name());
            assert_eq!(
                fast.hierarchical_exec.placement,
                slow.hierarchical_exec.placement,
                "`{}` hier-exec diverged",
                func.name()
            );
            assert_eq!(
                fast.hierarchical_jump.placement,
                slow.hierarchical_jump.placement,
                "`{}` hier-jump diverged",
                func.name()
            );
            assert_eq!(fast.predicted, slow.predicted);
            assert_eq!(
                fast.hierarchical_jump.trace.len(),
                slow.hierarchical_jump.trace.len()
            );
            for (a, b) in fast
                .hierarchical_jump
                .trace
                .iter()
                .zip(&slow.hierarchical_jump.trace)
            {
                assert_eq!((a.region, a.reg, a.replaced), (b.region, b.reg, b.replaced));
                assert_eq!(a.contained_cost, b.contained_cost);
                assert_eq!(a.boundary_cost, b.boundary_cost);
            }
            // Validator agreement, as sets (list order interleaves
            // registers differently).
            for placement in [
                &fast.entry_exit,
                &fast.chow,
                &fast.hierarchical_jump.placement,
            ] {
                let fe = spillopt_core::check_placement(&cfg, &usage, placement);
                let se =
                    spillopt_core::reference::check_placement_reference(&cfg, &usage, placement);
                assert_eq!(fe.len(), se.len());
                for e in &fe {
                    assert!(se.contains(e), "validator-only violation {e:?}");
                }
            }
        }
    }
}

/// Whole stress cases `(seed, scale, module)` for `target`, from seed 0
/// at `scale`, until they hold at least `functions` functions. The
/// generator follows the target's convention, so the corpus is per
/// target (same seeds everywhere).
fn stress_corpus(target: &Target, scale: u32, functions: usize) -> Vec<(u64, u32, Module)> {
    let mut corpus = Vec::new();
    let mut total = 0;
    let mut seed = 0;
    while total < functions {
        let module = spillopt_stress::gen_case_scaled(target, seed, scale).module;
        total += module.num_funcs();
        corpus.push((seed, scale, module));
        seed += 1;
    }
    corpus
}

/// Runs the cases `corpus` builds for each registered target through an
/// arena-free serial `Session` and through the frozen pipeline, and
/// asserts the two `ModuleReport`s are the same JSON bytes.
fn assert_reports_match_frozen_pipeline(corpus: impl Fn(&Target) -> Vec<(u64, u32, Module)>) {
    let profile = ProfileSource::default();
    for spec in registry() {
        // Arena-free and serial: every call runs the whole cold pipeline
        // in the reference's schedule.
        let session = OptimizerBuilder::new()
            .target_spec(spec.clone())
            .profile(profile.clone())
            .reuse_analyses(false)
            .threads(1)
            .build()
            .expect("valid session");
        for (seed, scale, module) in corpus(&spec.to_target()) {
            let current = session.optimize(&module).expect("current");
            let reference = optimize_module_reference(&module, &spec, &profile).expect("reference");
            assert_eq!(
                current.report.to_json().to_compact(),
                reference.report.to_json().to_compact(),
                "report bytes diverged: target {} seed {seed} scale {scale}",
                spec.name
            );
        }
    }
}

#[test]
fn module_reports_are_byte_identical_to_frozen_pipeline() {
    // A few small cases plus one scaled-up module-sized case.
    assert_reports_match_frozen_pipeline(|target| {
        [(0, 1), (1, 1), (2, 1), (3, 4)]
            .into_iter()
            .map(|(seed, scale)| {
                let module = spillopt_stress::gen_case_scaled(target, seed, scale).module;
                (seed, scale, module)
            })
            .collect()
    });
    // The smoke corpus.
    assert_reports_match_frozen_pipeline(|target| stress_corpus(target, 2, 40));
}

#[test]
#[ignore = "full corpus, slow in a debug build; the nightly job runs it in release"]
fn full_corpus_reports_are_byte_identical_to_frozen_pipeline() {
    assert_reports_match_frozen_pipeline(|target| stress_corpus(target, 32, 200));
}
