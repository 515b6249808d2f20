//! The cold-path substrate against its frozen reference twins, at corpus
//! scale: `allocate` must produce exactly what `allocate_reference`
//! produces, and `Pst::compute` must build exactly the tree of
//! `Pst::compute_reference` renumbered into preorder. The post-allocation
//! analyses are held to oracles that share no code with them: the
//! allocator's exported CFG to a fresh `Cfg::compute`, its
//! `used_callee_saved` to an operand scan written here, and the
//! word-parallel `CalleeSavedUsage::from_function` to `from_liveness`
//! over a full `Liveness::compute`.
//!
//! Inputs:
//!
//! - the 11 `benchgen` modules on every registered target, under their
//!   training-workload profiles;
//! - `spillopt_stress` cases for seeds 0..50, one registered target per
//!   seed in turn, under random-walk profiles;
//! - a move-injected copy of every stress case (see [`inject_copies`]).
//!   Neither generator emits a vreg→vreg `Move`, so without these
//!   copies the sweep would never reach the allocator's coalescing;
//! - for the PST alone, every function of stress seeds 0..300 on every
//!   registered target, before and after allocation.

use spillopt_benchgen::{all_benchmarks, build_bench};
use spillopt_core::CalleeSavedUsage;
use spillopt_driver::{OptimizerBuilder, ProfileSource};
use spillopt_ir::{
    Cfg, FuncId, Function, Inst, InstKind, Liveness, PReg, Reg, RegDiscipline, Target, VReg,
};
use spillopt_profile::{random_walk_profile, EdgeProfile};
use spillopt_pst::{pst_differences, verify_pst, Pst};
use spillopt_regalloc::{allocate, allocate_reference};
use spillopt_targets::registry;
use std::collections::HashMap;

/// One allocation input: a virtual-register function, its target and
/// the profile weighting its spill costs.
struct Input {
    label: String,
    target: Target,
    func: Function,
    profile: EdgeProfile,
}

/// Every benchgen function on every registered target, under the
/// training-workload profiles a session resolves for it.
fn benchgen_inputs() -> Vec<Input> {
    let mut out = Vec::new();
    for spec in registry() {
        let target = spec.to_target();
        for bench in all_benchmarks() {
            let built = build_bench(&bench, &target);
            let profiles = OptimizerBuilder::new()
                .target_spec(spec.clone())
                .threads(1)
                .reuse_analyses(false)
                .profile(ProfileSource::Workload(built.train_runs))
                .build()
                .expect("session builds")
                .resolve_profiles(&built.module)
                .expect("training workload runs");
            for (f, profile) in built.module.func_ids().zip(profiles) {
                let func = built.module.func(f).clone();
                out.push(Input {
                    label: format!("{}/{}/{}", spec.name, bench.name, func.name()),
                    target: target.clone(),
                    func,
                    profile,
                });
            }
        }
    }
    out
}

/// Stress cases for seeds 0..50, rotating through the registered
/// targets, each under a random-walk profile; with `copies`, every
/// function is move-injected first.
fn stress_inputs(copies: bool) -> Vec<Input> {
    let specs = registry();
    let mut out = Vec::new();
    for seed in 0..50u64 {
        let spec = &specs[seed as usize % specs.len()];
        let target = spec.to_target();
        let case = spillopt_stress::gen_case(&target, seed);
        for (i, f) in case.module.func_ids().enumerate() {
            let source = case.module.func(f);
            let func = if copies {
                inject_copies(source)
            } else {
                source.clone()
            };
            let profile = random_walk_profile(&Cfg::compute(&func), 128, 256, seed * 31 + i as u64);
            out.push(Input {
                label: format!(
                    "stress seed {seed}/{}/{}{}",
                    spec.name,
                    func.name(),
                    if copies { " (copies)" } else { "" }
                ),
                target: target.clone(),
                func,
                profile,
            });
        }
    }
    out
}

/// A copy of `func` with one vreg→vreg `Move` per virtual def: right
/// after each instruction that defines `v`, `v' = v` copies it to a
/// fresh vreg, and later uses of `v` in the same block read `v'` (until
/// `v` is defined again, which gets its own copy). Values and control
/// flow are unchanged.
fn inject_copies(func: &Function) -> Function {
    let mut out = func.clone();
    for b in func.block_ids() {
        let mut copy_of: HashMap<VReg, VReg> = HashMap::new();
        let mut insts = Vec::with_capacity(2 * func.block(b).insts.len());
        for inst in &func.block(b).insts {
            let mut inst = inst.clone();
            for_each_use_mut(&mut inst, |r| {
                if let Reg::Virt(v) = r {
                    if let Some(&c) = copy_of.get(v) {
                        *r = Reg::Virt(c);
                    }
                }
            });
            let mut def = None;
            inst.for_each_def(|r| {
                if let Reg::Virt(v) = r {
                    def = Some(v);
                }
            });
            insts.push(inst);
            if let Some(v) = def {
                let c = out.new_vreg();
                insts.push(Inst::new(InstKind::Move {
                    dst: Reg::Virt(c),
                    src: Reg::Virt(v),
                }));
                copy_of.insert(v, c);
            }
        }
        out.block_mut(b).insts = insts;
    }
    let errs = spillopt_ir::verify_function(&out, RegDiscipline::Virtual);
    assert!(
        errs.is_empty(),
        "move injection broke `{}`: {errs:?}",
        func.name()
    );
    out
}

/// Calls `f` on every register `inst` reads.
fn for_each_use_mut(inst: &mut Inst, mut f: impl FnMut(&mut Reg)) {
    match &mut inst.kind {
        InstKind::Bin { lhs, rhs, .. } | InstKind::Branch { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        InstKind::BinImm { lhs, .. } => f(lhs),
        InstKind::Move { src, .. } | InstKind::Store { src, .. } => f(src),
        InstKind::Call { args, .. } => args.iter_mut().for_each(f),
        InstKind::Return { value } => value.iter_mut().for_each(f),
        InstKind::LoadImm { .. } | InstKind::Load { .. } | InstKind::Jump { .. } => {}
    }
}

#[test]
fn allocate_matches_reference_on_every_input_set() {
    let mut coalesced = 0usize;
    let mut checked = 0usize;
    let inputs = benchgen_inputs()
        .into_iter()
        .chain(stress_inputs(false))
        .chain(stress_inputs(true));
    for input in inputs {
        let (mut fast, mut slow) = (input.func.clone(), input.func);
        let a = allocate(&mut fast, &input.target, Some(&input.profile));
        let b = allocate_reference(&mut slow, &input.target, Some(&input.profile));
        let label = &input.label;
        assert_eq!(fast, slow, "{label}: allocated functions differ");
        assert_eq!(a.spilled_vregs, b.spilled_vregs, "{label}: spilled_vregs");
        assert_eq!(a.iterations, b.iterations, "{label}: iterations");
        assert_eq!(
            a.coalesced_moves, b.coalesced_moves,
            "{label}: coalesced_moves"
        );
        assert_eq!(
            a.used_callee_saved, b.used_callee_saved,
            "{label}: used_callee_saved"
        );
        assert_eq!(a.certificate, b.certificate, "{label}: certificate");
        coalesced += a.coalesced_moves;
        checked += 1;
    }
    assert!(checked > 1000, "only {checked} functions checked");
    assert!(coalesced > 0, "the sweep never coalesced a move");
}

/// The callee-saved registers `func`'s instructions read or write, in
/// register order, by a direct operand scan against the target's list.
fn scanned_callee_saved(func: &Function, target: &Target) -> Vec<PReg> {
    let mut used = Vec::new();
    for b in func.block_ids() {
        for inst in &func.block(b).insts {
            let mut mark = |r: Reg| {
                if let Reg::Phys(p) = r {
                    if target.callee_saved().contains(&p) && !used.contains(&p) {
                        used.push(p);
                    }
                }
            };
            inst.for_each_use(&mut mark);
            inst.for_each_def(&mut mark);
        }
    }
    used.sort();
    used
}

#[test]
fn post_allocation_analyses_match_their_oracles() {
    let mut with_usage = 0usize;
    let inputs = benchgen_inputs()
        .into_iter()
        .chain(stress_inputs(false))
        .chain(stress_inputs(true));
    for input in inputs {
        let (mut func, target, label) = (input.func, input.target, input.label);
        let alloc = allocate(&mut func, &target, Some(&input.profile));
        let cfg = Cfg::compute(&func);
        assert_eq!(alloc.cfg, cfg, "{label}: exported CFG is stale");
        assert_eq!(
            alloc.used_callee_saved,
            scanned_callee_saved(&func, &target),
            "{label}: used_callee_saved"
        );
        let usage = CalleeSavedUsage::from_function(&func, &alloc.cfg, &target);
        let liveness = Liveness::compute(&func, &cfg, &target);
        assert_eq!(
            usage,
            CalleeSavedUsage::from_liveness(&func, &target, &liveness),
            "{label}: busy sets"
        );
        with_usage += usize::from(!usage.is_empty());
    }
    assert!(
        with_usage > 500,
        "only {with_usage} functions use a callee-saved register"
    );
}

#[test]
fn pst_matches_reference_on_allocated_cfgs() {
    let inputs = benchgen_inputs()
        .into_iter()
        .chain(stress_inputs(false))
        .chain(stress_inputs(true));
    for input in inputs {
        let mut func = input.func;
        allocate(&mut func, &input.target, Some(&input.profile));
        let cfg = Cfg::compute(&func);
        let pst = Pst::compute(&cfg);
        let reference = Pst::compute_reference(&cfg);
        let diffs = pst_differences(&pst, &reference);
        assert!(diffs.is_empty(), "{}: {diffs:?}", input.label);
        for r in pst.regions() {
            if let Some(p) = r.parent {
                assert!(p < r.id, "{}: {} not in preorder", input.label, r.id);
            }
        }
        assert!(
            pst == reference.into_preorder(),
            "{}: not the reference's canonical arena",
            input.label
        );
    }
}

/// The PST of every function of stress cases `seeds` on every
/// registered target, before and after allocation, must equal the
/// reference renumbered into preorder and pass [`verify_pst`]. Returns
/// the number of CFGs checked.
fn check_stress_psts(seeds: impl IntoIterator<Item = u64>) -> usize {
    let mut checked = 0;
    for seed in seeds {
        for spec in registry() {
            let target = spec.to_target();
            let case = spillopt_stress::gen_case(&target, seed);
            for f in case.module.func_ids() {
                let mut func = case.module.func(f).clone();
                let before = Cfg::compute(&func);
                allocate(&mut func, &target, None);
                for (when, cfg) in [("before", before), ("after", Cfg::compute(&func))] {
                    let label = format!("{} seed {seed} {} {when} allocation", spec.name, f);
                    let pst = Pst::compute(&cfg);
                    let errs = verify_pst(&cfg, &pst);
                    assert!(errs.is_empty(), "{label}: {errs:?}");
                    assert!(
                        pst == Pst::compute_reference(&cfg).into_preorder(),
                        "{label}: not the reference's canonical arena"
                    );
                    checked += 1;
                }
            }
        }
    }
    checked
}

#[test]
fn pst_matches_reference_on_the_stress_sweep() {
    assert_eq!(check_stress_psts(0..300), 6048);
}

/// Stress functions containing a loop that exits mid-body: the block
/// after the loop exit is dominated by a region's entry and
/// post-dominated by its exit, yet runs only after the exit. Bounding a
/// region by dominance alone put such blocks inside it, and the region
/// was then entered and left through other edges as well.
#[test]
fn regions_stay_single_entry_single_exit_around_mid_body_loop_exits() {
    for (target, seed, func) in [
        ("pa-risc-like", 33, 1),
        ("pa-risc-like", 51, 1),
        ("x86-64-sysv", 114, 0),
        ("aarch64-aapcs64", 149, 2),
        ("x86-64-sysv", 177, 0),
    ] {
        let spec = registry().into_iter().find(|s| s.name == target).unwrap();
        let case = spillopt_stress::gen_case(&spec.to_target(), seed);
        let cfg = Cfg::compute(case.module.func(FuncId::from_index(func)));
        let pst = Pst::compute(&cfg);
        let errs = verify_pst(&cfg, &pst);
        assert!(errs.is_empty(), "{target} seed {seed} f{func}: {errs:?}");
        let reference = Pst::compute_reference(&cfg);
        assert!(verify_pst(&cfg, &reference).is_empty());
        assert!(pst == reference.into_preorder());
    }
}
