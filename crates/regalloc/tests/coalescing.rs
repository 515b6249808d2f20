//! Coalescing under differential test: seeded functions full of
//! vreg-to-vreg copies, colored and allocated by both the production
//! and the reference implementations.
//!
//! Neither the benchgen modules nor the stress corpus emit a vreg-to-vreg
//! move, so on those inputs `color` never coalesces and its borrowed
//! adjacency matrix is never copied. These functions are built to reach
//! that branch: copy chains, copies of values that then cross a call,
//! copies that merge at the join of a diamond, and loop-carried copies.
//! The test also counts the functions whose first coloring coalesced,
//! so the branch cannot silently go uncovered.

use spillopt_ir::{
    verify_function, BinOp, Callee, Cfg, Cond, DenseBitSet, Function, FunctionBuilder, InstKind,
    Liveness, Reg, RegDiscipline, Target, VReg,
};
use spillopt_profile::random_walk_profile;
use spillopt_regalloc::{allocate, allocate_reference, color, color_reference, InterferenceGraph};
use spillopt_targets::registry;

/// SplitMix64: a small deterministic generator for the function shapes.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Copies `src` through a chain of `len` fresh vregs; returns the last.
fn copy_chain(fb: &mut FunctionBuilder, src: VReg, len: usize) -> VReg {
    let mut cur = src;
    for _ in 0..len {
        let c = fb.new_vreg();
        fb.mov(Reg::Virt(c), Reg::Virt(cur));
        cur = c;
    }
    cur
}

/// A function of straight-line code, diamonds and loops over a pool of
/// live values, most of whose steps copy a value vreg-to-vreg.
fn copy_heavy(seed: u64, target: &Target) -> Function {
    let mut rng = Rng(seed);
    let mut fb = FunctionBuilder::with_target(format!("copies{seed}"), 0, target.clone());
    let entry = fb.create_block(None);
    fb.switch_to(entry);
    let mut pool: Vec<VReg> = (0..3 + rng.below(6)).map(|i| fb.li(i as i64)).collect();
    for _ in 0..4 + rng.below(10) {
        let j = rng.below(pool.len());
        let k = rng.below(pool.len());
        match rng.below(5) {
            // A copy chain replaces a pool value.
            0 => pool[j] = copy_chain(&mut fb, pool[j], 1 + rng.below(4)),
            // A copy that crosses a call.
            1 => {
                let c = copy_chain(&mut fb, pool[j], 1);
                let args: Vec<Reg> = pool
                    .iter()
                    .take(rng.below(target.arg_regs().len().min(3) + 1))
                    .map(|&v| Reg::Virt(v))
                    .collect();
                let r = fb.call(Callee::External(rng.below(4) as u32), &args);
                pool[j] = c;
                if rng.below(2) == 0 {
                    pool[k] = r;
                } else {
                    pool.push(r);
                }
            }
            // Arithmetic raises the pressure.
            2 => pool[k] = fb.bin(BinOp::Add, Reg::Virt(pool[j]), Reg::Virt(pool[k])),
            // A diamond whose arms copy into one merge vreg.
            3 => {
                let m = fb.new_vreg();
                let (els, then, join) = (
                    fb.create_block(None),
                    fb.create_block(None),
                    fb.create_block(None),
                );
                fb.branch(Cond::Lt, Reg::Virt(pool[j]), Reg::Virt(pool[k]), then, els);
                fb.switch_to(els);
                let x = copy_chain(&mut fb, pool[j], rng.below(3));
                fb.mov(Reg::Virt(m), Reg::Virt(x));
                fb.jump(join);
                fb.switch_to(then);
                let y = fb.bin(BinOp::Sub, Reg::Virt(pool[k]), Reg::Virt(pool[j]));
                fb.mov(Reg::Virt(m), Reg::Virt(y));
                fb.switch_to(join);
                pool[j] = m;
            }
            // A loop carrying a pool value through a copy.
            _ => {
                let i = fb.li(0);
                let n = fb.li(2 + rng.below(6) as i64);
                let (header, body, exit) = (
                    fb.create_block(None),
                    fb.create_block(None),
                    fb.create_block(None),
                );
                fb.jump(header);
                fb.switch_to(header);
                fb.branch(Cond::Ge, Reg::Virt(i), Reg::Virt(n), exit, body);
                fb.switch_to(body);
                let p = pool[j];
                let t = copy_chain(&mut fb, p, 1 + rng.below(2));
                if rng.below(2) == 0 {
                    let _ = fb.call(Callee::External(0), &[]);
                }
                fb.emit(InstKind::Bin {
                    op: BinOp::Add,
                    dst: Reg::Virt(p),
                    lhs: Reg::Virt(t),
                    rhs: Reg::Virt(i),
                });
                fb.emit(InstKind::BinImm {
                    op: BinOp::Add,
                    dst: Reg::Virt(i),
                    lhs: Reg::Virt(i),
                    imm: 1,
                });
                fb.jump(header);
                fb.switch_to(exit);
            }
        }
    }
    let mut acc = pool[0];
    for &v in &pool[1..] {
        acc = fb.bin(BinOp::Add, Reg::Virt(acc), Reg::Virt(v));
    }
    fb.ret(Some(Reg::Virt(acc)));
    let func = fb.finish();
    let errors = verify_function(&func, RegDiscipline::Virtual);
    assert!(errors.is_empty(), "generated `{}`: {errors:?}", func.name());
    func
}

/// Seeds per target.
const SEEDS: u64 = 60;

/// Functions whose first coloring must coalesce at least one move, of
/// the `SEEDS` functions on each of the registered targets plus the
/// 4-register tiny target (300 in all; 252 coalesce when this was set).
const MIN_COALESCING: usize = 250;

/// Functions whose allocation must spill, so that coalesced graphs also
/// reach blocked simplify steps and later rounds (102 when this was
/// set).
const MIN_SPILLING: usize = 100;

#[test]
fn coalescing_color_and_allocate_match_reference() {
    let targets = registry()
        .into_iter()
        .map(|spec| spec.to_target())
        .chain([Target::tiny()]);
    let (mut functions, mut coalescing, mut spilling) = (0, 0, 0);
    for target in targets {
        for seed in 0..SEEDS {
            let func = copy_heavy(seed, &target);
            let label = format!("{} on {}", func.name(), target.name());
            let cfg = Cfg::compute(&func);
            let profile = random_walk_profile(&cfg, 96, 128, seed);
            let weights: Vec<u64> = func
                .block_ids()
                .map(|b| profile.block_count(b).max(1))
                .collect();

            let liveness = Liveness::compute(&func, &cfg, &target);
            let graph = InterferenceGraph::build(&func, &cfg, &target, &liveness, &weights);
            let no_spill = DenseBitSet::new(func.num_vregs());
            let fast = color(&graph, &target, &no_spill);
            let slow = color_reference(&graph, &target, &no_spill);
            assert_eq!(fast.assignment, slow.assignment, "{label}: assignment");
            assert_eq!(fast.spills, slow.spills, "{label}: spills");
            assert_eq!(fast.coalesced, slow.coalesced, "{label}: coalesced");
            assert_eq!(fast.alias, slow.alias, "{label}: alias");
            assert_eq!(fast.blocked, slow.blocked, "{label}: blocked");
            coalescing += usize::from(fast.coalesced > 0);
            functions += 1;

            let (mut a, mut b) = (func.clone(), func);
            let ra = allocate(&mut a, &target, Some(&profile));
            let rb = allocate_reference(&mut b, &target, Some(&profile));
            assert_eq!(a, b, "{label}: allocated functions differ");
            assert_eq!(a.to_string(), b.to_string(), "{label}: function text");
            assert_eq!(ra.spilled_vregs, rb.spilled_vregs, "{label}: spilled");
            assert_eq!(ra.iterations, rb.iterations, "{label}: iterations");
            assert_eq!(ra.coalesced_moves, rb.coalesced_moves, "{label}: moves");
            assert_eq!(
                ra.used_callee_saved, rb.used_callee_saved,
                "{label}: callee-saved"
            );
            assert_eq!(ra.cfg, rb.cfg, "{label}: cfg");
            assert_eq!(ra.certificate, rb.certificate, "{label}: certificate");
            spilling += usize::from(ra.spilled_vregs > 0);
        }
    }
    println!("{coalescing} of {functions} functions coalesce, {spilling} spill");
    assert!(
        coalescing >= MIN_COALESCING,
        "only {coalescing} of {functions} functions coalesced a move"
    );
    assert!(
        spilling >= MIN_SPILLING,
        "only {spilling} of {functions} functions spilled"
    );
}
