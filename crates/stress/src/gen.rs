//! Seeded random module generation.
//!
//! The generator deliberately produces shapes the SPEC stand-ins never
//! emit: **irreducible loops** (guarded backward branches into arbitrary
//! earlier blocks, including block bodies of other loops), **multi-exit
//! functions** (every block may return), **critical-edge meshes**
//! (forward branches over blocks into shared join points), **zero-trip
//! loops and dead regions** (fuel-guarded back edges whose guard is
//! already exhausted), **extreme hot/cold skew** (masked branch
//! conditions from near-always to 1-in-64), and **register pressure near
//! the target's register-file limit** (accumulator counts around
//! `Target::num_regs`, forcing allocator spills). A slice of seeds
//! instead reuses `spillopt-benchgen`'s structured skeletons
//! ([`spillopt_benchgen::gen_body`]) for deep PST nesting, handlers, and
//! workload-realistic profiles.
//!
//! Termination is guaranteed by construction: every block increments a
//! fuel counter and every backward control transfer is guarded by
//! `fuel < limit`, so any cycle executes at most `limit` times; calls
//! form a forward DAG over the module's functions. Generated functions
//! are checked with the IR verifier; the rare draw that violates a
//! structural invariant (an unreachable block behind a skipped-over
//! `jmp`, say) is rejected and redrawn from the same deterministic
//! stream, so generation is a pure function of `(target, seed)`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spillopt_benchgen::{emit_function, gen_body, EmitConfig, ShapeConfig, Style};
use spillopt_ir::{
    BinOp, BlockId, Callee, Cond, FuncId, Function, FunctionBuilder, InstKind, Module, Reg,
    RegDiscipline, Target, VReg,
};

/// One generated differential-test case: a module plus the workload that
/// doubles as training profile and reference run.
#[derive(Clone, Debug)]
pub struct StressCase {
    /// The seed the case was drawn from.
    pub seed: u64,
    /// The generated module (virtual registers, verified).
    pub module: Module,
    /// Workload runs: `(function, arguments)` pairs, executed in order.
    pub runs: Vec<(FuncId, Vec<i64>)>,
}

/// Generates the case for `seed` against `target`'s convention.
///
/// Deterministic: the same `(target, seed)` pair always yields the same
/// module and workload.
pub fn gen_case(target: &Target, seed: u64) -> StressCase {
    gen_case_scaled(target, seed, 1)
}

/// As [`gen_case`], with every drawn function size multiplied by
/// `scale`: structured bodies get `scale`× the shape budget and raw
/// CFGs `scale`× the block count. The RNG stream is identical to
/// [`gen_case`] (`scale` only multiplies drawn sizes), so `scale == 1`
/// reproduces it bit for bit.
///
/// The module-scale byte-identity test (`tests/differential_solver.rs`)
/// and perfbench's `pool` workload use scaled cases as their corpus:
/// the adversarial *shapes* of the differential stress subsystem at the
/// function sizes where optimizer wall-clock actually matters.
pub fn gen_case_scaled(target: &Target, seed: u64, scale: u32) -> StressCase {
    let scale = scale.max(1) as usize;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5712_E55C_A5E5_0000);
    let num_funcs = rng.gen_range(1..=4usize);
    let max_params = 2.min(target.arg_regs().len());
    let nparams: Vec<usize> = (0..num_funcs)
        .map(|_| rng.gen_range(0..=max_params))
        .collect();

    let mut module = Module::new(format!("stress{seed}"));
    for i in 0..num_funcs {
        let structured = max_params >= 2 && rng.gen_bool(0.3);
        let func = if structured {
            gen_structured_function(i, &nparams, num_funcs, target, scale, &mut rng)
        } else {
            gen_raw_function(i, &nparams, target, scale, &mut rng)
        };
        module.add_func(func);
    }

    let mut runs = Vec::new();
    let n_runs = rng.gen_range(1..=3usize);
    for _ in 0..n_runs {
        // Always drive the root; sometimes enter deeper functions
        // directly so even call-graph leaves get non-trivial profiles.
        let f = if rng.gen_bool(0.7) {
            0
        } else {
            rng.gen_range(0..num_funcs)
        };
        let np = module.func(FuncId::from_index(f)).num_params();
        let args = (0..np)
            .map(|_| rng.gen_range(-(1 << 20)..1 << 20))
            .collect();
        runs.push((FuncId::from_index(f), args));
    }

    StressCase { seed, module, runs }
}

/// Emits a structured (benchgen-skeleton) function: reducible but deeply
/// nested, with handlers, gotos, zero-trip loops, and hot/cold texture.
fn gen_structured_function(
    index: usize,
    nparams: &[usize],
    num_funcs: usize,
    target: &Target,
    scale: usize,
    rng: &mut SmallRng,
) -> Function {
    let callees = num_funcs - index - 1;
    let shape = ShapeConfig {
        budget: rng.gen_range(10..=35) * scale,
        loop_prob: 0.35,
        else_prob: 0.5,
        cold_if_prob: 0.35,
        goto_prob: 0.15,
        call_prob: if callees > 0 { 0.15 } else { 0.08 },
        // Zero-trip loops included: lower bound 0.
        loop_trip: (0, 6),
        max_depth: 4,
    };
    let body = gen_body(&shape, rng, callees);
    let style = if rng.gen_bool(0.5) {
        Style::Register
    } else {
        Style::Memory
    };
    let pressure = if rng.gen_bool(0.3) {
        // Near the register-file limit: forces allocator spills too.
        target
            .num_regs()
            .saturating_sub(rng.gen_range(0..=3))
            .max(4)
    } else {
        rng.gen_range(2..=8)
    };
    let cfg = EmitConfig {
        shape,
        pressure,
        // Callers pass exactly this function's declared parameter count,
        // so the declaration must match the pre-drawn signature table.
        num_params: nparams[index],
        data_slots: rng.gen_range(0..=3),
        style,
        num_handlers: rng.gen_range(0..=1),
        handler_goto_frac: 0.5,
        hot_segment_calls: if style == Style::Memory {
            rng.gen_range(0..=2)
        } else {
            0
        },
        crossing_frac: 0.5,
        cold_crossing: 0.7,
        cold_sites: rng.gen_range(0..=1),
    };
    let sub = rng.gen_range(0..u64::MAX / 2);
    emit_function(&format!("f{index}"), target, &cfg, &body, index + 1, sub)
}

/// Draws a raw-CFG function: arbitrary guarded branch targets, multiple
/// exits, and no structural discipline beyond the IR's layout rules.
fn gen_raw_function(
    index: usize,
    nparams: &[usize],
    target: &Target,
    scale: usize,
    rng: &mut SmallRng,
) -> Function {
    for _attempt in 0..64 {
        let func = draw_raw_function(index, nparams, target, scale, rng);
        if spillopt_ir::verify_function(&func, RegDiscipline::Virtual).is_empty() {
            return func;
        }
    }
    // Statistically unreachable fallback: a straight-line function that
    // always verifies, so generation never fails.
    trivial_function(index, nparams[index], target)
}

fn trivial_function(index: usize, num_params: usize, target: &Target) -> Function {
    let mut fb = FunctionBuilder::with_target(format!("f{index}"), num_params, target.clone());
    let b = fb.create_block(Some("entry"));
    fb.switch_to(b);
    let mut acc = fb.li(1);
    for p in 0..num_params {
        let v = fb.param(p);
        acc = fb.bin(BinOp::Xor, Reg::Virt(acc), Reg::Virt(v));
    }
    fb.ret(Some(Reg::Virt(acc)));
    fb.finish()
}

/// Skew classes for branch conditions: `(mask, threshold)` over an
/// accumulator, from near-always-taken to 1-in-64.
const SKEWS: [(i64, i64); 5] = [(15, 14), (15, 8), (15, 4), (15, 1), (63, 1)];

struct RawDraw<'a> {
    fb: FunctionBuilder,
    blocks: Vec<BlockId>,
    accs: Vec<VReg>,
    data_slots: Vec<spillopt_ir::FrameSlot>,
    /// Fuel lives in a frame slot: slots are zero-initialized once per
    /// activation and survive re-execution of the entry block, so loops
    /// back to the entry stay bounded (a register counter re-initialized
    /// in the entry would reset on every back edge).
    fuel_slot: spillopt_ir::FrameSlot,
    limit: VReg,
    nparams: &'a [usize],
    index: usize,
    max_args: usize,
}

impl RawDraw<'_> {
    fn acc(&self, rng: &mut SmallRng) -> VReg {
        self.accs[rng.gen_range(0..self.accs.len())]
    }

    /// One random arithmetic/memory op over the accumulators.
    fn op(&mut self, rng: &mut SmallRng) {
        let d = self.acc(rng);
        let a = self.acc(rng);
        let b = self.acc(rng);
        match rng.gen_range(0..7) {
            0 => self.fb.emit(InstKind::Bin {
                op: BinOp::Add,
                dst: Reg::Virt(d),
                lhs: Reg::Virt(a),
                rhs: Reg::Virt(b),
            }),
            1 => self.fb.emit(InstKind::Bin {
                op: BinOp::Xor,
                dst: Reg::Virt(d),
                lhs: Reg::Virt(a),
                rhs: Reg::Virt(b),
            }),
            2 => self.fb.emit(InstKind::Bin {
                op: BinOp::Sub,
                dst: Reg::Virt(d),
                lhs: Reg::Virt(b),
                rhs: Reg::Virt(a),
            }),
            3 => {
                let k = rng.gen_range(1..64);
                self.fb.emit(InstKind::BinImm {
                    op: BinOp::Mul,
                    dst: Reg::Virt(d),
                    lhs: Reg::Virt(a),
                    imm: 2 * k + 1,
                });
            }
            4 => {
                // LCG mix keeps condition bits lively.
                self.fb.emit(InstKind::BinImm {
                    op: BinOp::Mul,
                    dst: Reg::Virt(d),
                    lhs: Reg::Virt(a),
                    imm: 6364136223846793005u64 as i64,
                });
                self.fb.emit(InstKind::BinImm {
                    op: BinOp::Add,
                    dst: Reg::Virt(d),
                    lhs: Reg::Virt(d),
                    imm: 1442695040888963407u64 as i64,
                });
                self.fb.emit(InstKind::BinImm {
                    op: BinOp::Shr,
                    dst: Reg::Virt(d),
                    lhs: Reg::Virt(d),
                    imm: 7,
                });
            }
            5 if !self.data_slots.is_empty() => {
                let s = self.data_slots[rng.gen_range(0..self.data_slots.len())];
                self.fb.emit(InstKind::Store {
                    src: Reg::Virt(a),
                    slot: s,
                    kind: spillopt_ir::MemKind::Data,
                });
            }
            _ if !self.data_slots.is_empty() => {
                let s = self.data_slots[rng.gen_range(0..self.data_slots.len())];
                let t = self.fb.new_vreg();
                self.fb.emit(InstKind::Load {
                    dst: Reg::Virt(t),
                    slot: s,
                    kind: spillopt_ir::MemKind::Data,
                });
                self.fb.emit(InstKind::Bin {
                    op: BinOp::Xor,
                    dst: Reg::Virt(d),
                    lhs: Reg::Virt(a),
                    rhs: Reg::Virt(t),
                });
            }
            _ => self.fb.emit(InstKind::BinImm {
                op: BinOp::Add,
                dst: Reg::Virt(d),
                lhs: Reg::Virt(a),
                imm: rng.gen_range(1..100),
            }),
        }
    }

    /// A call to a higher-indexed module function or an external,
    /// folding the result into an accumulator (so values cross the call).
    fn call(&mut self, rng: &mut SmallRng) {
        let callees = self.nparams.len() - self.index - 1;
        let internal = callees > 0 && rng.gen_bool(0.6);
        let (callee, nargs) = if internal {
            let j = self.index + 1 + rng.gen_range(0..callees);
            // Internal callees read all their declared parameters.
            (Callee::Func(FuncId::from_index(j)), self.nparams[j])
        } else {
            (
                Callee::External(rng.gen_range(0..8)),
                rng.gen_range(0..=self.max_args),
            )
        };
        let args: Vec<Reg> = (0..nargs).map(|_| Reg::Virt(self.acc(rng))).collect();
        let r = self.fb.call(callee, &args);
        let d = self.acc(rng);
        self.fb.emit(InstKind::Bin {
            op: BinOp::Xor,
            dst: Reg::Virt(d),
            lhs: Reg::Virt(d),
            rhs: Reg::Virt(r),
        });
    }

    /// A skewed branch condition temporary: `t = acc & mask`, plus the
    /// threshold constant.
    fn cond_pair(&mut self, rng: &mut SmallRng) -> (VReg, VReg, Cond) {
        let (mask, thr) = SKEWS[rng.gen_range(0..SKEWS.len())];
        let a = self.acc(rng);
        let t = self.fb.new_vreg();
        self.fb.emit(InstKind::BinImm {
            op: BinOp::And,
            dst: Reg::Virt(t),
            lhs: Reg::Virt(a),
            imm: mask,
        });
        let k = self.fb.li(thr);
        let cond = if rng.gen_bool(0.5) {
            Cond::Lt
        } else {
            Cond::Ge
        };
        (t, k, cond)
    }

    /// Ticks the fuel counter: `cur = load fuel; cur += 1; store cur`.
    /// Returns the incremented value for back-edge guards.
    fn tick_fuel(&mut self) -> VReg {
        let c = self.fb.new_vreg();
        self.fb.emit(InstKind::Load {
            dst: Reg::Virt(c),
            slot: self.fuel_slot,
            kind: spillopt_ir::MemKind::Data,
        });
        self.fb.emit(InstKind::BinImm {
            op: BinOp::Add,
            dst: Reg::Virt(c),
            lhs: Reg::Virt(c),
            imm: 1,
        });
        self.fb.emit(InstKind::Store {
            src: Reg::Virt(c),
            slot: self.fuel_slot,
            kind: spillopt_ir::MemKind::Data,
        });
        c
    }

    /// Folds a few accumulators into a return value and emits `ret`.
    fn ret(&mut self, rng: &mut SmallRng) {
        let mut v = self.acc(rng);
        for _ in 0..rng.gen_range(0..3usize) {
            let o = self.acc(rng);
            v = self.fb.bin(BinOp::Xor, Reg::Virt(v), Reg::Virt(o));
        }
        self.fb.ret(Some(Reg::Virt(v)));
    }
}

fn draw_raw_function(
    index: usize,
    nparams: &[usize],
    target: &Target,
    scale: usize,
    rng: &mut SmallRng,
) -> Function {
    let num_params = nparams[index];
    let mut fb = FunctionBuilder::with_target(format!("f{index}"), num_params, target.clone());
    let num_blocks = rng.gen_range(4..=14usize) * scale;
    let blocks: Vec<BlockId> = (0..num_blocks)
        .map(|i| fb.create_block(if i == 0 { Some("entry") } else { None }))
        .collect();
    fb.switch_to(blocks[0]);

    // Accumulators: a small working set, or one crowding the target's
    // register file (pressure tiers).
    let num_accs = match rng.gen_range(0..3u32) {
        0 => rng.gen_range(2..=4usize),
        1 => rng.gen_range(4..=8usize),
        _ => {
            let n = target.num_regs();
            (n + 2).saturating_sub(rng.gen_range(0..=4)).max(4)
        }
    };
    let mut accs = Vec::new();
    for p in 0..num_params.min(num_accs) {
        accs.push(fb.param(p));
    }
    while accs.len() < num_accs {
        let v = fb.li(rng.gen_range(1..1 << 20));
        accs.push(v);
    }
    let data_slots: Vec<_> = (0..rng.gen_range(0..=3usize))
        .map(|_| fb.new_slot())
        .collect();
    for &s in &data_slots {
        let src = accs[rng.gen_range(0..accs.len())];
        fb.emit(InstKind::Store {
            src: Reg::Virt(src),
            slot: s,
            kind: spillopt_ir::MemKind::Data,
        });
    }
    // Fuel slot (never stored to in the entry; activation-init zero) and
    // the limit constant (re-initializing a constant is harmless).
    let fuel_slot = fb.new_slot();
    let limit = fb.li(rng.gen_range(8..=48));

    // A call-free function keeps its argument registers intact, so its
    // entry block — which re-reads them — may be a loop target. Functions
    // with calls may only loop back to the entry when they read no
    // parameters at all; otherwise a post-call re-execution of the entry
    // would read clobbered argument registers (an undefined-input
    // program, not a test subject).
    let no_calls = rng.gen_bool(0.3);
    let entry_loopable = no_calls || num_params == 0;

    let mut d = RawDraw {
        fb,
        blocks,
        accs,
        data_slots,
        fuel_slot,
        limit,
        nparams,
        index,
        max_args: target.arg_regs().len().min(2),
    };

    for i in 0..num_blocks {
        let b = d.blocks[i];
        d.fb.switch_to(b);
        let fuel = d.tick_fuel();
        for _ in 0..rng.gen_range(0..=4usize) {
            d.op(rng);
        }
        if !no_calls && rng.gen_bool(0.3) {
            d.call(rng);
        }

        let last = i == num_blocks - 1;
        let exit_here = last || (i >= 2 && rng.gen_bool(0.12));
        if exit_here {
            d.ret(rng);
            continue;
        }
        let back_lo = if entry_loopable { 0 } else { 1 };
        let r: f64 = rng.gen();
        if r < 0.55 {
            // Branch: fall through to the next block; the taken target is
            // a guarded backward edge (irreducible loops) or a forward
            // jump over blocks (critical-edge meshes).
            let fall = d.blocks[i + 1];
            let can_back = i >= back_lo;
            let backward = can_back && (rng.gen_bool(0.35) || i + 2 >= num_blocks);
            if backward {
                let t = d.blocks[rng.gen_range(back_lo..=i)];
                d.fb.branch(Cond::Lt, Reg::Virt(fuel), Reg::Virt(d.limit), t, fall);
            } else if i + 2 < num_blocks {
                let t = d.blocks[rng.gen_range(i + 2..num_blocks)];
                let (tv, kv, cond) = d.cond_pair(rng);
                d.fb.branch(cond, Reg::Virt(tv), Reg::Virt(kv), t, fall);
            } else {
                // No room for a forward jump and no backward target:
                // fall through implicitly.
            }
        } else if r < 0.75 {
            // Forward jump (jump edge; may make later blocks join-only).
            let t = d.blocks[rng.gen_range(i + 1..num_blocks)];
            d.fb.jump(t);
        }
        // Otherwise: implicit fall-through into the next block.
    }

    d.fb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_ir::{display, parse_module, verify_module};

    #[test]
    fn cases_are_deterministic_and_valid() {
        let target = Target::default();
        for seed in 0..40u64 {
            let a = gen_case(&target, seed);
            let b = gen_case(&target, seed);
            assert_eq!(
                display::module_to_string(&a.module),
                display::module_to_string(&b.module),
                "seed {seed} not deterministic"
            );
            assert_eq!(a.runs, b.runs);
            let errs = verify_module(&a.module, RegDiscipline::Virtual);
            assert!(errs.is_empty(), "seed {seed}: {errs:?}");
            assert!(!a.runs.is_empty());
        }
    }

    #[test]
    fn cases_parse_back_from_text() {
        let target = Target::default();
        for seed in 0..10u64 {
            let case = gen_case(&target, seed);
            let text = display::module_to_string(&case.module);
            let re = parse_module(&text).expect("reparse");
            assert_eq!(re.num_funcs(), case.module.num_funcs());
        }
    }

    #[test]
    fn raw_shapes_reach_interesting_structure() {
        // Across a seed range we must see irreducible or multi-exit or
        // critical-jump-edge shapes — the whole point of the generator.
        let target = Target::default();
        let mut multi_exit = 0;
        let mut crit_jump = 0;
        for seed in 0..30u64 {
            let case = gen_case(&target, seed);
            for (_, f) in case.module.funcs() {
                let cfg = spillopt_ir::Cfg::compute(f);
                if cfg.exit_blocks().len() > 1 {
                    multi_exit += 1;
                }
                if cfg.edge_ids().any(|e| cfg.needs_jump_block(e)) {
                    crit_jump += 1;
                }
            }
        }
        assert!(multi_exit > 5, "multi-exit too rare: {multi_exit}");
        assert!(crit_jump > 5, "critical jump edges too rare: {crit_jump}");
    }

    #[test]
    fn tiny_target_cases_generate() {
        let target = Target::tiny();
        for seed in 0..10u64 {
            let case = gen_case(&target, seed);
            let errs = verify_module(&case.module, RegDiscipline::Virtual);
            assert!(errs.is_empty(), "seed {seed}: {errs:?}");
        }
    }
}
