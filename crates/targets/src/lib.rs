//! # spillopt-targets
//!
//! Concrete backend targets: a registry of [`TargetSpec`]s, each
//! describing one machine's register-file split (caller-/callee-saved,
//! argument and return registers), frame/stack alignment rules, and a
//! [`SpillCostModel`] pricing the instructions the placement passes
//! insert.
//!
//! The paper evaluates on PA-RISC only (13 callee-saved registers,
//! uniform one-instruction saves and restores, jump-edge costs). The
//! registry generalizes that machine model to conventions people compile
//! for today:
//!
//! | target          | callee-saved | save pricing                        |
//! |-----------------|--------------|-------------------------------------|
//! | `pa-risc-like`  | 13           | uniform (the paper's Table 1 setup) |
//! | `x86-64-sysv`   | 6            | cheap `push`/`pop` at entry/exits   |
//! | `aarch64-aapcs64` | 10         | paired `stp`/`ldp` (2 regs/insn)    |
//! | `riscv64-lp64`  | 12           | uniform, RISC-like                  |
//! | `tiny`          | 2            | uniform; test target                |
//!
//! Registers are the IR's abstract `r0..rN`; each spec documents its
//! mapping onto the real machine's register names in
//! [`TargetSpec::reg_note`]. Callee-saved counts stay ≤ 13 so every
//! jump- and pair-sharing divisor divides
//! [`spillopt_core::COST_SCALE`] and all cost arithmetic remains exact.
//!
//! # Examples
//!
//! ```
//! use spillopt_targets::{registry, spec_by_name};
//!
//! assert!(registry().len() >= 4);
//! let aarch64 = spec_by_name("aarch64-aapcs64").unwrap();
//! let target = aarch64.to_target();
//! assert_eq!(target.callee_saved().len(), 10);
//! assert_eq!(aarch64.costs.pair_size, 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use spillopt_core::{InsnCost, SpillCostModel};
use spillopt_ir::{PReg, Target, TargetError};

/// One backend target: calling convention, stack discipline, and spill
/// instruction costs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TargetSpec {
    /// Stable registry name (CLI `--target` value).
    pub name: &'static str,
    /// One-line human description.
    pub description: &'static str,
    /// How the IR's abstract `rN` numbers map onto the machine's
    /// registers.
    pub reg_note: &'static str,
    /// Caller-saved (call-clobbered) register numbers.
    pub caller_saved: Vec<u8>,
    /// Callee-saved (call-preserved) register numbers — the registers
    /// the placement passes insert save/restore code for.
    pub callee_saved: Vec<u8>,
    /// The return-value register (must be caller-saved).
    pub ret_reg: u8,
    /// Argument registers, in order (must be caller-saved).
    pub arg_regs: Vec<u8>,
    /// Required stack-pointer alignment at call sites, in bytes.
    pub stack_align: u32,
    /// Size of one callee-saved spill slot, in bytes.
    pub slot_size: u32,
    /// The target's spill instruction cost model.
    pub costs: SpillCostModel,
}

impl TargetSpec {
    /// Builds the [`Target`] convention this spec describes, validating
    /// it.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`TargetError`] for malformed
    /// (user-supplied) conventions.
    pub fn try_to_target(&self) -> Result<Target, TargetError> {
        Target::try_new(
            self.name,
            self.caller_saved.iter().copied().map(PReg::new).collect(),
            self.callee_saved.iter().copied().map(PReg::new).collect(),
            PReg::new(self.ret_reg),
            self.arg_regs.iter().copied().map(PReg::new).collect(),
        )
    }

    /// Builds the [`Target`] convention this spec describes.
    ///
    /// # Panics
    ///
    /// Panics if the spec is malformed; registry specs are validated by
    /// tests, so this only fires for hand-built specs (use
    /// [`TargetSpec::try_to_target`] for those).
    pub fn to_target(&self) -> Target {
        self.try_to_target()
            .unwrap_or_else(|e| panic!("invalid target spec `{}`: {e}", self.name))
    }

    /// The frame bytes needed to spill every callee-saved register,
    /// rounded up to the stack alignment — the worst-case frame growth
    /// an entry/exit placement implies.
    pub fn max_spill_area(&self) -> u32 {
        let raw = self.callee_saved.len() as u32 * self.slot_size;
        raw.next_multiple_of(self.stack_align.max(1))
    }
}

/// The paper's PA-RISC-like machine: 24 allocatable registers, 13
/// callee-saved, every spill instruction costs one unit.
pub fn pa_risc_like() -> TargetSpec {
    TargetSpec {
        name: "pa-risc-like",
        description: "the paper's PA-RISC convention: 13 callee-saved of 24, uniform costs",
        reg_note: "r0=ret, r1-r4=args, r0-r10 caller-saved, r11-r23 callee-saved (as in the paper)",
        caller_saved: (0..11).collect(),
        callee_saved: (11..24).collect(),
        ret_reg: 0,
        arg_regs: (1..5).collect(),
        stack_align: 8,
        slot_size: 8,
        costs: SpillCostModel::UNIT,
    }
}

/// x86-64 System V: 15 allocatable general-purpose registers (RSP is
/// reserved), only 6 callee-saved, and cheap one-byte `push`/`pop`
/// prologue/epilogue saves (modeled at half a `mov`-to-frame).
pub fn x86_64_sysv() -> TargetSpec {
    TargetSpec {
        name: "x86-64-sysv",
        description: "x86-64 System V: 6 callee-saved of 15, push/pop entry saves at half cost",
        reg_note: "r0=rax(ret), r1=rdi r2=rsi r3=rdx r4=rcx r5=r8 r6=r9 (args), r7=r10 r8=r11, \
                   r9=rbx r10=rbp r11-r14=r12-r15 callee-saved",
        caller_saved: (0..9).collect(),
        callee_saved: (9..15).collect(),
        ret_reg: 0,
        arg_regs: (1..7).collect(),
        stack_align: 16,
        slot_size: 8,
        costs: SpillCostModel {
            save: InsnCost::ONE,
            restore: InsnCost::ONE,
            entry_save: InsnCost::new(1, 2),
            exit_restore: InsnCost::new(1, 2),
            jump: InsnCost::ONE,
            pair_size: 1,
        },
    }
}

/// AArch64 AAPCS64: 26 allocatable registers (x16-x18, fp, lr reserved),
/// 10 callee-saved, and paired `stp`/`ldp` saves — one instruction
/// covers two registers placed at the same location.
pub fn aarch64_aapcs64() -> TargetSpec {
    TargetSpec {
        name: "aarch64-aapcs64",
        description: "AArch64 AAPCS64: 10 callee-saved of 26, stp/ldp pairs two regs per insn",
        reg_note: "r0-r7=x0-x7 (args, r0=ret), r8-r15=x8-x15, r16-r25=x19-x28 callee-saved \
                   (x16-x18/fp/lr reserved)",
        caller_saved: (0..16).collect(),
        callee_saved: (16..26).collect(),
        ret_reg: 0,
        arg_regs: (0..8).collect(),
        stack_align: 16,
        slot_size: 8,
        costs: SpillCostModel {
            save: InsnCost::ONE,
            restore: InsnCost::ONE,
            entry_save: InsnCost::ONE,
            exit_restore: InsnCost::ONE,
            jump: InsnCost::ONE,
            pair_size: 2,
        },
    }
}

/// RISC-V LP64: 27 allocatable registers, 12 callee-saved (`s0-s11`),
/// uniform one-instruction saves like PA-RISC but a different split.
pub fn riscv64_lp64() -> TargetSpec {
    TargetSpec {
        name: "riscv64-lp64",
        description: "RISC-V LP64: 12 callee-saved of 27, uniform RISC costs",
        reg_note: "r0-r7=a0-a7 (args, r0=ret), r8-r14=t0-t6, r15-r26=s0-s11 callee-saved",
        caller_saved: (0..15).collect(),
        callee_saved: (15..27).collect(),
        ret_reg: 0,
        arg_regs: (0..8).collect(),
        stack_align: 16,
        slot_size: 8,
        costs: SpillCostModel::UNIT,
    }
}

/// The tiny test target: 2 caller- and 2 callee-saved registers, enough
/// to force callee-saved pressure in unit tests.
pub fn tiny() -> TargetSpec {
    TargetSpec {
        name: "tiny",
        description: "4-register test target forcing callee-saved pressure",
        reg_note: "r0=ret, r1=arg caller-saved; r2, r3 callee-saved",
        caller_saved: vec![0, 1],
        callee_saved: vec![2, 3],
        ret_reg: 0,
        arg_regs: vec![1],
        stack_align: 8,
        slot_size: 8,
        costs: SpillCostModel::UNIT,
    }
}

/// Every registered target, in stable registry order (the paper's
/// machine first).
///
/// The [`tiny`] test target is deliberately not registered: with a
/// single argument register it cannot lower the generated benchmark
/// modules, so it would break any fan-out over the registry. It remains
/// reachable by name through [`spec_by_name`] for hand-built inputs and
/// tests.
pub fn registry() -> Vec<TargetSpec> {
    vec![
        pa_risc_like(),
        x86_64_sysv(),
        aarch64_aapcs64(),
        riscv64_lp64(),
    ]
}

/// Looks a target up by name: the registry plus the unregistered
/// [`tiny`] test target.
pub fn spec_by_name(name: &str) -> Option<TargetSpec> {
    registry()
        .into_iter()
        .chain(std::iter::once(tiny()))
        .find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_core::COST_SCALE;

    #[test]
    fn every_registered_spec_is_valid() {
        let specs = registry();
        assert!(specs.len() >= 4);
        for spec in &specs {
            let target = spec
                .try_to_target()
                .unwrap_or_else(|e| panic!("registry spec `{}` invalid: {e}", spec.name));
            assert_eq!(target.name(), spec.name);
            assert_eq!(
                target.num_regs(),
                spec.caller_saved.len() + spec.callee_saved.len()
            );
            // Exact cost arithmetic: every sharing divisor must divide
            // COST_SCALE. Jump shares go up to the callee-saved count,
            // pair shares up to pair_size.
            for share in 1..=spec.callee_saved.len() as u64 {
                assert_eq!(COST_SCALE % share, 0, "{}: share {share}", spec.name);
            }
            assert!(spec.costs.pair_size >= 1);
            assert!(spec.stack_align.is_power_of_two());
            assert!(spec.max_spill_area() % spec.stack_align == 0);
        }
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let mut specs = registry();
        specs.push(tiny());
        for (i, s) in specs.iter().enumerate() {
            assert!(
                specs[i + 1..].iter().all(|o| o.name != s.name),
                "duplicate target name {}",
                s.name
            );
            assert_eq!(spec_by_name(s.name).as_ref(), Some(s));
        }
        assert!(spec_by_name("no-such-target").is_none());
        // Registered targets must all have enough argument registers for
        // the generated benchmarks (benchgen's BENCH_NUM_PARAMS = 2);
        // `tiny` has only one and stays out.
        assert!(registry().iter().all(|s| s.arg_regs.len() >= 2));
        assert!(registry().iter().all(|s| s.name != "tiny"));
    }

    #[test]
    fn conventions_match_their_machines() {
        let x86 = x86_64_sysv().to_target();
        assert_eq!(x86.callee_saved().len(), 6);
        assert_eq!(x86.arg_regs().len(), 6);
        let a64 = aarch64_aapcs64();
        assert_eq!(a64.to_target().callee_saved().len(), 10);
        assert_eq!(a64.costs.pair_size, 2);
        let rv = riscv64_lp64().to_target();
        assert_eq!(rv.callee_saved().len(), 12);
        // The paper's machine stays the default convention.
        assert_eq!(pa_risc_like().to_target(), spillopt_ir::Target::default());
        assert_eq!(tiny().to_target(), spillopt_ir::Target::tiny());
    }

    #[test]
    fn class_tests_match_the_lists_on_every_target() {
        for spec in registry().iter().chain([&tiny()]) {
            let t = spec.to_target();
            for i in 0..=255u8 {
                let p = PReg::new(i);
                let name = spec.name;
                assert_eq!(
                    t.is_caller_saved(p),
                    t.caller_saved().contains(&p),
                    "{name} {p}"
                );
                assert_eq!(
                    t.is_callee_saved(p),
                    t.callee_saved().contains(&p),
                    "{name} {p}"
                );
                assert_eq!(
                    t.callee_saved_slot(p),
                    t.callee_saved().iter().position(|&q| q == p),
                    "{name} {p}"
                );
            }
        }
    }

    #[test]
    fn malformed_user_spec_surfaces_an_error() {
        let mut bad = x86_64_sysv();
        bad.callee_saved.push(0); // overlaps caller-saved r0
        assert!(matches!(
            bad.try_to_target(),
            Err(spillopt_ir::TargetError::Overlap(_))
        ));
    }
}
