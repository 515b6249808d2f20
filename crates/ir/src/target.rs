//! Target machine description: register file and calling convention.

use crate::ids::PReg;
use std::fmt;

/// A malformed register convention, reported by [`Target::try_new`].
///
/// User-supplied conventions (e.g. from the target registry) surface
/// these as ordinary errors; the built-in presets use the infallible
/// [`Target::new`], which panics on them instead — a preset that fails
/// validation is a bug, not an input condition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TargetError {
    /// A register appears in both the caller- and callee-saved sets.
    Overlap(PReg),
    /// A register appears twice within the caller- or callee-saved set.
    Duplicate(PReg),
    /// The return register is not caller-saved.
    RetNotCallerSaved(PReg),
    /// An argument register is not caller-saved.
    ArgNotCallerSaved(PReg),
    /// More callee-saved registers than [`MAX_CALLEE_SAVED`]: the
    /// post-allocation analyses hold one bit per callee-saved register
    /// in a single `u64` word per block.
    TooManyCalleeSaved(usize),
}

/// The most callee-saved registers a [`Target`] may have (one bit each
/// in a `u64` word; see [`Target::callee_saved_slot`]).
pub const MAX_CALLEE_SAVED: usize = 64;

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetError::Overlap(p) => {
                write!(f, "register {p} is both caller- and callee-saved")
            }
            TargetError::Duplicate(p) => {
                write!(f, "register {p} is listed twice in the register file")
            }
            TargetError::RetNotCallerSaved(p) => {
                write!(f, "return register {p} must be caller-saved")
            }
            TargetError::ArgNotCallerSaved(p) => {
                write!(f, "argument register {p} must be caller-saved")
            }
            TargetError::TooManyCalleeSaved(n) => {
                write!(
                    f,
                    "{n} callee-saved registers exceed the limit of {MAX_CALLEE_SAVED}"
                )
            }
        }
    }
}

impl std::error::Error for TargetError {}

/// Description of the target machine's register file and register-usage
/// convention.
///
/// The paper's experiments target PA-RISC with 24 general-purpose registers
/// available for allocation, 13 of which are callee-saved;
/// [`Target::pa_risc_like`] reproduces that convention.
#[derive(Clone, PartialEq, Eq)]
pub struct Target {
    name: String,
    caller_saved: Vec<PReg>,
    callee_saved: Vec<PReg>,
    ret_reg: PReg,
    arg_regs: Vec<PReg>,
    /// Register class by register number, derived from the two lists:
    /// [`NOT_ALLOCATABLE`], [`CALLER_SAVED`], or `CALLEE_SAVED_BASE + i`
    /// for `callee_saved[i]`.
    class: [u8; 256],
}

/// Class-table entry of a register in neither list.
const NOT_ALLOCATABLE: u8 = 0;
/// Class-table entry of a caller-saved register.
const CALLER_SAVED: u8 = 1;
/// Class-table entry of `callee_saved[0]`; slot `i` is stored as
/// `CALLEE_SAVED_BASE + i` (at most 2 + 63, so it fits a `u8`).
const CALLEE_SAVED_BASE: u8 = 2;

impl fmt::Debug for Target {
    /// The convention's lists; the class table is derived from them.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Target")
            .field("name", &self.name)
            .field("caller_saved", &self.caller_saved)
            .field("callee_saved", &self.callee_saved)
            .field("ret_reg", &self.ret_reg)
            .field("arg_regs", &self.arg_regs)
            .finish()
    }
}

impl Target {
    /// Creates a target from an explicit convention, validating it.
    ///
    /// # Errors
    ///
    /// Returns a [`TargetError`] if the caller- and callee-saved sets
    /// overlap, either set repeats a register, the return/argument
    /// registers are not caller-saved, or there are more than
    /// [`MAX_CALLEE_SAVED`] callee-saved registers.
    pub fn try_new(
        name: impl Into<String>,
        caller_saved: Vec<PReg>,
        callee_saved: Vec<PReg>,
        ret_reg: PReg,
        arg_regs: Vec<PReg>,
    ) -> Result<Self, TargetError> {
        for (i, p) in caller_saved.iter().enumerate() {
            if caller_saved[..i].contains(p) {
                return Err(TargetError::Duplicate(*p));
            }
            if callee_saved.contains(p) {
                return Err(TargetError::Overlap(*p));
            }
        }
        for (i, p) in callee_saved.iter().enumerate() {
            if callee_saved[..i].contains(p) {
                return Err(TargetError::Duplicate(*p));
            }
        }
        if !caller_saved.contains(&ret_reg) {
            return Err(TargetError::RetNotCallerSaved(ret_reg));
        }
        for a in &arg_regs {
            if !caller_saved.contains(a) {
                return Err(TargetError::ArgNotCallerSaved(*a));
            }
        }
        if callee_saved.len() > MAX_CALLEE_SAVED {
            return Err(TargetError::TooManyCalleeSaved(callee_saved.len()));
        }
        let mut class = [NOT_ALLOCATABLE; 256];
        for p in &caller_saved {
            class[p.index()] = CALLER_SAVED;
        }
        for (i, p) in callee_saved.iter().enumerate() {
            class[p.index()] = CALLEE_SAVED_BASE + i as u8;
        }
        Ok(Target {
            name: name.into(),
            caller_saved,
            callee_saved,
            ret_reg,
            arg_regs,
            class,
        })
    }

    /// Creates a target from an explicit convention. Reserved for the
    /// built-in presets and tests; user-supplied conventions should go
    /// through [`Target::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if the convention fails [`Target::try_new`] validation.
    pub fn new(
        name: impl Into<String>,
        caller_saved: Vec<PReg>,
        callee_saved: Vec<PReg>,
        ret_reg: PReg,
        arg_regs: Vec<PReg>,
    ) -> Self {
        Target::try_new(name, caller_saved, callee_saved, ret_reg, arg_regs)
            .unwrap_or_else(|e| panic!("invalid built-in target convention: {e}"))
    }

    /// A PA-RISC-like convention matching the paper's experiments:
    /// 24 allocatable general-purpose registers, `r0..r10` caller-saved
    /// (11 registers, including the return register `r0` and argument
    /// registers `r1..r4`), and `r11..r23` callee-saved (13 registers).
    pub fn pa_risc_like() -> Self {
        let caller: Vec<PReg> = (0..11).map(PReg::new).collect();
        let callee: Vec<PReg> = (11..24).map(PReg::new).collect();
        let args: Vec<PReg> = (1..5).map(PReg::new).collect();
        Target::new("pa-risc-like", caller, callee, PReg::new(0), args)
    }

    /// A tiny target with 2 caller-saved and 2 callee-saved registers;
    /// useful in tests to force spilling and callee-saved pressure.
    pub fn tiny() -> Self {
        Target::new(
            "tiny",
            vec![PReg::new(0), PReg::new(1)],
            vec![PReg::new(2), PReg::new(3)],
            PReg::new(0),
            vec![PReg::new(1)],
        )
    }

    /// Returns the target's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers NOT preserved across calls.
    pub fn caller_saved(&self) -> &[PReg] {
        &self.caller_saved
    }

    /// Registers preserved across calls; using one in a procedure requires
    /// save/restore code, which is what the placement passes optimize.
    pub fn callee_saved(&self) -> &[PReg] {
        &self.callee_saved
    }

    /// The register holding a function's return value.
    pub fn ret_reg(&self) -> PReg {
        self.ret_reg
    }

    /// Registers carrying the first arguments of a call.
    pub fn arg_regs(&self) -> &[PReg] {
        &self.arg_regs
    }

    /// Every allocatable register, caller-saved first (the allocator's
    /// preference order for values that do not cross calls).
    pub fn allocatable(&self) -> impl Iterator<Item = PReg> + '_ {
        self.caller_saved.iter().chain(&self.callee_saved).copied()
    }

    /// Total number of allocatable registers.
    pub fn num_regs(&self) -> usize {
        self.caller_saved.len() + self.callee_saved.len()
    }

    /// The smallest dense index strictly greater than every register
    /// number (for building entity maps over physical registers).
    pub fn reg_index_limit(&self) -> usize {
        self.allocatable().map(|p| p.index() + 1).max().unwrap_or(0)
    }

    /// Returns `true` if `p` is callee-saved under this convention.
    pub fn is_callee_saved(&self, p: PReg) -> bool {
        self.class[p.index()] >= CALLEE_SAVED_BASE
    }

    /// Returns `true` if `p` is caller-saved under this convention.
    pub fn is_caller_saved(&self, p: PReg) -> bool {
        self.class[p.index()] == CALLER_SAVED
    }

    /// The position of `p` in [`Target::callee_saved`], if it is
    /// callee-saved: a bit index below [`MAX_CALLEE_SAVED`], so a set of
    /// callee-saved registers fits one `u64` word.
    pub fn callee_saved_slot(&self, p: PReg) -> Option<usize> {
        let class = self.class[p.index()];
        (class >= CALLEE_SAVED_BASE).then(|| usize::from(class - CALLEE_SAVED_BASE))
    }
}

impl Default for Target {
    /// The default target is the paper's PA-RISC-like convention.
    fn default() -> Self {
        Target::pa_risc_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pa_risc_convention_matches_paper() {
        let t = Target::pa_risc_like();
        assert_eq!(t.num_regs(), 24);
        assert_eq!(t.callee_saved().len(), 13);
        assert_eq!(t.caller_saved().len(), 11);
        assert!(t.is_caller_saved(t.ret_reg()));
        for a in t.arg_regs() {
            assert!(t.is_caller_saved(*a));
        }
        assert!(t.is_callee_saved(PReg::new(11)));
        assert!(!t.is_callee_saved(PReg::new(10)));
        assert_eq!(t.reg_index_limit(), 24);
        assert_eq!(t.allocatable().count(), 24);
    }

    #[test]
    fn overlapping_sets_rejected() {
        let err = Target::try_new(
            "bad",
            vec![PReg::new(0)],
            vec![PReg::new(0)],
            PReg::new(0),
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, TargetError::Overlap(PReg::new(0)));
        assert!(err.to_string().contains("both caller- and callee-saved"));
    }

    #[test]
    fn duplicate_registers_rejected() {
        let err = Target::try_new(
            "bad",
            vec![PReg::new(0), PReg::new(0)],
            vec![],
            PReg::new(0),
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, TargetError::Duplicate(PReg::new(0)));
        let err = Target::try_new(
            "bad",
            vec![PReg::new(0)],
            vec![PReg::new(1), PReg::new(1)],
            PReg::new(0),
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, TargetError::Duplicate(PReg::new(1)));
    }

    #[test]
    fn callee_saved_ret_rejected() {
        let err = Target::try_new(
            "bad",
            vec![PReg::new(0)],
            vec![PReg::new(1)],
            PReg::new(1),
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, TargetError::RetNotCallerSaved(PReg::new(1)));
    }

    #[test]
    fn callee_saved_arg_rejected() {
        let err = Target::try_new(
            "bad",
            vec![PReg::new(0)],
            vec![PReg::new(1)],
            PReg::new(0),
            vec![PReg::new(1)],
        )
        .unwrap_err();
        assert_eq!(err, TargetError::ArgNotCallerSaved(PReg::new(1)));
    }

    /// `n` callee-saved registers `r1..=rn` over caller-saved `r0`.
    fn with_callee_saved(n: usize) -> Result<Target, TargetError> {
        Target::try_new(
            "wide",
            vec![PReg::new(0)],
            (1..=n).map(|i| PReg::new(i as u8)).collect(),
            PReg::new(0),
            vec![],
        )
    }

    #[test]
    fn callee_saved_limit_is_one_word() {
        let t = with_callee_saved(MAX_CALLEE_SAVED).expect("64 callee-saved fit");
        assert_eq!(t.callee_saved_slot(PReg::new(64)), Some(63));
        assert_eq!(t.callee_saved_slot(PReg::new(1)), Some(0));
        assert_eq!(t.callee_saved_slot(PReg::new(0)), None);
        let err = with_callee_saved(MAX_CALLEE_SAVED + 1).unwrap_err();
        assert_eq!(err, TargetError::TooManyCalleeSaved(65));
        assert!(err.to_string().contains("limit of 64"));
    }

    #[test]
    fn class_table_matches_the_lists() {
        let t = Target::new(
            "scattered",
            vec![PReg::new(9), PReg::new(2), PReg::new(200)],
            vec![PReg::new(255), PReg::new(4), PReg::new(17)],
            PReg::new(2),
            vec![PReg::new(9)],
        );
        for i in 0..=255u8 {
            let p = PReg::new(i);
            assert_eq!(t.is_caller_saved(p), t.caller_saved().contains(&p), "{p}");
            assert_eq!(t.is_callee_saved(p), t.callee_saved().contains(&p), "{p}");
            assert_eq!(
                t.callee_saved_slot(p),
                t.callee_saved().iter().position(|&q| q == p),
                "{p}"
            );
        }
        assert!(!format!("{t:?}").contains("class"));
    }

    #[test]
    #[should_panic(expected = "invalid built-in target convention")]
    fn infallible_new_still_guards_presets() {
        Target::new(
            "bad",
            vec![PReg::new(0)],
            vec![PReg::new(0)],
            PReg::new(0),
            vec![],
        );
    }
}
