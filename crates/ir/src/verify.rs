//! Structural verification of functions and modules.

use crate::cfg::Cfg;
use crate::function::Function;
use crate::ids::{BlockId, Reg};
use crate::inst::{Callee, InstKind};
use crate::module::Module;
use std::error::Error;
use std::fmt;

/// A structural invariant violation found by the verifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The function has no blocks.
    Empty {
        /// Function name.
        func: String,
    },
    /// A terminator appears before the end of a block.
    TerminatorInBody {
        /// Function name.
        func: String,
        /// Offending block.
        block: BlockId,
        /// Instruction index within the block.
        index: usize,
    },
    /// The last block in layout falls through (there is nothing to fall
    /// into).
    FallthroughAtEnd {
        /// Function name.
        func: String,
        /// Offending block.
        block: BlockId,
    },
    /// A branch's fall-through target is not the next block in layout.
    BadFallthrough {
        /// Function name.
        func: String,
        /// Offending block.
        block: BlockId,
        /// The branch's fall-through target.
        target: BlockId,
        /// The actual next block in layout.
        next: Option<BlockId>,
    },
    /// A branch whose taken and fall-through targets coincide (must be a
    /// jump instead; this would create parallel CFG edges).
    ParallelEdges {
        /// Function name.
        func: String,
        /// Offending block.
        block: BlockId,
    },
    /// A terminator references a block id that does not exist.
    BadTarget {
        /// Function name.
        func: String,
        /// Offending block.
        block: BlockId,
        /// The out-of-range target.
        target: BlockId,
    },
    /// A memory access references a frame slot past the frame size.
    BadSlot {
        /// Function name.
        func: String,
        /// Offending block.
        block: BlockId,
        /// Instruction index within the block.
        index: usize,
    },
    /// A virtual register index is past the function's vreg counter.
    BadVReg {
        /// Function name.
        func: String,
        /// Offending block.
        block: BlockId,
        /// Instruction index within the block.
        index: usize,
    },
    /// A block is unreachable from the entry.
    Unreachable {
        /// Function name.
        func: String,
        /// Offending block.
        block: BlockId,
    },
    /// A block cannot reach any return (post-dominance and the PST would be
    /// undefined).
    NoExitPath {
        /// Function name.
        func: String,
        /// Offending block.
        block: BlockId,
    },
    /// The function contains no return.
    NoReturn {
        /// Function name.
        func: String,
    },
    /// A virtual register appears although the function is expected to be
    /// fully physical (post-register-allocation).
    VirtualAfterRegalloc {
        /// Function name.
        func: String,
        /// Offending block.
        block: BlockId,
        /// Instruction index within the block.
        index: usize,
    },
    /// A call references a function id outside the module.
    BadCallee {
        /// Function name.
        func: String,
        /// Offending block.
        block: BlockId,
    },
}

impl VerifyError {
    /// Name of the function the error is in.
    pub fn func(&self) -> &str {
        match self {
            VerifyError::Empty { func }
            | VerifyError::TerminatorInBody { func, .. }
            | VerifyError::FallthroughAtEnd { func, .. }
            | VerifyError::BadFallthrough { func, .. }
            | VerifyError::ParallelEdges { func, .. }
            | VerifyError::BadTarget { func, .. }
            | VerifyError::BadSlot { func, .. }
            | VerifyError::BadVReg { func, .. }
            | VerifyError::Unreachable { func, .. }
            | VerifyError::NoExitPath { func, .. }
            | VerifyError::NoReturn { func }
            | VerifyError::VirtualAfterRegalloc { func, .. }
            | VerifyError::BadCallee { func, .. } => func,
        }
    }

    /// The offending block, when the error names one.
    pub fn block(&self) -> Option<BlockId> {
        match self {
            VerifyError::Empty { .. } | VerifyError::NoReturn { .. } => None,
            VerifyError::TerminatorInBody { block, .. }
            | VerifyError::FallthroughAtEnd { block, .. }
            | VerifyError::BadFallthrough { block, .. }
            | VerifyError::ParallelEdges { block, .. }
            | VerifyError::BadTarget { block, .. }
            | VerifyError::BadSlot { block, .. }
            | VerifyError::BadVReg { block, .. }
            | VerifyError::Unreachable { block, .. }
            | VerifyError::NoExitPath { block, .. }
            | VerifyError::VirtualAfterRegalloc { block, .. }
            | VerifyError::BadCallee { block, .. } => Some(*block),
        }
    }

    /// The offending instruction's index within its block, when the
    /// error names one.
    pub fn inst_index(&self) -> Option<usize> {
        match self {
            VerifyError::TerminatorInBody { index, .. }
            | VerifyError::BadSlot { index, .. }
            | VerifyError::BadVReg { index, .. }
            | VerifyError::VirtualAfterRegalloc { index, .. } => Some(*index),
            _ => None,
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Empty { func } => write!(f, "function {func} has no blocks"),
            VerifyError::TerminatorInBody { func, block, index } => {
                write!(f, "{func}/{block}: terminator at non-final index {index}")
            }
            VerifyError::FallthroughAtEnd { func, block } => {
                write!(f, "{func}/{block}: last block in layout falls through")
            }
            VerifyError::BadFallthrough {
                func,
                block,
                target,
                next,
            } => write!(
                f,
                "{func}/{block}: branch fall-through {target} is not the layout successor {next:?}"
            ),
            VerifyError::ParallelEdges { func, block } => {
                write!(
                    f,
                    "{func}/{block}: branch with identical taken/fall-through targets"
                )
            }
            VerifyError::BadTarget {
                func,
                block,
                target,
            } => {
                write!(
                    f,
                    "{func}/{block}: terminator targets unknown block {target}"
                )
            }
            VerifyError::BadSlot { func, block, index } => {
                write!(
                    f,
                    "{func}/{block}: instruction {index} references slot out of frame"
                )
            }
            VerifyError::BadVReg { func, block, index } => {
                write!(
                    f,
                    "{func}/{block}: instruction {index} references unallocated vreg"
                )
            }
            VerifyError::Unreachable { func, block } => {
                write!(f, "{func}/{block}: unreachable from entry")
            }
            VerifyError::NoExitPath { func, block } => {
                write!(f, "{func}/{block}: no path to any return")
            }
            VerifyError::NoReturn { func } => write!(f, "function {func} has no return"),
            VerifyError::VirtualAfterRegalloc { func, block, index } => {
                write!(
                    f,
                    "{func}/{block}: instruction {index} uses a virtual register post-RA"
                )
            }
            VerifyError::BadCallee { func, block } => {
                write!(f, "{func}/{block}: call references unknown function")
            }
        }
    }
}

impl Error for VerifyError {}

/// Expected register discipline of a function.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegDiscipline {
    /// Before register allocation: virtual registers allowed (physical
    /// registers allowed at ABI points too).
    Virtual,
    /// After register allocation: physical registers only.
    Physical,
}

/// Verifies the structural invariants of `func`. Returns all violations.
pub fn verify_function(func: &Function, discipline: RegDiscipline) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    let name = func.name().to_string();
    if func.num_blocks() == 0 {
        errors.push(VerifyError::Empty { func: name });
        return errors;
    }

    let num_blocks = func.num_blocks();
    let mut has_return = false;
    // Each block's layout successor, read in one pass over the layout.
    let mut layout_next = vec![None; num_blocks];
    for pair in func.layout().windows(2) {
        layout_next[pair[0].index()] = Some(pair[1]);
    }

    for b in func.block_ids() {
        let block = func.block(b);
        for (i, inst) in block.insts.iter().enumerate() {
            if inst.is_terminator() && i + 1 != block.insts.len() {
                errors.push(VerifyError::TerminatorInBody {
                    func: name.clone(),
                    block: b,
                    index: i,
                });
            }
            let check_reg = |r: Reg, errors: &mut Vec<VerifyError>| match r {
                Reg::Virt(v) => {
                    if v.index() >= func.num_vregs() {
                        errors.push(VerifyError::BadVReg {
                            func: name.clone(),
                            block: b,
                            index: i,
                        });
                    }
                    if discipline == RegDiscipline::Physical {
                        errors.push(VerifyError::VirtualAfterRegalloc {
                            func: name.clone(),
                            block: b,
                            index: i,
                        });
                    }
                }
                Reg::Phys(_) => {}
            };
            inst.for_each_use(|r| check_reg(r, &mut errors));
            inst.for_each_def(|r| check_reg(r, &mut errors));
            match &inst.kind {
                InstKind::Load { slot, .. } | InstKind::Store { slot, .. }
                    if slot.index() >= func.frame().num_slots() =>
                {
                    errors.push(VerifyError::BadSlot {
                        func: name.clone(),
                        block: b,
                        index: i,
                    });
                }
                InstKind::Return { .. } => has_return = true,
                _ => {}
            }
        }

        match block.terminator().map(|t| &t.kind) {
            Some(InstKind::Jump { target }) => {
                if target.index() >= num_blocks {
                    errors.push(VerifyError::BadTarget {
                        func: name.clone(),
                        block: b,
                        target: *target,
                    });
                }
            }
            Some(InstKind::Branch {
                taken, fallthrough, ..
            }) => {
                for t in [taken, fallthrough] {
                    if t.index() >= num_blocks {
                        errors.push(VerifyError::BadTarget {
                            func: name.clone(),
                            block: b,
                            target: *t,
                        });
                    }
                }
                if taken == fallthrough {
                    errors.push(VerifyError::ParallelEdges {
                        func: name.clone(),
                        block: b,
                    });
                }
                if taken.index() < num_blocks && fallthrough.index() < num_blocks {
                    let next = layout_next[b.index()];
                    if next != Some(*fallthrough) {
                        errors.push(VerifyError::BadFallthrough {
                            func: name.clone(),
                            block: b,
                            target: *fallthrough,
                            next,
                        });
                    }
                }
            }
            Some(InstKind::Return { .. }) => {}
            Some(_) => unreachable!(),
            None => {
                if layout_next[b.index()].is_none() {
                    errors.push(VerifyError::FallthroughAtEnd {
                        func: name.clone(),
                        block: b,
                    });
                }
            }
        }
    }

    if !has_return {
        errors.push(VerifyError::NoReturn { func: name.clone() });
    }

    // Reachability / co-reachability checks only make sense on a graph with
    // no dangling targets.
    if errors.is_empty() {
        let cfg = Cfg::compute(func);
        let reachable = cfg.reachable_blocks();
        for b in func.block_ids() {
            if !reachable.contains(b.index()) {
                errors.push(VerifyError::Unreachable {
                    func: name.clone(),
                    block: b,
                });
            }
        }
        // Backward reachability from returns.
        let mut coreach = crate::bitset::DenseBitSet::new(num_blocks);
        let mut stack: Vec<BlockId> = cfg.exit_blocks().to_vec();
        for &b in cfg.exit_blocks() {
            coreach.insert(b.index());
        }
        while let Some(b) = stack.pop() {
            for p in cfg.pred_blocks(b) {
                if coreach.insert(p.index()) {
                    stack.push(p);
                }
            }
        }
        for b in func.block_ids() {
            if reachable.contains(b.index()) && !coreach.contains(b.index()) {
                errors.push(VerifyError::NoExitPath {
                    func: name.clone(),
                    block: b,
                });
            }
        }
    }

    errors
}

/// Verifies every function of a module plus cross-function call targets.
pub fn verify_module(module: &Module, discipline: RegDiscipline) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    for (_, func) in module.funcs() {
        errors.extend(verify_function(func, discipline));
        for b in func.block_ids() {
            for inst in &func.block(b).insts {
                if let InstKind::Call {
                    callee: Callee::Func(id),
                    ..
                } = &inst.kind
                {
                    if id.index() >= module.num_funcs() {
                        errors.push(VerifyError::BadCallee {
                            func: func.name().to_string(),
                            block: b,
                        });
                    }
                }
            }
        }
    }
    errors
}

/// Panics with a readable report if `func` fails verification.
///
/// # Panics
///
/// Panics when verification errors exist; the message lists all of them.
pub fn assert_valid(func: &Function, discipline: RegDiscipline) {
    let errors = verify_function(func, discipline);
    if !errors.is_empty() {
        let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        panic!(
            "IR verification failed for `{}`:\n  {}\n{}",
            func.name(),
            msgs.join("\n  "),
            crate::display::function_to_string(func)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ids::Reg;
    use crate::inst::Cond;

    fn valid_function() -> Function {
        let mut fb = FunctionBuilder::new("ok", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        fb.switch_to(a);
        let x = fb.li(0);
        let y = fb.li(1);
        fb.branch(Cond::Lt, Reg::Virt(x), Reg::Virt(y), b, b);
        // Deliberately invalid here; fixed below.
        let mut f = fb.finish();
        // Rewrite branch into a jump so the function is valid.
        let last = f.block_mut(a).insts.pop().unwrap();
        drop(last);
        f.block_mut(a)
            .insts
            .push(crate::inst::Inst::new(InstKind::Jump { target: b }));
        f.block_mut(b)
            .insts
            .push(crate::inst::Inst::new(InstKind::Return { value: None }));
        f
    }

    #[test]
    fn accepts_valid_function() {
        let f = valid_function();
        assert!(verify_function(&f, RegDiscipline::Virtual).is_empty());
    }

    #[test]
    fn rejects_bad_fallthrough() {
        let mut fb = FunctionBuilder::new("bad", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        let c = fb.create_block(None);
        fb.switch_to(a);
        let x = fb.li(0);
        // fallthrough c, but layout-next of a is b.
        fb.branch(Cond::Eq, Reg::Virt(x), Reg::Virt(x), b, c);
        fb.switch_to(b);
        fb.ret(None);
        fb.switch_to(c);
        fb.ret(None);
        let f = fb.finish();
        let errs = verify_function(&f, RegDiscipline::Virtual);
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::BadFallthrough { .. })));
    }

    #[test]
    fn rejects_parallel_edges() {
        let mut fb = FunctionBuilder::new("bad", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        fb.switch_to(a);
        let x = fb.li(0);
        fb.branch(Cond::Eq, Reg::Virt(x), Reg::Virt(x), b, b);
        fb.switch_to(b);
        fb.ret(None);
        let f = fb.finish();
        let errs = verify_function(&f, RegDiscipline::Virtual);
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::ParallelEdges { .. })));
    }

    #[test]
    fn rejects_unreachable_block() {
        let mut fb = FunctionBuilder::new("bad", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        let c = fb.create_block(None);
        fb.switch_to(a);
        fb.jump(c);
        fb.switch_to(b);
        fb.ret(None);
        fb.switch_to(c);
        fb.ret(None);
        let f = fb.finish();
        let errs = verify_function(&f, RegDiscipline::Virtual);
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::Unreachable { .. })));
    }

    #[test]
    fn rejects_infinite_loop_region() {
        let mut fb = FunctionBuilder::new("bad", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        fb.switch_to(a);
        fb.jump(b);
        fb.switch_to(b);
        fb.jump(b);
        let f = fb.finish();
        let errs = verify_function(&f, RegDiscipline::Virtual);
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::NoReturn { .. })));
    }

    #[test]
    fn rejects_virtual_regs_post_ra() {
        let f = valid_function();
        let errs = verify_function(&f, RegDiscipline::Physical);
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::VirtualAfterRegalloc { .. })));
    }

    #[test]
    fn rejects_fallthrough_at_end() {
        let mut fb = FunctionBuilder::new("bad", 0);
        let a = fb.create_block(None);
        let b = fb.create_block(None);
        fb.switch_to(a);
        fb.ret(None);
        fb.switch_to(b);
        let _ = fb.li(0); // no terminator, b is last in layout
        let f = fb.finish();
        let errs = verify_function(&f, RegDiscipline::Virtual);
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::FallthroughAtEnd { .. })));
    }
}
