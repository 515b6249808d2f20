//! # spillopt-ir
//!
//! Machine-level IR and CFG substrate for the *spillopt* reproduction of
//! Lupo & Wilken, "Post Register Allocation Spill Code Optimization"
//! (CGO 2006).
//!
//! The paper's pass operates on a compiled procedure after register
//! allocation; this crate provides everything such a procedure needs:
//!
//! * a RISC-like three-address IR ([`InstKind`]) usable before register
//!   allocation (virtual registers) and after (physical registers), with
//!   instruction provenance tags ([`Origin`]) so that dynamic *spill code
//!   overhead* can be attributed exactly as in the paper's Figure 5;
//! * functions with an explicit block **layout order** ([`Function`]),
//!   from which fall-through vs. **jump edges** are classified
//!   ([`Cfg`]) — the distinction at the heart of the paper's jump-edge
//!   cost model;
//! * CFG editing primitives ([`edit`]) that realize spill code on edges,
//!   inserting **jump blocks** exactly when the paper's model says a jump
//!   instruction is needed;
//! * analyses: dominators, natural loops and SCCs,
//!   liveness ([`analysis`]);
//! * a text format with printer and parser ([`display`], [`parse`]), a
//!   structural verifier ([`verify`]), and a builder API ([`FunctionBuilder`]).
//!
//! # Examples
//!
//! ```
//! use spillopt_ir::{Cfg, Cond, EdgeKind, FunctionBuilder, Reg};
//!
//! let mut fb = FunctionBuilder::new("count", 0);
//! let entry = fb.create_block(Some("entry"));
//! let body = fb.create_block(Some("body"));
//! let exit = fb.create_block(Some("exit"));
//! fb.switch_to(entry);
//! let i = fb.li(0);
//! let n = fb.li(100);
//! fb.branch(Cond::Ge, Reg::Virt(i), Reg::Virt(n), exit, body);
//! fb.switch_to(body);
//! fb.jump(exit);
//! fb.switch_to(exit);
//! fb.ret(None);
//! let func = fb.finish();
//!
//! let cfg = Cfg::compute(&func);
//! let e = cfg.edge_between(entry, exit).unwrap();
//! assert_eq!(cfg.edge(e).kind, EdgeKind::Jump); // taken edge = jump edge
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod bitset;
pub mod block;
pub mod builder;
pub mod cfg;
pub mod derived;
pub mod display;
pub mod edit;
pub mod function;
pub mod ids;
pub mod inst;
pub mod module;
pub mod parse;
pub mod target;
pub mod verify;

pub use analysis::{BlockDoms, Graph, Liveness, LoopInfo, RegUniverse};
pub use bitset::{BitMatrix, BitRow, DenseBitSet, UnionFind};
pub use block::Block;
pub use builder::FunctionBuilder;
pub use cfg::{Cfg, CfgEdge, EdgeKind, SuccPos};
pub use derived::{Csr, DerivedCfg};
pub use edit::{insert_at_bottom, insert_at_top, place_on_edge, EdgePlacement};
pub use function::{FrameInfo, Function};
pub use ids::{BlockId, EdgeId, FrameSlot, FuncId, PReg, Reg, VReg};
pub use inst::{BinOp, Callee, Cond, Inst, InstKind, MemKind, Origin};
pub use module::Module;
pub use parse::{parse_function, parse_module, parse_module_traced, ParseError, SourceMap};
pub use target::{Target, TargetError};
pub use verify::{assert_valid, verify_function, verify_module, RegDiscipline, VerifyError};
