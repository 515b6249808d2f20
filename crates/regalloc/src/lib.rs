//! # spillopt-regalloc
//!
//! A Chaitin/Briggs graph-coloring register allocator — the substrate the
//! paper's experiments run on ("The register allocator of GCC was replaced
//! with a Chaitin/Briggs style graph-coloring register allocator").
//!
//! Pipeline per function: liveness → interference graph (with call
//! clobbers and physical precolored nodes) → conservative coalescing →
//! Briggs optimistic coloring with a callee-saved preference for
//! call-crossing values → spill code insertion and reiteration → physical
//! rewrite.
//!
//! The allocator deliberately does **not** insert callee-saved
//! save/restore code: exporting which callee-saved registers are busy in
//! which blocks and leaving their placement to the post-allocation passes
//! is precisely the problem setup of the paper. [`allocate`] exports what
//! those passes start from: the callee-saved registers the allocation
//! uses ([`RegAllocResult::used_callee_saved`], marked by the final
//! rewrite) and the allocated function's CFG ([`RegAllocResult::cfg`],
//! the one snapshot the allocator computed, under the `cfg` trace span).
//! `spillopt_core::CalleeSavedUsage::from_function` derives the per-block
//! busy sets from that CFG.
//!
//! The profile reaches the allocation only through the spill weights at
//! *blocked* simplify steps (see [`certificate`]). [`allocate`] records
//! those steps as an [`AllocCertificate`]
//! ([`RegAllocResult::certificate`]), so a caller holding an allocation
//! can tell whether a drifted profile would reproduce it without
//! allocating again.
//!
//! # Examples
//!
//! ```
//! use spillopt_ir::{Callee, FunctionBuilder, Module, Reg, Target, RegDiscipline};
//! use spillopt_regalloc::allocate;
//!
//! // A value alive across a call needs a callee-saved register.
//! let mut fb = FunctionBuilder::new("f", 0);
//! let b = fb.create_block(None);
//! fb.switch_to(b);
//! let x = fb.li(7);
//! let _ = fb.call(Callee::External(0), &[]);
//! fb.ret(Some(Reg::Virt(x)));
//! let mut func = fb.finish();
//!
//! let target = Target::default();
//! let result = allocate(&mut func, &target, None);
//! assert!(result.spilled_vregs == 0);
//! assert!(!result.used_callee_saved.is_empty());
//! assert!(spillopt_ir::verify_function(&func, RegDiscipline::Physical).is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod certificate;
pub mod color;
pub mod interfere;
pub mod rewrite;
pub mod spill;

use spillopt_ir::{Cfg, DenseBitSet, Function, Liveness, PReg, Target};
use spillopt_profile::EdgeProfile;

pub use certificate::AllocCertificate;
pub use color::{color, color_reference, BlockedTrace, Coloring, SpillCandidate};
pub use interfere::InterferenceGraph;
pub use rewrite::apply_coloring;
pub use spill::insert_spill_code;

/// Summary of one allocation run.
#[derive(Clone, Debug)]
pub struct RegAllocResult {
    /// Virtual registers sent to memory.
    pub spilled_vregs: usize,
    /// Build/color/spill rounds needed.
    pub iterations: usize,
    /// Move instructions removed by coalescing.
    pub coalesced_moves: usize,
    /// The callee-saved registers the allocation uses (these need
    /// save/restore code from a placement pass).
    pub used_callee_saved: Vec<PReg>,
    /// The CFG of the allocated function. Spill code and the final
    /// rewrite edit only instruction lists, so this equals
    /// `Cfg::compute` of the function on return.
    pub cfg: Cfg,
    /// The blocked spill choices this allocation rests on: while it
    /// [holds](AllocCertificate::holds_under) under a profile,
    /// allocating under that profile reproduces this result.
    pub certificate: AllocCertificate,
}

/// Allocates `func`'s virtual registers to physical registers, editing the
/// function in place. `profile` (if given) weights spill costs by block
/// execution counts; otherwise static weights are used. The weights
/// decide only the blocked spill choices the returned certificate
/// records.
///
/// On return the function is fully physical
/// ([`RegDiscipline::Physical`](spillopt_ir::RegDiscipline) verifies) but
/// **violates** the callee-saved convention until a placement pass inserts
/// save/restore code.
///
/// # Panics
///
/// Panics if the function still needs spills after 16 rounds (cannot
/// happen for well-formed inputs on targets with ≥ 4 registers).
pub fn allocate(
    func: &mut Function,
    target: &Target,
    profile: Option<&EdgeProfile>,
) -> RegAllocResult {
    let mut no_spill = DenseBitSet::new(func.num_vregs());
    let mut spilled_vregs = 0;
    let mut certificate = AllocCertificate::default();

    // Spill rewriting only edits instruction lists — the block structure
    // (and with it the CFG snapshot and per-block weights) is invariant
    // across rounds, so both are computed once, and the CFG is the
    // allocated function's too. (The reference implementation
    // recomputes them per round; the results are identical.)
    let cfg = {
        let _s = spillopt_obs::span("cfg");
        Cfg::compute(func)
    };
    let weights: Vec<u64> = match profile {
        Some(p) => func.block_ids().map(|b| p.block_count(b).max(1)).collect(),
        None => {
            // Static heuristic: deeper loops cost more.
            let doms = spillopt_ir::BlockDoms::compute(&cfg);
            let loops = spillopt_ir::LoopInfo::compute(&cfg, &doms);
            func.block_ids()
                .map(|b| 10u64.saturating_pow(loops.depth(b).min(6) as u32))
                .collect()
        }
    };

    for round in 0..16 {
        let liveness = Liveness::compute(func, &cfg, target);
        let graph = InterferenceGraph::build(func, &cfg, target, &liveness, &weights);
        // Resize the no-spill set to the (possibly grown) vreg space.
        let mut ns = DenseBitSet::new(func.num_vregs());
        for i in no_spill.iter() {
            ns.insert(i);
        }
        let coloring = color(&graph, target, &ns);
        certificate.record_round(func, &coloring);
        if coloring.spills.is_empty() {
            assert_coloring_valid(&graph, &coloring, func);
            let (coalesced_moves, used_callee_saved) =
                apply_coloring(func, &coloring.assignment, target);
            return RegAllocResult {
                spilled_vregs,
                iterations: round + 1,
                coalesced_moves,
                used_callee_saved,
                cfg,
                certificate,
            };
        }
        spilled_vregs += coloring.spills.len();
        let temps = insert_spill_code(func, &coloring.spills);
        no_spill = {
            let mut s = DenseBitSet::new(func.num_vregs());
            for i in ns.iter().chain(temps.iter()) {
                s.insert(i);
            }
            s
        };
    }
    panic!("register allocation did not converge for `{}`", func.name());
}

/// As [`allocate`], running the retired reference implementations of
/// liveness, interference-graph construction, and coloring. Kept for the
/// differential tests (the module-scale one is
/// `tests/differential_solver.rs`); the produced function, result
/// summary, and every intermediate decision are identical to
/// [`allocate`].
pub fn allocate_reference(
    func: &mut Function,
    target: &Target,
    profile: Option<&EdgeProfile>,
) -> RegAllocResult {
    let mut no_spill = DenseBitSet::new(func.num_vregs());
    let mut spilled_vregs = 0;
    let mut certificate = AllocCertificate::default();

    for round in 0..16 {
        let cfg = Cfg::compute(func);
        let weights: Vec<u64> = match profile {
            Some(p) => func.block_ids().map(|b| p.block_count(b).max(1)).collect(),
            None => {
                // Static heuristic: deeper loops cost more.
                let doms = spillopt_ir::BlockDoms::compute(&cfg);
                let loops = spillopt_ir::LoopInfo::compute(&cfg, &doms);
                func.block_ids()
                    .map(|b| 10u64.saturating_pow(loops.depth(b).min(6) as u32))
                    .collect()
            }
        };
        let liveness = Liveness::compute_reference(func, &cfg, target);
        let graph = InterferenceGraph::build_reference(func, &cfg, target, &liveness, &weights);
        // Resize the no-spill set to the (possibly grown) vreg space.
        let mut ns = DenseBitSet::new(func.num_vregs());
        for i in no_spill.iter() {
            ns.insert(i);
        }
        let coloring = color_reference(&graph, target, &ns);
        certificate.record_round(func, &coloring);
        if coloring.spills.is_empty() {
            assert_coloring_valid(&graph, &coloring, func);
            let (coalesced_moves, used_callee_saved) =
                apply_coloring(func, &coloring.assignment, target);
            return RegAllocResult {
                spilled_vregs,
                iterations: round + 1,
                coalesced_moves,
                used_callee_saved,
                cfg,
                certificate,
            };
        }
        spilled_vregs += coloring.spills.len();
        let temps = insert_spill_code(func, &coloring.spills);
        no_spill = {
            let mut s = DenseBitSet::new(func.num_vregs());
            for i in ns.iter().chain(temps.iter()) {
                s.insert(i);
            }
            s
        };
    }
    panic!("register allocation did not converge for `{}`", func.name());
}

/// Hard safety net: every interference edge of the original graph must be
/// honoured by the final assignment (coalescing or optimistic coloring
/// bugs would surface here instead of as silent miscompiles).
fn assert_coloring_valid(graph: &InterferenceGraph, coloring: &Coloring, func: &Function) {
    let nv = graph.num_vregs();
    for a in 0..nv {
        let Some(pa) = coloring.assignment[a] else {
            continue;
        };
        for b in graph.neighbors(a) {
            if b < nv {
                if coloring.assignment[b] == Some(pa) && coloring.alias[a] != coloring.alias[b] {
                    panic!(
                        "coloring bug in `{}`: interfering v{a} and v{b} both got {pa}",
                        func.name()
                    );
                }
            } else if b - nv == pa.index() {
                panic!(
                    "coloring bug in `{}`: v{a} assigned precolored neighbour {pa}",
                    func.name()
                );
            }
        }
    }
}
