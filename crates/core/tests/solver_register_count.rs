//! The saved-region solver's cost is independent of the register count
//! (PAPER.md, "essentially independent of the register count"), as an
//! enforced claim rather than a timing.
//!
//! [`chow_grow_all`] solves every callee-saved register in one fixpoint
//! over per-block words, and each pass is one sweep of those words.
//! Every rule of the solver is a per-bit OR, AND or XOR, so registers
//! never interact: bit `r` of every word goes through exactly the
//! states it would go through with register `r` alone. The pass count
//! is therefore the *maximum* over the registers, not their sum. Over
//! every allocated stress function with at least two callee-saved
//! registers (seeds 0..100, every registered target) this test holds:
//!
//! * the passes on the full usage equal the maximum of the passes with
//!   each register run alone;
//! * one busy set copied across 1 register and across 64 registers
//!   takes the same number of passes.
//!
//! Pass counts are read off the `solver_fixpoint_iters` counter. The
//! recorder is process-global, so this test needs a binary of its own:
//! a test running concurrently in the same process could add to the
//! counter.

use spillopt_core::{chow_grow_all, CalleeSavedUsage, RegWords};
use spillopt_ir::analysis::loops::{sccs, CyclicRegion};
use spillopt_ir::target::MAX_CALLEE_SAVED;
use spillopt_ir::{BlockId, Cfg, DenseBitSet, DerivedCfg, PReg};
use spillopt_obs::Recording;
use spillopt_profile::random_walk_profile;
use spillopt_targets::registry;

/// Runs [`chow_grow_all`] on `words` and returns its pass count.
fn passes(cfg: &Cfg, derived: &DerivedCfg, cyclic: &[CyclicRegion], mut words: RegWords) -> u64 {
    let recording = Recording::start();
    chow_grow_all(cfg, derived, cyclic, &mut words);
    let metrics = recording.finish().metrics();
    metrics
        .counters
        .iter()
        .find(|(name, _)| *name == "solver_fixpoint_iters")
        .map(|&(_, n)| n)
        .expect("the solver records its pass count")
}

/// The words of `copies` registers that all share the busy set `busy`.
fn copied(busy: &DenseBitSet, copies: usize) -> RegWords {
    let n = busy.capacity();
    let mut usage = CalleeSavedUsage::new();
    for r in 0..copies {
        for b in busy.iter_ones() {
            usage.set_busy(PReg::new(r as u8), BlockId::from_index(b), n);
        }
    }
    RegWords::from_busy(n, &usage)
}

#[test]
fn fixpoint_passes_are_a_maximum_over_registers_not_a_sum() {
    let mut functions = 0usize;
    for spec in registry() {
        let target = spec.to_target();
        for seed in 0..100u64 {
            let case = spillopt_stress::gen_case(&target, seed);
            for (i, f) in case.module.func_ids().enumerate() {
                let mut func = case.module.func(f).clone();
                let profile =
                    random_walk_profile(&Cfg::compute(&func), 128, 256, seed * 31 + i as u64);
                let cfg = spillopt_regalloc::allocate(&mut func, &target, Some(&profile)).cfg;
                let usage = CalleeSavedUsage::from_function(&func, &cfg, &target);
                if usage.num_regs() < 2 {
                    continue;
                }
                functions += 1;
                let derived = DerivedCfg::compute(&cfg);
                let cyclic = sccs(&cfg);
                let name = format!("{} seed {seed} `{}`", spec.name, func.name());

                let all = passes(
                    &cfg,
                    &derived,
                    &cyclic,
                    RegWords::from_busy(cfg.num_blocks(), &usage),
                );
                let mut max_alone = 0;
                for (reg, busy) in usage.regs() {
                    let alone = passes(&cfg, &derived, &cyclic, copied(busy, 1));
                    let wide = passes(&cfg, &derived, &cyclic, copied(busy, MAX_CALLEE_SAVED));
                    assert_eq!(
                        wide, alone,
                        "{name}: {reg:?}'s busy set takes {alone} passes as 1 register \
                         but {wide} as {MAX_CALLEE_SAVED}"
                    );
                    max_alone = max_alone.max(alone);
                }
                assert_eq!(
                    all,
                    max_alone,
                    "{name}: {} registers take {all} passes together, but at most \
                     {max_alone} one at a time",
                    usage.num_regs()
                );
            }
        }
    }
    assert!(
        functions >= 100,
        "only {functions} functions use two or more callee-saved registers"
    );
}
