//! Profile-drift fuzzer: the differential oracle for delta-driven
//! incremental re-optimization.
//!
//! A drift case starts from a [`spillopt_stress::gen_case`] module and a
//! deterministic base profile per function, then applies a seeded
//! sequence of profile mutations ("drift steps"). After the base run and
//! after every step, the same module + profiles go through two
//! pipelines:
//!
//! * a **warm session** (analysis arena on), whose repeated
//!   [`crate::session::Session::optimize_profiled`] calls take the
//!   warm-hit / incremental-refold / cold-replace paths; and
//! * a **fresh cold session** per check (arena off), the whole-function
//!   recompute, whose placement fold marks every PST region dirty.
//!
//! The [`crate::report::ModuleReport`] JSON bytes must be identical on
//! every check — the warm arena is an invisible cache, never an answer
//! change. This is
//! [`Invariant::Drift`](crate::stress::Invariant::Drift) of the one
//! stress harness ([`crate::stress`]), which shrinks a divergence twice:
//! first the drift sequence (greedy step drop), then the module itself,
//! replaying the kept steps, so a counterexample prints a small module
//! and the few steps that still reproduce it.
//!
//! Mutation kinds are chosen per step from an RNG stream keyed by
//! `(seed, step)` and defined relative to the *current* module shape
//! (function counts, CFG edge lists), so a shrunk module replays the
//! same step sequence meaningfully. The kinds deliberately cover every
//! triage path in the session arena: a zero delta (warm hit), entry and
//! single-edge count bumps (an allocation-certificate re-check, and a
//! re-allocate-and-compare where it fails; usually incremental), a full
//! re-randomize of one function (allocation change, cold replace), and
//! a weights-preserving move of counts between two edges sharing a
//! destination block (block counts — and hence allocation weights —
//! unchanged, guaranteeing the incremental path).

use crate::session::{OptimizerBuilder, Session};
use crate::stress::Counters;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spillopt_ir::{Cfg, FuncId, Module};
use spillopt_profile::{random_walk_profile, EdgeProfile};
use spillopt_stress::{Violation, ViolationClass};
use spillopt_targets::TargetSpec;

/// Drift steps applied per case when the CLI flag does not say
/// otherwise.
pub const DEFAULT_DRIFT_STEPS: u64 = 8;

/// A pipeline that refused or failed: reported, but never treated as
/// the same failure as a divergence while shrinking.
fn driver(detail: String) -> Violation {
    Violation::new(ViolationClass::Driver, detail)
}

fn session(spec: &TargetSpec, reuse_analyses: bool) -> Result<Session, Violation> {
    OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(1)
        .reuse_analyses(reuse_analyses)
        .build()
        .map_err(|e| driver(format!("session build failed: {e}")))
}

/// Deterministic base profiles for `module` (per-function random walks,
/// seeded like the session's synthetic source).
fn base_profiles(module: &Module, seed: u64) -> Vec<EdgeProfile> {
    module
        .func_ids()
        .map(|fid| {
            let cfg = Cfg::compute(module.func(fid));
            random_walk_profile(
                &cfg,
                96,
                128,
                seed ^ (fid.index() as u64).wrapping_mul(0x9e37_79b9),
            )
        })
        .collect()
}

/// Two distinct edges sharing a destination block, the first with a
/// nonzero count — the precondition for a weights-preserving move
/// (block counts are sums of incoming edge counts, so shifting count
/// between such edges changes no block count and no allocation weight).
fn weight_preserving_pair(cfg: &Cfg, counts: &[u64]) -> Option<(usize, usize)> {
    for (ia, ea) in cfg.edges() {
        if counts[ia.index()] == 0 {
            continue;
        }
        for (ib, eb) in cfg.edges() {
            if ia != ib && ea.to == eb.to {
                return Some((ia.index(), ib.index()));
            }
        }
    }
    None
}

/// Applies a weights-preserving nudge to every function that admits
/// one: moves one count unit between two edges sharing a destination
/// block, leaving every block count — and hence every allocation
/// weight — unchanged while producing a non-empty [`ProfileDelta`].
/// Returns how many functions were drifted (functions without a
/// sharing pair keep their profile verbatim). `spillopt stats` uses
/// this for its third, incremental run.
///
/// [`ProfileDelta`]: spillopt_profile::ProfileDelta
pub(crate) fn nudge_weight_preserving(module: &Module, profiles: &mut [EdgeProfile]) -> usize {
    let mut drifted = 0;
    for (fid, p) in module.func_ids().zip(profiles.iter_mut()) {
        let cfg = Cfg::compute(module.func(fid));
        let mut counts = p.edge_counts().to_vec();
        if let Some((a, b)) = weight_preserving_pair(&cfg, &counts) {
            counts[a] -= 1;
            counts[b] += 1;
            *p = EdgeProfile::new(&cfg, counts, p.entry_count());
            drifted += 1;
        }
    }
    drifted
}

/// Applies drift step `step` of `seed`'s sequence to `profiles`,
/// in place. Pure in `(module shape, seed, step, current profiles)`.
fn mutate_step(module: &Module, profiles: &mut [EdgeProfile], seed: u64, step: u64) {
    let mut rng = SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ step.wrapping_add(0xd1f7),
    );
    if profiles.is_empty() {
        return;
    }
    let f = rng.gen_range(0..profiles.len());
    let cfg = Cfg::compute(module.func(FuncId::from_index(f)));
    let mut counts = profiles[f].edge_counts().to_vec();
    let mut entry = profiles[f].entry_count();
    match rng.gen_range(0..5u32) {
        // Zero delta: the warm session must serve the cached outcome.
        0 => {}
        // Entry bump: entry block count changes, so allocation weights
        // change; the session re-checks the allocation certificate.
        1 => entry = (entry + rng.gen_range(1..100u64)) & 0xffff,
        // Single-edge bump.
        2 if !counts.is_empty() => {
            let e = rng.gen_range(0..counts.len());
            counts[e] = (counts[e] + rng.gen_range(1..1000u64)) & 0xffff;
        }
        // Full re-randomize: typically flips hot/cold blocks and forces
        // a cold structure replace.
        3 => {
            for c in counts.iter_mut() {
                *c = rng.gen_range(0..1000u64);
            }
            entry = rng.gen_range(1..1000u64);
        }
        // Weights-preserving move (guaranteed incremental path), with a
        // plain bump as fallback on shapes without a sharing pair.
        _ => {
            if let Some((a, b)) = weight_preserving_pair(&cfg, &counts) {
                let moved = rng.gen_range(1..=counts[a].min(64));
                counts[a] -= moved;
                counts[b] += moved;
            } else if !counts.is_empty() {
                let e = rng.gen_range(0..counts.len());
                counts[e] += 1;
            }
        }
    }
    profiles[f] = EdgeProfile::new(&cfg, counts, entry);
}

/// One warm-vs-cold comparison of `module` under `profiles`.
fn check(
    warm: &Session,
    spec: &TargetSpec,
    module: &Module,
    profiles: &[EdgeProfile],
    label: u64,
) -> Result<(), Violation> {
    let warm_run = warm
        .optimize_profiled(module, profiles)
        .map_err(|e| driver(format!("step {label}: warm run failed: {e}")))?;
    let cold_run = session(spec, false)?
        .optimize_profiled(module, profiles)
        .map_err(|e| driver(format!("step {label}: cold run failed: {e}")))?;
    let warm_bytes = warm_run.report.to_json().to_compact();
    let cold_bytes = cold_run.report.to_json().to_compact();
    if warm_bytes != cold_bytes {
        return Err(Violation::new(
            ViolationClass::Divergence,
            format!(
                "step {label}: warm report != cold report\n  cold: {cold_bytes}\n  warm: {warm_bytes}"
            ),
        ));
    }
    Ok(())
}

/// Replays a drift sequence against `module`: the base profiles, then
/// each listed step, byte-comparing warm vs cold after every run.
pub(crate) fn replay(
    spec: &TargetSpec,
    module: &Module,
    seed: u64,
    step_ids: &[u64],
) -> Result<Counters, Violation> {
    let warm = session(spec, true)?;
    let mut profiles = base_profiles(module, seed);
    check(&warm, spec, module, &profiles, 0)?;
    for &step in step_ids {
        mutate_step(module, &mut profiles, seed, step);
        check(&warm, spec, module, &profiles, step)?;
    }
    let arena = warm.stats().arena;
    Ok(Counters {
        checks: 1 + step_ids.len() as u64,
        warm_hits: arena.hits,
        incremental: arena.incremental,
        regions_refolded: arena.regions_refolded,
        regions_total: arena.regions_total,
        ..Counters::default()
    })
}

#[cfg(test)]
mod tests {
    use super::{base_profiles, mutate_step};
    use crate::stress::tests::{assert_passed, sweep};
    use crate::stress::Invariant;
    use spillopt_ir::{Function, Target};
    use spillopt_profile::EdgeProfile;
    use spillopt_regalloc::{allocate, AllocCertificate, RegAllocResult};
    use spillopt_stress::gen_case;

    fn allocated(
        source: &Function,
        target: &Target,
        profile: &EdgeProfile,
    ) -> (Function, RegAllocResult) {
        let mut func = source.clone();
        let result = allocate(&mut func, target, Some(profile));
        (func, result)
    }

    /// Whenever a cached allocation's certificate holds under a drifted
    /// profile, allocating under that profile reproduces the cached
    /// function and spill count. The profiles are the drift invariant's
    /// streams, and the cached allocation and certificate evolve as the
    /// session's do: a holding certificate is kept, a trial allocation
    /// that reproduces the function passes its certificate on, and one
    /// that differs replaces the cached allocation.
    #[test]
    fn a_holding_certificate_reproduces_the_allocation_on_every_target() {
        let (mut held, mut rejected) = (0u64, 0u64);
        for spec in spillopt_targets::registry() {
            let target = spec.to_target();
            for seed in 0..48 {
                let module = gen_case(&target, seed).module;
                let mut profiles = base_profiles(&module, seed);
                let mut cached: Vec<(Function, RegAllocResult)> = module
                    .func_ids()
                    .zip(&profiles)
                    .map(|(fid, p)| allocated(module.func(fid), &target, p))
                    .collect();
                for step in 0..24 {
                    let before = profiles.clone();
                    mutate_step(&module, &mut profiles, seed, step);
                    for (i, fid) in module.func_ids().enumerate() {
                        if profiles[i] == before[i] {
                            continue;
                        }
                        let fresh = allocated(module.func(fid), &target, &profiles[i]);
                        let (func, result) = &mut cached[i];
                        let same =
                            fresh.0 == *func && fresh.1.spilled_vregs == result.spilled_vregs;
                        if result.certificate.holds_under(&profiles[i]) {
                            assert!(
                                same,
                                "{} seed {seed} step {step}: `{}` changed under a holding certificate",
                                spec.name,
                                func.name()
                            );
                            if result.certificate != AllocCertificate::default() {
                                held += 1;
                            }
                        } else if same {
                            rejected += 1;
                            result.certificate = fresh.1.certificate;
                        } else {
                            rejected += 1;
                            cached[i] = fresh;
                        }
                    }
                }
            }
        }
        // The streams must exercise non-trivial certificates both ways.
        assert!(held > 0 && rejected > 0, "held {held}, rejected {rejected}");
    }

    #[test]
    fn drift_smoke_passes_on_every_registered_target() {
        let summary = sweep(0, 4, 0, Invariant::Drift { steps: 6 });
        assert_eq!(summary.cases, 4 * spillopt_targets::registry().len());
        assert_passed(&summary);
        let c = summary.counters;
        // base + 6 steps per case
        assert_eq!(c.checks, 7 * summary.cases as u64);
        assert!(c.functions > 0);
        // The mutation mix must actually exercise the fast paths: some
        // zero-delta steps hit the outcome cache, and the
        // weights-preserving moves take the incremental re-fold.
        assert!(c.warm_hits > 0, "no warm hits across the sweep");
        assert!(c.incremental > 0, "no incremental re-folds");
        assert!(c.regions_refolded <= c.regions_total);
    }

    #[test]
    fn drift_sweep_is_deterministic() {
        let a = sweep(7, 2, 1, Invariant::Drift { steps: 4 });
        let b = sweep(7, 2, 1, Invariant::Drift { steps: 4 });
        assert_eq!(a.counters.checks, b.counters.checks);
        assert_eq!(a.counters.incremental, b.counters.incremental);
        assert_eq!(a.counters.regions_refolded, b.counters.regions_refolded);
        assert_eq!(a.counters.regions_total, b.counters.regions_total);
    }
}
