//! Per-function analysis cache: every CFG-derived analysis the placement
//! techniques (and their consumers) need, computed at most once.
//!
//! Running the four techniques naively costs four analysis recomputations
//! per function — Chow re-runs SCC detection, each hierarchical variant
//! re-builds the PST, and callers typically recompute the CFG around all
//! of them. At module scale that waste dominates: the placements
//! themselves are near-linear, and so is every analysis here. The cache
//! makes the sharing explicit, and [`spillopt_core::run_suite`] consumes
//! it without any recomputation through its borrowed-analysis inputs
//! ([`spillopt_core::SuiteInputs::analyzed`]).
//!
//! The cache starts from the CFG the register allocator already
//! computed ([`spillopt_regalloc::RegAllocResult::cfg`], taken by value:
//! allocation edits only instruction lists, so it is the allocated
//! function's CFG). Only the callee-saved usage is computed eagerly — it
//! decides whether a function needs placement at all — by
//! [`CalleeSavedUsage::from_function`]'s word-parallel liveness over the
//! callee-saved registers alone; no full-universe liveness is run or
//! kept. Everything else (SCCs, PST, the dense [`DerivedCfg`] tables) is
//! built lazily on first access, so the many functions that use no callee-saved register
//! ([`AnalysisCache::needs_placement`] returns `false`) pay for none of
//! it.

use spillopt_core::CalleeSavedUsage;
use spillopt_ir::analysis::loops::{sccs, CyclicRegion};
use spillopt_ir::{Cfg, DerivedCfg, Function, Target};
use spillopt_profile::EdgeProfile;
use spillopt_pst::Pst;
use spillopt_sync::OnceLock;

/// All shared analyses of one (physical, post-allocation) function.
#[derive(Debug)]
pub struct AnalysisCache {
    /// CFG snapshot with fall-through/jump edge classification.
    pub cfg: Cfg,
    /// Edge profile pricing every candidate location.
    pub profile: EdgeProfile,
    /// Which callee-saved registers are busy in which blocks.
    pub usage: CalleeSavedUsage,
    cyclic: OnceLock<Vec<CyclicRegion>>,
    pst: OnceLock<Pst>,
    derived: OnceLock<DerivedCfg>,
}

impl AnalysisCache {
    /// Builds the cache for the allocated `func` with its CFG `cfg` (the
    /// allocator's [`spillopt_regalloc::RegAllocResult::cfg`]) against
    /// `profile`, computing only the callee-saved usage up front.
    ///
    /// The profile must refer to `func`'s current CFG (edge ids are
    /// stable across register allocation, so a profile measured on the
    /// virtual function is valid for the allocated one).
    pub fn compute(func: &Function, cfg: Cfg, target: &Target, profile: EdgeProfile) -> Self {
        let usage = CalleeSavedUsage::from_function(func, &cfg, target);
        AnalysisCache {
            cfg,
            profile,
            usage,
            cyclic: OnceLock::new(),
            pst: OnceLock::new(),
            derived: OnceLock::new(),
        }
    }

    /// Whether any callee-saved register is used at all (functions where
    /// none is need no placement pass — and, thanks to lazy analyses, no
    /// analysis work either).
    pub fn needs_placement(&self) -> bool {
        !self.usage.is_empty()
    }

    /// Strongly connected components — Chow's artificial loop flow.
    pub fn cyclic(&self) -> &[CyclicRegion] {
        self.cyclic.get_or_init(|| {
            let _s = spillopt_obs::span("sccs");
            sccs(&self.cfg)
        })
    }

    /// Program Structure Tree — the hierarchical traversal.
    pub fn pst(&self) -> &Pst {
        self.pst.get_or_init(|| {
            let _s = spillopt_obs::span("pst");
            Pst::compute(&self.cfg)
        })
    }

    /// Dense derived CFG tables (reverse postorder, pred/succ CSRs,
    /// edge-indexed classification bits) — computed once, reused by the
    /// bit-parallel solver and every sweep in the placement suite.
    pub fn derived(&self) -> &DerivedCfg {
        self.derived.get_or_init(|| {
            let _s = spillopt_obs::span("derived_cfg");
            DerivedCfg::compute(&self.cfg)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_ir::{Callee, FunctionBuilder, Reg};
    use spillopt_profile::random_walk_profile;
    use spillopt_regalloc::allocate;

    #[test]
    fn cache_matches_fresh_analyses() {
        let mut fb = FunctionBuilder::new("f", 0);
        let b = fb.create_block(None);
        fb.switch_to(b);
        let x = fb.li(7);
        let _ = fb.call(Callee::External(0), &[]);
        fb.ret(Some(Reg::Virt(x)));
        let mut func = fb.finish();
        let target = Target::default();
        let alloc = allocate(&mut func, &target, None);

        let cfg = Cfg::compute(&func);
        let profile = random_walk_profile(&cfg, 10, 16, 3);
        let cache = AnalysisCache::compute(&func, alloc.cfg, &target, profile);
        assert!(cache.needs_placement());
        assert_eq!(cache.cfg.num_blocks(), cfg.num_blocks());
        assert_eq!(cache.pst().num_regions(), Pst::compute(&cfg).num_regions());
        assert_eq!(cache.cyclic().len(), sccs(&cfg).len());
        assert_eq!(cache.derived().num_edges(), cfg.num_edges());
    }
}
