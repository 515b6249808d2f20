//! The session-based optimizer facade: [`OptimizerBuilder`] → [`Session`].
//!
//! Every module-scale entry point of the workspace goes through the one
//! shape every future subsystem (serving, sharding, incremental
//! reoptimization) plugs into:
//!
//! * [`OptimizerBuilder`] — declare *what* to optimize for: a target (a
//!   preset [`Target`], a registered [`TargetSpec`] name, or all of
//!   them), a [`SpillCostModel`] override, a [`ProfileSource`], a thread
//!   count, and a typed [`TechniqueSet`]. `build()` validates the whole
//!   configuration **once**.
//! * [`Session`] — the warm, reusable pipeline object. It owns the
//!   persistent work pool ([`crate::pool::Pool`]) and a per-session
//!   analysis arena, so repeated [`Session::optimize`] calls amortize
//!   thread spin-up and per-function analysis work across modules — the
//!   warm-server shape. [`Session::optimize_many`] fans whole batches of
//!   modules out on the same pool; [`Session::cross_target`] fans the
//!   registry out the way `spillopt compare --target all` needs.
//! * [`Observer`] — an optional streaming callback: per-function
//!   [`FunctionReport`]s are delivered **as functions retire** from the
//!   pool (progress for the CLI today, the backpressure hook for a
//!   future server).
//!
//! Behind the facade, every module call — `optimize`,
//! `optimize_profiled`, `optimize_many`, their `_observed` forms, and
//! each target of `cross_target` — runs one private batch body.
//!
//! Reports stay deterministic: everything in a [`ModuleRun`] — including
//! its JSON bytes — is a pure function of the inputs and the session's
//! configuration, independent of thread count, arena warmth, and
//! observer presence (observers see completion order, which is *not*
//! deterministic; the returned reports are).

use crate::cache::AnalysisCache;
use crate::driver::{
    DriverError, FaultAction, FaultKind, FunctionFault, ModuleRun, ProfileSource, Strategy,
};
use crate::pool::{serial_run, ItemPanic, Pool, PoolWorkerStats};
use crate::report::{CrossTargetReport, FunctionReport, ModuleReport, StrategyReport};
use spillopt_core::{
    run_suite_incremental, run_suite_memoized, run_technique, PlacementMemo, PlacementSuite,
    RefoldStats, SpillCostModel, SuiteError, SuiteInputs, SuiteOptions, Technique,
};
use spillopt_ir::{FuncId, Function, Module, Target};
use spillopt_obs::fault::{panic_message, BudgetScope, BudgetSpec};
use spillopt_profile::{random_walk_profile, EdgeProfile, Machine, ProfileDelta};
use spillopt_regalloc::{allocate, AllocCertificate, RegAllocResult};
use spillopt_sync::atomic::{AtomicU64, Ordering};
use spillopt_sync::{Arc, Mutex};
use spillopt_targets::{registry, spec_by_name, TargetSpec};
use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A typed set of placement techniques — the facade's replacement for
/// stringly-typed strategy selection. Defaults to [`TechniqueSet::ALL`]
/// (the paper's four-technique comparison).
///
/// The set selects which techniques are **reported and applicable**
/// ([`crate::ModuleRun::apply`]); internally the suite still computes
/// all four — the hierarchical variants' never-worse guarantee is
/// closed against the entry/exit and Chow baselines, so those are
/// needed regardless, and the placements are near-linear next to the
/// shared analyses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TechniqueSet(u8);

impl TechniqueSet {
    /// No techniques (rejected by [`OptimizerBuilder::build`]).
    pub const EMPTY: TechniqueSet = TechniqueSet(0);
    /// Entry/exit baseline only.
    pub const BASELINE: TechniqueSet = TechniqueSet(1 << 0);
    /// Chow's shrink-wrapping only.
    pub const SHRINKWRAP: TechniqueSet = TechniqueSet(1 << 1);
    /// Hierarchical placement, execution-count model, only.
    pub const HIER_EXEC: TechniqueSet = TechniqueSet(1 << 2);
    /// Hierarchical placement, jump-edge model, only.
    pub const HIER_JUMP: TechniqueSet = TechniqueSet(1 << 3);
    /// All four techniques — the paper's comparison and the default.
    pub const ALL: TechniqueSet = TechniqueSet(0b1111);

    fn bit(strategy: Strategy) -> u8 {
        match strategy {
            Strategy::Baseline => 1 << 0,
            Strategy::Shrinkwrap => 1 << 1,
            Strategy::HierExec => 1 << 2,
            Strategy::HierJump => 1 << 3,
        }
    }

    /// The set containing exactly `strategies`.
    pub fn of(strategies: &[Strategy]) -> TechniqueSet {
        strategies
            .iter()
            .fold(TechniqueSet::EMPTY, |set, s| set.with(*s))
    }

    /// This set plus `strategy`.
    #[must_use]
    pub fn with(self, strategy: Strategy) -> TechniqueSet {
        TechniqueSet(self.0 | TechniqueSet::bit(strategy))
    }

    /// Whether `strategy` is selected.
    pub fn contains(self, strategy: Strategy) -> bool {
        self.0 & TechniqueSet::bit(strategy) != 0
    }

    /// Number of selected techniques.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether no technique is selected.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Selected strategies, in reporting order.
    pub fn iter(self) -> impl Iterator<Item = Strategy> {
        Strategy::all()
            .into_iter()
            .filter(move |s| self.contains(*s))
    }

    /// Parses `"all"` or a comma-separated list of strategy names
    /// (`baseline`, `shrinkwrap`, `hier-exec`, `hier-jump`).
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted names.
    pub fn parse(s: &str) -> Result<TechniqueSet, String> {
        if s == "all" {
            return Ok(TechniqueSet::ALL);
        }
        let mut set = TechniqueSet::EMPTY;
        for name in s.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            let strategy = Strategy::parse(name).ok_or_else(|| {
                format!(
                    "unknown technique `{name}` (accepted: all, or a comma-separated list of {})",
                    Strategy::all().map(Strategy::name).join(", ")
                )
            })?;
            set = set.with(strategy);
        }
        if set.is_empty() {
            return Err("technique set is empty".to_string());
        }
        Ok(set)
    }

    /// The selected strategy names, comma-separated (parseable by
    /// [`TechniqueSet::parse`]).
    pub fn names(self) -> String {
        self.iter()
            .map(Strategy::name)
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl Default for TechniqueSet {
    fn default() -> Self {
        TechniqueSet::ALL
    }
}

/// Displays as the comma-separated strategy names — the exact syntax
/// [`TechniqueSet::parse`] accepts, so `parse(set.to_string())`
/// round-trips for every non-empty set.
impl std::fmt::Display for TechniqueSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.names())
    }
}

/// What a session does when one function's pipeline fails — a panic, an
/// invalid placement, or a blown [`Budget`]. Set via
/// [`OptimizerBuilder::on_fault`]; the default reproduces today's
/// all-or-nothing behavior exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// The failure surfaces as the run's error (the historical
    /// behavior): one poisoned function fails the whole
    /// `optimize`/`optimize_many` call.
    #[default]
    Fail,
    /// The failed function falls down the guarantee chain — hier-jump →
    /// Chow → entry/exit → unoptimized passthrough — retiring with the
    /// first rung that succeeds ([`Provenance::Degraded`]); the original
    /// error is preserved in the run's fault ledger
    /// ([`crate::ModuleRun::faults`]) and the rest of the module is
    /// unaffected.
    Degrade,
    /// The failed function passes through unoptimized immediately (no
    /// fallback attempts), recorded in the fault ledger.
    Skip,
}

impl FailurePolicy {
    /// Stable lowercase identifier (the CLI's `--on-fault` values).
    pub fn name(self) -> &'static str {
        match self {
            FailurePolicy::Fail => "fail",
            FailurePolicy::Degrade => "degrade",
            FailurePolicy::Skip => "skip",
        }
    }

    /// Parses a stable identifier.
    pub fn parse(s: &str) -> Option<FailurePolicy> {
        [
            FailurePolicy::Fail,
            FailurePolicy::Degrade,
            FailurePolicy::Skip,
        ]
        .into_iter()
        .find(|p| p.name() == s)
    }
}

/// A cooperative per-function deadline, checked at the obs probe seams
/// in core's fixpoint solver and the exact solver's branch-and-bound.
/// Trips surface as [`DriverError::BudgetExceeded`] under
/// [`FailurePolicy::Fail`], and are caught by the degradation ladder
/// otherwise. Default: no caps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    wall_ms: Option<u64>,
    solver_iters: Option<u64>,
}

impl Budget {
    /// No caps (the default): nothing is armed, nothing is checked.
    pub fn none() -> Budget {
        Budget::default()
    }

    /// Caps one function's pipeline wall-clock time, in milliseconds.
    /// Each fallback attempt of the degradation ladder shares the
    /// function's single deadline.
    #[must_use]
    pub fn wall_ms(mut self, ms: u64) -> Budget {
        self.wall_ms = Some(ms);
        self
    }

    /// Caps the cumulative solver iterations (fixpoint rounds,
    /// branch-and-bound nodes) of one pipeline attempt.
    #[must_use]
    pub fn solver_iters(mut self, iters: u64) -> Budget {
        self.solver_iters = Some(iters);
        self
    }

    /// Whether any cap is set.
    pub fn is_some(&self) -> bool {
        self.wall_ms.is_some() || self.solver_iters.is_some()
    }

    /// The absolute deadline a pipeline starting now must meet.
    fn deadline_from_now(&self) -> Option<Instant> {
        self.wall_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms))
    }

    fn iter_cap(&self) -> Option<u64> {
        self.solver_iters
    }
}

/// How one function's retired pipeline products were obtained — the
/// reuse provenance the session surfaces through [`Observer`] and the
/// `--progress` summary. The reports themselves are byte-identical on
/// every path (the incremental re-fold provably re-establishes the cold
/// fixpoint); provenance only says how much work the path cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Full pipeline: allocation, analyses, every placement fold.
    Cold,
    /// Exact arena hit — the function was last retired under this very
    /// profile, and the retired products were returned wholesale.
    Warm,
    /// The function's structure was known but its profile drifted: the
    /// allocation and analyses were reused and only the PST regions the
    /// profile delta dirtied were re-folded.
    Incremental,
    /// The full pipeline failed and the function retired through the
    /// [`FailurePolicy::Degrade`]/[`FailurePolicy::Skip`] containment
    /// path: a single fallback technique, or an unoptimized passthrough.
    /// The original error is in the run's fault ledger.
    Degraded,
}

impl Provenance {
    /// Stable lowercase identifier (used on `--progress` lines).
    pub fn name(self) -> &'static str {
        match self {
            Provenance::Cold => "cold",
            Provenance::Warm => "warm",
            Provenance::Incremental => "incremental",
            Provenance::Degraded => "degraded",
        }
    }
}

/// Streaming callback for session runs: called from worker threads as
/// each function's pipeline retires (completion order — *not* function
/// order). The session's returned reports stay deterministic regardless.
pub trait Observer: Sync {
    /// One function's pipeline finished (all selected techniques run,
    /// placements validated). `target` names the backend — a
    /// [`Session::cross_target`] run shares one observer across every
    /// target's concurrent fan-out, so the lines are only attributable
    /// with it. `provenance` says whether the products were recomputed
    /// cold, served warm from the arena, or incrementally re-folded.
    fn function_retired(
        &self,
        target: &str,
        module: &str,
        report: &FunctionReport,
        provenance: Provenance,
    );

    /// One module's full report was assembled (the report itself names
    /// its target).
    fn module_done(&self, report: &ModuleReport) {
        let _ = report;
    }

    /// A short name for error attribution: when a callback panics, the
    /// session reports [`DriverError::ObserverPanicked`] naming this
    /// observer instead of blaming the function whose report it was
    /// handling.
    fn name(&self) -> &str {
        "observer"
    }
}

/// Any `Fn(&target_name, &module_name, &report, provenance)` closure is
/// an observer.
impl<F: Fn(&str, &str, &FunctionReport, Provenance) + Sync> Observer for F {
    fn function_retired(
        &self,
        target: &str,
        module: &str,
        report: &FunctionReport,
        provenance: Provenance,
    ) {
        self(target, module, report, provenance)
    }
}

/// A point-in-time snapshot of a session's own instrumentation: arena
/// effectiveness and persistent-pool worker activity (see
/// [`Session::stats`]). This is the session-owned complement to the
/// process-wide recorder (`spillopt-obs`): it is always on — the
/// counters are relaxed atomics the hot path updates anyway — and needs
/// no recording to be active.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Analysis-arena entries/hits/misses; all-zero when the session was
    /// built with [`OptimizerBuilder::reuse_analyses`]`(false)`.
    pub arena: ArenaStats,
    /// Per-worker items/busy/idle of the persistent pool; empty for a
    /// serial session (inline batches have no workers).
    pub pool_workers: Vec<PoolWorkerStats>,
}

/// Arena statistics (see [`Session::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Cached function structures (distinct source functions).
    pub entries: usize,
    /// Lookups served wholesale — the function was last retired under
    /// this exact profile ([`Provenance::Warm`]).
    pub hits: u64,
    /// Lookups that ran the full cold pipeline ([`Provenance::Cold`]):
    /// unseen functions, plus profile drifts that changed the
    /// allocation.
    pub misses: u64,
    /// Trial allocations run for profile drifts whose cached allocation
    /// certificate did not hold. Each either confirmed the cached
    /// allocation (the drift went on incrementally) or became the
    /// allocation of a cold rebuild.
    pub reallocations: u64,
    /// Lookups served by delta-driven re-folding
    /// ([`Provenance::Incremental`]): the function's structure was
    /// cached and the drifted profile left its allocation unchanged.
    pub incremental: u64,
    /// Function structures evicted to honor
    /// [`OptimizerBuilder::arena_capacity`].
    pub evictions: u64,
    /// Dirty-region ledger: PST regions actually re-folded, summed over
    /// every incremental call.
    pub regions_refolded: u64,
    /// Dirty-region ledger: total PST regions of the functions those
    /// incremental calls touched — the work a cold re-fold would have
    /// done. `regions_refolded < regions_total` is the incremental win.
    pub regions_total: u64,
    /// Calls answered by the quarantine negative-cache without an
    /// attempt: repeat-offender functions sitting out their backoff
    /// window under [`FailurePolicy::Degrade`]/[`FailurePolicy::Skip`].
    pub quarantined: u64,
}

/// A keyed, LRU-bounded, quarantine-aware cache of shared per-key
/// states — the concurrency skeleton of the analysis arena, generic
/// over the per-key payload `S` so the model-checked suites can
/// exercise the exact production lock/atomic protocol with a trivial
/// payload (see `arena_model_tests`). Keys are 64-bit structural
/// fingerprints ([`Function::fingerprint`]); a key only *locates* an
/// entry, and the caller confirms it against the payload (for the
/// analysis arena, [`StructState::source`] identity or equality). All
/// bookkeeping (LRU stamps, counters, the negative cache) lives here;
/// payloads sit behind `Arc<Mutex<S>>` so lookups clone a pointer under
/// the map lock and per-key work happens outside it.
pub(crate) struct Arena<S> {
    /// Fingerprint → (LRU stamp, shared state). The stamps live *here*,
    /// so eviction scans never take a state's own lock.
    entries: Mutex<HashMap<u64, ArenaEntry<S>>>,
    /// Maximum cached entries (`0` = unbounded).
    capacity: usize,
    /// LRU clock, bumped on every touch.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    reallocations: AtomicU64,
    incremental: AtomicU64,
    evictions: AtomicU64,
    regions_refolded: AtomicU64,
    regions_total: AtomicU64,
    /// Negative cache: fingerprints whose pipeline has failed, with
    /// their failure count and remaining skip window. Only consulted
    /// under [`FailurePolicy::Degrade`]/[`FailurePolicy::Skip`]; the
    /// `Fail` hot path never takes this lock. Unlike `entries`, these
    /// keys are not confirmed: two functions with one fingerprint would
    /// share a backoff window, so one could sit out the other's window
    /// as a quarantined passthrough (recorded in the fault ledger). The
    /// negative cache is a containment heuristic; every positive hit is
    /// exact. A key leaves it when its function later succeeds, and,
    /// under a `capacity`, when more than `capacity` keys hold records
    /// (see [`Arena::record_failure`]).
    quarantine: Mutex<HashMap<u64, Quarantine>>,
    quarantined: AtomicU64,
}

/// The per-session analysis arena, keyed in **two levels** matching the
/// two levels of input change a re-optimizing service sees:
///
/// 1. **Structure** — the source (pre-allocation) function, located by
///    its structural fingerprint and confirmed by identity or, for a
///    different object, structural equality.
///    One [`StructState`] per distinct function holds everything the
///    function alone determines once an allocation exists: the
///    allocated function, its [`AnalysisCache`] (CFG, usage, SCCs, PST,
///    derived tables), and the [`PlacementMemo`] of per-region folded
///    products.
/// 2. **Placement** — the exact edge profile. Each structure keeps one
///    retired report (whose strategies carry the placements): the one
///    for its current profile, the memo's base.
///
/// A repeated call with the structure's current profile is a wholesale
/// hit ([`Provenance::Warm`]): the module's cached key
/// ([`Module::fingerprint`]), one pointer compare, one profile compare,
/// and a clone of the small report — neither function is hashed or
/// copied. The entry holds the caller's [`Module::shared_func`], so
/// resubmitting the same module (or a clone of it) confirms the entry
/// by [`Arc::ptr_eq`]: the entry keeps that allocation alive, and a
/// [`Module::func_mut`] edit copies on write, so the same allocation
/// is always an equal function. Only an equal function in a different
/// allocation, such as a re-parsed module, pays the structural `==`.
///
/// A call with a *drifted* profile reuses the whole structure level
/// when the drift leaves the allocation unchanged — the allocator reads
/// the profile only at its blocked spill choices, so a cached
/// [`AllocCertificate`] that still holds proves an identical
/// allocation, and one that fails re-allocates once and compares — and
/// then re-folds only the PST regions the [`ProfileDelta`] dirties
/// ([`Provenance::Incremental`]). Only a drift that changes the
/// allocation itself re-runs the full cold pipeline. A re-fold rewrites
/// the structure's report in place, so a structure's memory does not
/// grow with the number of profiles it has seen, and returning to an
/// earlier profile re-folds to the same bytes rather than hitting.
///
/// The structure key is exact, never coarser than the function: every
/// field of [`Function`] takes part, including block ids (which the IR
/// text never prints) and cosmetic block names (block 3 named `None`
/// and named `Some("bb3")` print the same but are different keys).
/// Inputs that differ only by names miss where they would share text,
/// and run cold to the same report bytes. Two different functions with
/// one fingerprint are told apart by the identity-or-equality check:
/// the second lookup is a counted miss that rebuilds the entry cold in
/// place.
///
/// By default the arena grows without bound (entries are exact, never
/// invalidated); [`OptimizerBuilder::arena_capacity`] bounds the number
/// of cached structures with least-recently-used eviction. Build with
/// [`OptimizerBuilder::reuse_analyses`]`(false)` for one-shot or
/// benchmarking sessions that must re-run the pipeline every time.
///
/// The shared concurrency skeleton is [`Arena`].
pub(crate) type AnalysisArena = Arena<StructState>;

/// One function's entry in the arena's negative cache.
struct Quarantine {
    /// Total failed attempts recorded for this function.
    failures: u32,
    /// Calls left to skip before the next retry (exponential backoff
    /// from the second failure on).
    skip_remaining: u32,
    /// The arena's LRU clock at the last recorded failure.
    stamp: u64,
}

/// Everything the source function determines for the session's fixed
/// (target, cost model): the allocation, the analyses, and the
/// per-region fold memo — plus the one outcome retired for the current
/// profile.
pub(crate) struct StructState {
    /// The source (pre-allocation) function this entry was built from,
    /// shared with the module it came from. Its fingerprint is the
    /// entry's key; a lookup serves the entry only when the caller's
    /// function is this allocation or equals it.
    source: Arc<Function>,
    /// The allocated (physical, pre-placement) function, shared with
    /// every [`ModuleRun`] this entry retires into.
    func: Arc<Function>,
    spilled_vregs: usize,
    /// The blocked spill choices `func`'s allocation rests on: a drifted
    /// profile it holds under reproduces `func` without re-allocating.
    certificate: AllocCertificate,
    /// Analyses of `func`; `cache.profile` is the memo's base profile
    /// and the profile `func` was last proven allocated under.
    cache: AnalysisCache,
    /// Per-region folded products; `None` when the function needs no
    /// placement (no callee-saved use).
    memo: Option<PlacementMemo>,
    /// The report retired for `cache.profile`, produced against the
    /// current `func` (a cold replace rebuilds both, a re-fold
    /// rewrites its costs and hierarchical placements in place), so a
    /// hit shares `func` next to it.
    outcome: FunctionReport,
}

/// An LRU stamp paired with the shared per-key state it guards.
type ArenaEntry<S> = (u64, Arc<Mutex<S>>);

/// One function's pipeline product: the report (whose strategies carry
/// the placements), the allocated function, and the fault-ledger entry
/// when the function was contained under
/// [`FailurePolicy::Degrade`]/[`FailurePolicy::Skip`].
type FunctionOutcome = (FunctionReport, Arc<Function>, Option<FunctionFault>);

/// A cross-target module loader.
type Loader<'l> = dyn Fn(&TargetSpec) -> Result<(Module, ProfileSource), DriverError> + Sync + 'l;

impl<S> Arena<S> {
    fn new(capacity: usize) -> Self {
        Arena {
            entries: Mutex::new(HashMap::new()),
            capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            reallocations: AtomicU64::new(0),
            incremental: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            regions_refolded: AtomicU64::new(0),
            regions_total: AtomicU64::new(0),
            quarantine: Mutex::new(HashMap::new()),
            quarantined: AtomicU64::new(0),
        }
    }

    /// The cached state for a key, touching its LRU stamp.
    fn structure(&self, key: u64) -> Option<Arc<Mutex<S>>> {
        let mut map = self.entries.lock().unwrap();
        match map.get_mut(&key) {
            Some((stamp, state)) => {
                *stamp = self.clock.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(state))
            }
            None => None,
        }
    }

    /// Caches a freshly computed state, evicting the least recently
    /// used one when over capacity.
    fn insert_structure(&self, key: u64, state: S) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut map = self.entries.lock().unwrap();
        map.insert(key, (stamp, Arc::new(Mutex::new(state))));
        while self.capacity > 0 && map.len() > self.capacity {
            let victim = map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    spillopt_obs::count("arena_evictions", 1);
                }
                // Capacity 1 entry is the one just inserted.
                None => break,
            }
        }
    }

    fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        spillopt_obs::count("arena_hit", 1);
    }

    fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        spillopt_obs::count("arena_miss", 1);
    }

    fn record_reallocation(&self) {
        self.reallocations.fetch_add(1, Ordering::Relaxed);
        spillopt_obs::count("arena_reallocation", 1);
    }

    fn record_incremental(&self, refolds: RefoldStats) {
        self.incremental.fetch_add(1, Ordering::Relaxed);
        spillopt_obs::count("arena_incremental", 1);
        self.regions_refolded
            .fetch_add(refolds.regions_refolded as u64, Ordering::Relaxed);
        self.regions_total
            .fetch_add(refolds.regions_total as u64, Ordering::Relaxed);
    }

    /// Drops any cached structure for `key`. Called whenever the
    /// function's pipeline failed: a partially updated (or
    /// poisoned-mutex) `StructState` must never be served to a later
    /// call.
    fn purge(&self, key: u64) {
        self.entries.lock().unwrap().remove(&key);
    }

    /// Records a failed attempt for `key`: purges its cached structure
    /// and, from the second failure on, opens an exponential-backoff
    /// skip window so a flapping input can't monopolize warm throughput.
    ///
    /// Under a `capacity` the negative cache holds at most that many
    /// keys, so functions that fail once and never return cannot grow it
    /// without bound. Overflow evicts another key's record: one with no
    /// active skip window first, then the least recently failed (stamps
    /// are unique, so the choice is deterministic). An evicted function
    /// that fails again starts its backoff afresh.
    fn record_failure(&self, key: u64) {
        self.purge(key);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut quarantine = self.quarantine.lock().unwrap();
        let entry = quarantine.entry(key).or_insert(Quarantine {
            failures: 0,
            skip_remaining: 0,
            stamp,
        });
        entry.failures += 1;
        entry.stamp = stamp;
        if entry.failures >= 2 {
            entry.skip_remaining = 1u32 << (entry.failures - 1).min(6);
        }
        while self.capacity > 0 && quarantine.len() > self.capacity {
            let victim = quarantine
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, q)| (q.skip_remaining > 0, q.stamp))
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    quarantine.remove(&k);
                }
                // Capacity 1: the record is the one just written.
                None => break,
            }
        }
    }

    /// Consumes one call of an active quarantine window; `true` means
    /// the caller should skip this function without an attempt.
    fn quarantine_skip(&self, key: u64) -> bool {
        let mut quarantine = self.quarantine.lock().unwrap();
        match quarantine.get_mut(&key) {
            Some(entry) if entry.skip_remaining > 0 => {
                entry.skip_remaining -= 1;
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                spillopt_obs::count("fault_quarantined", 1);
                true
            }
            _ => false,
        }
    }

    /// Clears the failure history of `key` after a successful attempt.
    fn record_success(&self, key: u64) {
        let mut quarantine = self.quarantine.lock().unwrap();
        if !quarantine.is_empty() {
            quarantine.remove(&key);
        }
    }

    fn stats(&self) -> ArenaStats {
        ArenaStats {
            entries: self.entries.lock().unwrap().len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            reallocations: self.reallocations.load(Ordering::Relaxed),
            incremental: self.incremental.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            regions_refolded: self.regions_refolded.load(Ordering::Relaxed),
            regions_total: self.regions_total.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

impl<S> std::fmt::Debug for Arena<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisArena")
            .field("stats", &self.stats())
            .finish()
    }
}

/// One resolved target of a session.
#[derive(Clone, Debug)]
struct SessionTarget {
    /// The registered spec, when the target came from the registry
    /// (needed for cross-target reports).
    spec: Option<TargetSpec>,
    target: Target,
    costs: SpillCostModel,
}

/// The builder's target choice.
#[derive(Clone, Debug)]
enum BuildTarget {
    /// A preset [`Target`] convention (priced [`SpillCostModel::UNIT`]
    /// unless overridden).
    Preset(Target),
    /// A registered spec.
    Spec(TargetSpec),
    /// A registry name, resolved (and validated) at `build()`.
    Named(String),
    /// Every registered target (for [`Session::cross_target`]).
    All,
}

/// Configures and validates a [`Session`] — the only supported way to
/// run the module-scale optimizer.
///
/// ```
/// use spillopt_driver::{OptimizerBuilder, Strategy};
/// use spillopt_benchgen::{benchmark_by_name, build_bench};
/// use spillopt_ir::Target;
///
/// let target = Target::default();
/// let bench = build_bench(&benchmark_by_name("mcf").unwrap(), &target);
/// let session = OptimizerBuilder::new()
///     .target(target)
///     .threads(2)
///     .build()
///     .unwrap();
/// let run = session.optimize(&bench.module).unwrap();
/// assert!(run.report.total_cost(Strategy::HierJump)
///     <= run.report.total_cost(Strategy::Baseline));
/// ```
#[derive(Clone, Debug)]
pub struct OptimizerBuilder {
    target: BuildTarget,
    costs: Option<SpillCostModel>,
    profile: ProfileSource,
    threads: usize,
    techniques: TechniqueSet,
    reuse_analyses: bool,
    arena_capacity: usize,
    failure_policy: FailurePolicy,
    budget: Budget,
}

impl Default for OptimizerBuilder {
    fn default() -> Self {
        OptimizerBuilder::new()
    }
}

impl OptimizerBuilder {
    /// A builder with the defaults: the paper's PA-RISC-like target,
    /// synthetic profiles, all cores, all four techniques, analysis
    /// reuse on.
    pub fn new() -> Self {
        OptimizerBuilder {
            target: BuildTarget::Spec(spillopt_targets::pa_risc_like()),
            costs: None,
            profile: ProfileSource::default(),
            threads: 0,
            techniques: TechniqueSet::ALL,
            reuse_analyses: true,
            arena_capacity: 0,
            failure_policy: FailurePolicy::Fail,
            budget: Budget::none(),
        }
    }

    /// Optimize for a preset [`Target`] convention (priced
    /// [`SpillCostModel::UNIT`] unless [`OptimizerBuilder::cost_model`]
    /// overrides it).
    #[must_use]
    pub fn target(mut self, target: Target) -> Self {
        self.target = BuildTarget::Preset(target);
        self
    }

    /// Optimize for a registered backend spec.
    #[must_use]
    pub fn target_spec(mut self, spec: TargetSpec) -> Self {
        self.target = BuildTarget::Spec(spec);
        self
    }

    /// Optimize for a registry name (`spillopt list-targets`); resolved
    /// and validated by [`OptimizerBuilder::build`].
    #[must_use]
    pub fn target_named(mut self, name: impl Into<String>) -> Self {
        self.target = BuildTarget::Named(name.into());
        self
    }

    /// Optimize across **every** registered target
    /// ([`Session::cross_target`]).
    #[must_use]
    pub fn all_targets(mut self) -> Self {
        self.target = BuildTarget::All;
        self
    }

    /// Overrides the spill-cost model (otherwise the spec's own model,
    /// or [`SpillCostModel::UNIT`] for preset targets).
    #[must_use]
    pub fn cost_model(mut self, costs: SpillCostModel) -> Self {
        self.costs = Some(costs);
        self
    }

    /// Where per-function edge profiles come from (default: synthetic
    /// random walks).
    #[must_use]
    pub fn profile(mut self, profile: ProfileSource) -> Self {
        self.profile = profile;
        self
    }

    /// Worker threads; `0` = available parallelism, `1` = the serial
    /// reference schedule. The pool is spawned once, at `build()`.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Which techniques to report and make applicable (default:
    /// [`TechniqueSet::ALL`]; see [`TechniqueSet`] for what is still
    /// computed internally).
    #[must_use]
    pub fn techniques(mut self, techniques: TechniqueSet) -> Self {
        self.techniques = techniques;
        self
    }

    /// Whether the session keeps its analysis arena (default `true`).
    /// Disable for benchmarking sessions that must re-run the full
    /// pipeline on every call.
    #[must_use]
    pub fn reuse_analyses(mut self, reuse: bool) -> Self {
        self.reuse_analyses = reuse;
        self
    }

    /// Bounds the arena to `capacity` cached function structures,
    /// evicting least-recently-used entries beyond it (default `0` =
    /// unbounded). Evictions are counted in
    /// [`ArenaStats::evictions`]; an evicted function's next
    /// optimization runs cold again. The same capacity bounds the
    /// failure records of [`FailurePolicy::Degrade`]/[`FailurePolicy::Skip`]
    /// quarantine, evicting records with no active backoff window
    /// first.
    #[must_use]
    pub fn arena_capacity(mut self, capacity: usize) -> Self {
        self.arena_capacity = capacity;
        self
    }

    /// What the session does when one function's pipeline fails
    /// (default [`FailurePolicy::Fail`]: the historical all-or-nothing
    /// behavior). `Degrade` and `Skip` contain the failure to that one
    /// function and record it in the run's fault ledger.
    #[must_use]
    pub fn on_fault(mut self, policy: FailurePolicy) -> Self {
        self.failure_policy = policy;
        self
    }

    /// A cooperative per-function [`Budget`] (wall-clock and/or solver
    /// iteration caps; default: none). Trips surface as
    /// [`DriverError::BudgetExceeded`] under [`FailurePolicy::Fail`]
    /// and degrade like any other fault otherwise.
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Validates the configuration and builds the [`Session`] (spawning
    /// its worker pool).
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Config`] for an unknown target name, a
    /// malformed target convention, or an empty technique set.
    pub fn build(self) -> Result<Session, DriverError> {
        if self.techniques.is_empty() {
            return Err(DriverError::Config(
                "technique set is empty; select at least one technique".to_string(),
            ));
        }
        let resolve = |spec: TargetSpec| -> Result<SessionTarget, DriverError> {
            let target = spec.try_to_target().map_err(|e| {
                DriverError::Config(format!("target `{}` is malformed: {e}", spec.name))
            })?;
            Ok(SessionTarget {
                costs: self.costs.unwrap_or(spec.costs),
                spec: Some(spec),
                target,
            })
        };
        let targets = match self.target {
            BuildTarget::Preset(target) => vec![SessionTarget {
                spec: None,
                target,
                costs: self.costs.unwrap_or(SpillCostModel::UNIT),
            }],
            BuildTarget::Spec(spec) => vec![resolve(spec)?],
            BuildTarget::Named(name) => {
                let spec = spec_by_name(&name).ok_or_else(|| {
                    DriverError::Config(format!(
                        "unknown target `{name}` (registered: {})",
                        registry()
                            .iter()
                            .map(|s| s.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                })?;
                vec![resolve(spec)?]
            }
            BuildTarget::All => registry()
                .into_iter()
                .map(resolve)
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(Session {
            targets,
            profile: self.profile,
            techniques: self.techniques,
            pool: Pool::new(self.threads),
            arena: self
                .reuse_analyses
                .then(|| AnalysisArena::new(self.arena_capacity)),
            failure_policy: self.failure_policy,
            budget: self.budget,
        })
    }
}

/// A configured, warm, reusable optimizer: the validated targets, the
/// persistent worker pool, and the per-session analysis arena. Built by
/// [`OptimizerBuilder::build`]; every module-scale entry point of this
/// workspace goes through one of its methods.
#[derive(Debug)]
pub struct Session {
    targets: Vec<SessionTarget>,
    profile: ProfileSource,
    techniques: TechniqueSet,
    pool: Pool,
    arena: Option<AnalysisArena>,
    failure_policy: FailurePolicy,
    budget: Budget,
}

impl Session {
    /// The names of the session's resolved targets, in registry order.
    pub fn targets(&self) -> Vec<&str> {
        self.targets.iter().map(|t| t.target.name()).collect()
    }

    /// The selected techniques.
    pub fn techniques(&self) -> TechniqueSet {
        self.techniques
    }

    /// The pool's worker count (1 = serial).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Arena statistics, equal to `stats().arena`; all-zero for sessions
    /// built with [`OptimizerBuilder::reuse_analyses`]`(false)`.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena
            .as_ref()
            .map_or(ArenaStats::default(), AnalysisArena::stats)
    }

    /// Everything the session instruments about itself: arena hit/miss
    /// counters plus the persistent pool's per-worker activity.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            arena: self.arena_stats(),
            pool_workers: self.pool.worker_stats(),
        }
    }

    fn single_target(&self) -> Result<&SessionTarget, DriverError> {
        match self.targets.as_slice() {
            [one] => Ok(one),
            many => Err(DriverError::Config(format!(
                "this session optimizes across {} targets; use `cross_target` \
                 (or build the session with one target)",
                many.len()
            ))),
        }
    }

    /// Runs `modules` through [`run_batch`] on the session's single
    /// target, pool and arena.
    fn run(
        &self,
        modules: &[Module],
        profiles: Option<&[EdgeProfile]>,
        observer: Option<&dyn Observer>,
    ) -> Result<Vec<ModuleRun>, DriverError> {
        let st = self.single_target()?;
        let engine = Engine {
            target: &st.target,
            costs: &st.costs,
            profile_source: &self.profile,
            techniques: self.techniques,
            pool: Some(&self.pool),
            arena: self.arena.as_ref(),
            observer,
            policy: self.failure_policy,
            budget: self.budget,
        };
        run_batch(&engine, modules, profiles)
    }

    /// Optimizes one module on the session pool.
    ///
    /// # Errors
    ///
    /// Returns the first driver failure: a failing training workload, an
    /// invalid placement ([`DriverError::InvalidPlacement`]), or a
    /// panicking pipeline.
    pub fn optimize(&self, module: &Module) -> Result<ModuleRun, DriverError> {
        self.run(std::slice::from_ref(module), None, None)
            .map(only_run)
    }

    /// As [`Session::optimize`], streaming per-function reports to
    /// `observer` as they retire.
    ///
    /// # Errors
    ///
    /// As [`Session::optimize`].
    pub fn optimize_observed(
        &self,
        module: &Module,
        observer: &dyn Observer,
    ) -> Result<ModuleRun, DriverError> {
        self.run(std::slice::from_ref(module), None, Some(observer))
            .map(only_run)
    }

    /// Optimizes one module under explicit measured per-function edge
    /// profiles, overriding the session's [`ProfileSource`] for this
    /// call — the re-profiling entry point. `profiles` is indexed by
    /// function index and must cover every function of `module` with an
    /// edge vector matching that function's CFG.
    ///
    /// On a session with analysis reuse, repeated calls over drifting
    /// profiles are where the two-level arena earns its keep: a
    /// function's latest profile, sent again, returns wholesale
    /// ([`Provenance::Warm`]), and any other profile that leaves its
    /// allocation unchanged re-folds only the PST regions its
    /// [`ProfileDelta`] dirties ([`Provenance::Incremental`]). The
    /// returned report is byte-identical to a cold run on the same
    /// profiles regardless.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Config`] when the profiles don't match the
    /// module's shape, or the first driver failure.
    pub fn optimize_profiled(
        &self,
        module: &Module,
        profiles: &[EdgeProfile],
    ) -> Result<ModuleRun, DriverError> {
        self.run(std::slice::from_ref(module), Some(profiles), None)
            .map(only_run)
    }

    /// As [`Session::optimize_profiled`], streaming per-function
    /// reports (with their reuse provenance) to `observer`.
    ///
    /// # Errors
    ///
    /// As [`Session::optimize_profiled`].
    pub fn optimize_profiled_observed(
        &self,
        module: &Module,
        profiles: &[EdgeProfile],
        observer: &dyn Observer,
    ) -> Result<ModuleRun, DriverError> {
        self.run(std::slice::from_ref(module), Some(profiles), Some(observer))
            .map(only_run)
    }

    /// Materializes the per-function edge profiles the session's
    /// [`ProfileSource`] yields for `module` — the base profiles a
    /// drift harness mutates before re-optimizing with
    /// [`Session::optimize_profiled`]. Synthetic sources synthesize
    /// exactly what [`Session::optimize`] would; workload sources run
    /// the training workload once.
    ///
    /// # Errors
    ///
    /// Returns the same configuration/workload failures
    /// [`Session::optimize`] would.
    pub fn resolve_profiles(&self, module: &Module) -> Result<Vec<EdgeProfile>, DriverError> {
        let st = self.single_target()?;
        Ok(match module_profiles(module, &st.target, &self.profile)? {
            Some(profiles) => profiles.into_owned(),
            None => module
                .func_ids()
                .map(|fid| synth_profile(module.func(fid), fid, &self.profile))
                .collect(),
        })
    }

    /// Optimizes a batch of modules, fanning **all** their functions out
    /// on the session pool at once (a small module no longer serializes
    /// behind a big one). Results are in input order and byte-identical
    /// to independent [`Session::optimize`] calls.
    ///
    /// # Errors
    ///
    /// Returns the first driver failure across the batch.
    pub fn optimize_many(&self, modules: &[Module]) -> Result<Vec<ModuleRun>, DriverError> {
        self.run(modules, None, None)
    }

    /// As [`Session::optimize_many`], streaming per-function reports.
    ///
    /// # Errors
    ///
    /// As [`Session::optimize_many`].
    pub fn optimize_many_observed(
        &self,
        modules: &[Module],
        observer: &dyn Observer,
    ) -> Result<Vec<ModuleRun>, DriverError> {
        self.run(modules, None, Some(observer))
    }

    /// Runs the whole pipeline across every session target and collects
    /// the per-target reports into one [`CrossTargetReport`].
    ///
    /// `load` builds the module *and its profile source* for a target —
    /// generated benchmarks lower against the target's convention, so
    /// each target gets its own build. Targets fan out on the session
    /// pool; each target's module is then processed serially within its
    /// worker, which keeps total parallelism bounded and the report a
    /// pure function of the inputs — byte-identical for every thread
    /// count. The analysis arena is bypassed here (its keys assume the
    /// session's single target).
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Config`] if any session target is a preset
    /// [`Target`] (cross-target reports need registered specs), or the
    /// first per-target driver failure.
    pub fn cross_target(
        &self,
        load: impl Fn(&TargetSpec) -> Result<(Module, ProfileSource), DriverError> + Sync,
    ) -> Result<CrossTargetReport, DriverError> {
        self.cross_target_inner(&load, None)
    }

    /// As [`Session::cross_target`], streaming per-function reports.
    ///
    /// # Errors
    ///
    /// As [`Session::cross_target`].
    pub fn cross_target_observed(
        &self,
        load: impl Fn(&TargetSpec) -> Result<(Module, ProfileSource), DriverError> + Sync,
        observer: &dyn Observer,
    ) -> Result<CrossTargetReport, DriverError> {
        self.cross_target_inner(&load, Some(observer))
    }

    fn cross_target_inner(
        &self,
        load: &Loader<'_>,
        observer: Option<&dyn Observer>,
    ) -> Result<CrossTargetReport, DriverError> {
        for st in &self.targets {
            if st.spec.is_none() {
                return Err(DriverError::Config(format!(
                    "cross-target runs need registered targets; `{}` is a preset convention",
                    st.target.name()
                )));
            }
        }
        let items: Vec<&SessionTarget> = self.targets.iter().collect();
        let outcomes = self
            .pool
            .run_batch(items, |_, st| {
                let spec = st.spec.as_ref().expect("checked above");
                let (module, profile) = load(spec)?;
                let engine = Engine {
                    target: &st.target,
                    costs: &st.costs,
                    profile_source: &profile,
                    techniques: self.techniques,
                    // Inline within the worker: the target fan-out is
                    // the parallelism.
                    pool: None,
                    arena: None,
                    observer,
                    policy: self.failure_policy,
                    budget: self.budget,
                };
                let run = only_run(run_batch(&engine, std::slice::from_ref(&module), None)?);
                Ok((spec.clone(), run.report))
            })
            .map_err(|p| DriverError::Panicked {
                unit: self.targets[p.index].target.name().to_string(),
                message: p.message(),
            })?;
        let mut targets = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            targets.push(outcome?);
        }
        Ok(CrossTargetReport::new(targets))
    }
}

/// The run of a one-module batch.
fn only_run(mut runs: Vec<ModuleRun>) -> ModuleRun {
    runs.pop().expect("one module in, one run out")
}

/// One batch's full configuration. A session builds one per call over
/// its single target, pool and arena; [`Session::cross_target`] builds
/// one per target, inline and arena-free.
struct Engine<'e> {
    target: &'e Target,
    costs: &'e SpillCostModel,
    /// Where profiles come from for functions without a per-call one.
    profile_source: &'e ProfileSource,
    techniques: TechniqueSet,
    /// The persistent pool, or `None` to run inline on the calling
    /// thread.
    pool: Option<&'e Pool>,
    arena: Option<&'e AnalysisArena>,
    observer: Option<&'e dyn Observer>,
    policy: FailurePolicy,
    budget: Budget,
}

impl Engine<'_> {
    /// Runs `work` over `items` on the engine's executor, results in
    /// item order.
    fn run<I, T, F>(&self, items: Vec<I>, work: F) -> Result<Vec<T>, ItemPanic>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        match self.pool {
            Some(pool) => pool.run_batch(items, work),
            None => serial_run(items, &work),
        }
    }
}

/// Stage 1 (serial): the profiles `source` yields for `module` —
/// measured once for a workload, borrowed for explicit profiles, and
/// `None` for synthetic sources (synthesized lazily per function).
fn module_profiles<'s>(
    module: &Module,
    target: &Target,
    source: &'s ProfileSource,
) -> Result<Option<Cow<'s, [EdgeProfile]>>, DriverError> {
    match source {
        ProfileSource::Workload(runs) => {
            // A workload's `FuncId`s name one specific module's
            // functions; a session-level workload replayed against a
            // different module would train on the wrong code. Out-of-
            // range ids are certainly that mistake — reject them
            // up front (same-arity mismatches are undetectable here).
            if let Some((fid, _)) = runs.iter().find(|(f, _)| f.index() >= module.num_funcs()) {
                return Err(DriverError::Config(format!(
                    "training workload names function #{} but module `{}` has {} function(s); \
                     workload profiles are per-module — build the session's ProfileSource for \
                     the module being optimized",
                    fid.index(),
                    module.name(),
                    module.num_funcs()
                )));
            }
            let mut vm = Machine::new(module, target);
            vm.set_fuel(1 << 30);
            for (f, args) in runs {
                vm.call(*f, args).map_err(DriverError::Workload)?;
            }
            Ok(Some(Cow::Owned(
                module.func_ids().map(|f| vm.edge_profile(f)).collect(),
            )))
        }
        ProfileSource::Synthetic { .. } => Ok(None),
        ProfileSource::Profiles(profiles) => {
            check_profiles(module, profiles)?;
            Ok(Some(Cow::Borrowed(profiles)))
        }
    }
}

/// Explicit profiles are positional over one specific module's
/// functions; shape mismatches are certainly the wrong-module mistake —
/// reject them up front, per module.
fn check_profiles(module: &Module, profiles: &[EdgeProfile]) -> Result<(), DriverError> {
    if profiles.len() != module.num_funcs() {
        return Err(DriverError::Config(format!(
            "explicit profile vector has {} profile(s) but module `{}` has {} \
             function(s); profiles are per-module — build the vector for the module \
             being optimized",
            profiles.len(),
            module.name(),
            module.num_funcs()
        )));
    }
    for (fid, p) in module.func_ids().zip(profiles) {
        let func = module.func(fid);
        let edges = spillopt_ir::Cfg::count_edges(func);
        if p.edge_counts().len() != edges {
            return Err(DriverError::Config(format!(
                "profile for function #{} (`{}`) has {} edge count(s) but its CFG has \
                 {} edge(s); per-module profiles must be measured on the module being \
                 optimized",
                fid.index(),
                func.name(),
                p.edge_counts().len(),
                edges
            )));
        }
    }
    Ok(())
}

/// The deterministic synthetic profile [`ProfileSource::Synthetic`]
/// yields for one function (shared by the engine's lazy per-function
/// path and [`Session::resolve_profiles`]).
fn synth_profile(func: &Function, fid: FuncId, source: &ProfileSource) -> EdgeProfile {
    let _s = spillopt_obs::span("profile_synth");
    let ProfileSource::Synthetic {
        walks,
        max_steps,
        seed,
    } = source
    else {
        unreachable!("workload and explicit profiles are precomputed")
    };
    let cfg = spillopt_ir::Cfg::compute(func);
    random_walk_profile(
        &cfg,
        *walks,
        *max_steps,
        seed ^ (fid.index() as u64).wrapping_mul(0x9e37_79b9),
    )
}

/// The one module-batch body behind every session entry point: profile
/// → allocate → analyses → selected techniques for every function of
/// every module, as one batch on the engine's executor.
///
/// `profiles`, when given, overrides the engine's profile source for a
/// one-module batch and is borrowed, never copied. A batch of more than
/// one module names its failing units `module::function`; a one-module
/// batch names the function alone.
fn run_batch(
    engine: &Engine<'_>,
    modules: &[Module],
    profiles: Option<&[EdgeProfile]>,
) -> Result<Vec<ModuleRun>, DriverError> {
    let multi = modules.len() > 1;
    if multi
        && (profiles.is_some()
            || matches!(
                engine.profile_source,
                ProfileSource::Workload(_) | ProfileSource::Profiles(_)
            ))
    {
        return Err(DriverError::Config(
            "a training workload (or an explicit profile vector) names one specific \
             module's functions and cannot drive a multi-module batch; use synthetic \
             profiles, or one `optimize` call per module with its own profile session"
                .to_string(),
        ));
    }
    let unit = |mi: usize, function: &str| {
        if multi {
            format!("{}::{function}", modules[mi].name())
        } else {
            function.to_string()
        }
    };

    // Stage 1 (serial): per-module profiles.
    let resolved = modules
        .iter()
        .map(|module| match profiles {
            Some(profiles) => {
                check_profiles(module, profiles).map(|()| Some(Cow::Borrowed(profiles)))
            }
            None => module_profiles(module, engine.target, engine.profile_source),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let coords: Vec<(usize, FuncId)> = modules
        .iter()
        .enumerate()
        .flat_map(|(mi, module)| module.func_ids().map(move |fid| (mi, fid)))
        .collect();

    // Stage 2 (parallel): every function of every module, one batch.
    let outcomes = engine
        .run(coords.clone(), |_, (mi, fid)| {
            let profile = resolved[mi].as_deref().map(|p| &p[fid.index()]);
            run_function(&modules[mi], fid, profile, engine)
        })
        .map_err(|p| {
            let (mi, fid) = coords[p.index];
            DriverError::Panicked {
                unit: unit(mi, modules[mi].func(fid).name()),
                message: p.message(),
            }
        })?;

    // Regroup per module, in input order (`coords` is module-major).
    let mut outcomes = outcomes.into_iter();
    let mut runs = Vec::with_capacity(modules.len());
    for (mi, module) in modules.iter().enumerate() {
        let mut reports = Vec::with_capacity(module.num_funcs());
        let mut allocated = Vec::with_capacity(module.num_funcs());
        let mut faults = Vec::new();
        for outcome in outcomes.by_ref().take(module.num_funcs()) {
            let (report, alloc, fault) = outcome.map_err(|e| match e {
                // Contained failures name the function; name the unit
                // as the panic path does.
                DriverError::Panicked {
                    unit: function,
                    message,
                } => DriverError::Panicked {
                    unit: unit(mi, &function),
                    message,
                },
                e => e,
            })?;
            reports.push(report);
            allocated.push(alloc);
            faults.extend(fault);
        }
        runs.push(ModuleRun::from_parts(
            ModuleReport::new(
                module.name().to_string(),
                engine.target.name().to_string(),
                reports,
            ),
            allocated,
            faults,
        ));
    }
    for run in &runs {
        notify_module_done(engine, &run.report)?;
    }
    Ok(runs)
}

/// One function's pipeline, inside a containment boundary: the attempt
/// (arena-aware, exactly the historical pipeline) runs under
/// `catch_unwind` with the session's [`Budget`] armed; panics, invalid
/// placements, and budget trips are classified into structured errors
/// and the arena is purged of any partial state. The engine's
/// [`FailurePolicy`] then decides whether the failure surfaces (`Fail`,
/// the historical behavior), walks the degradation ladder (`Degrade`),
/// or skips the function (`Skip`) — the latter two recording the
/// original error in the run's fault ledger.
fn run_function(
    module: &Module,
    fid: FuncId,
    profile: Option<&EdgeProfile>,
    engine: &Engine<'_>,
) -> Result<FunctionOutcome, DriverError> {
    // Per-function span: the flush boundary when the batch runs inline
    // on the calling thread; on a pool worker (this session's, or a
    // stress sweep's running the case that built this session) the
    // worker's `pool_job` span wraps it.
    let _fn_span = spillopt_obs::span("function");
    let source_func = module.func(fid);
    let synthesized;
    let profile = match profile {
        Some(profile) => profile,
        None => {
            synthesized = synth_profile(source_func, fid, engine.profile_source);
            &synthesized
        }
    };
    let key = engine.arena.map(|_| module.fingerprint(fid));
    // One wall-clock deadline per function, shared by every attempt
    // (ladder rungs included); iteration caps are per attempt.
    let deadline = engine.budget.deadline_from_now();

    // Quarantined repeat offenders sit out their backoff window without
    // an attempt (Degrade/Skip only; `Fail` never quarantines).
    if engine.policy != FailurePolicy::Fail {
        if let (Some(arena), Some(key)) = (engine.arena, key) {
            if arena.quarantine_skip(key) {
                let (report, alloc) = passthrough(fid, module.shared_func(fid));
                let fault = FunctionFault {
                    function: source_func.name().to_string(),
                    index: fid.index(),
                    kind: FaultKind::Quarantined,
                    error: "in quarantine backoff after repeated failures".to_string(),
                    action: FaultAction::Skipped,
                };
                notify_retired(engine, module, &report, Provenance::Degraded)?;
                return Ok((report, alloc, Some(fault)));
            }
        }
    }

    let error = match attempt_full(module, fid, profile, engine, key, deadline) {
        Ok((report, alloc, provenance)) => {
            if engine.policy != FailurePolicy::Fail {
                if let (Some(arena), Some(key)) = (engine.arena, key) {
                    arena.record_success(key);
                }
            }
            notify_retired(engine, module, &report, provenance)?;
            return Ok((report, alloc, None));
        }
        Err(error) => error,
    };

    // The attempt failed. Never keep (possibly partial) cached state
    // for a failed function; under Degrade/Skip also advance its
    // quarantine entry.
    if let (Some(arena), Some(key)) = (engine.arena, key) {
        if engine.policy == FailurePolicy::Fail {
            arena.purge(key);
        } else {
            arena.record_failure(key);
        }
    }
    if engine.policy == FailurePolicy::Fail {
        return Err(error);
    }
    spillopt_obs::count("fault_contained", 1);
    let kind = match &error {
        DriverError::BudgetExceeded { .. } => FaultKind::BudgetExceeded,
        DriverError::InvalidPlacement { .. } => FaultKind::InvalidPlacement,
        _ => FaultKind::Panic,
    };
    let fault_entry = |action: FaultAction| FunctionFault {
        function: source_func.name().to_string(),
        index: fid.index(),
        kind,
        error: error.to_string(),
        action,
    };

    // Degrade: walk the guarantee chain — hier-jump → hier-exec → Chow
    // → entry/exit, within the session's technique set — with fresh
    // arena-free single-technique attempts. The first rung that
    // succeeds retires the function.
    if engine.policy == FailurePolicy::Degrade {
        for strategy in [
            Strategy::HierJump,
            Strategy::HierExec,
            Strategy::Shrinkwrap,
            Strategy::Baseline,
        ] {
            if !engine.techniques.contains(strategy) {
                continue;
            }
            if let Ok((report, alloc)) =
                attempt_single(module, fid, profile, engine, strategy, deadline)
            {
                spillopt_obs::count("fault_degraded", 1);
                let fault = fault_entry(FaultAction::Degraded { to: strategy });
                notify_retired(engine, module, &report, Provenance::Degraded)?;
                return Ok((report, alloc, Some(fault)));
            }
        }
    }

    // Skip policy, or a fully exhausted ladder: unoptimized passthrough.
    spillopt_obs::count("fault_skipped", 1);
    let (report, alloc) = passthrough(fid, module.shared_func(fid));
    let fault = fault_entry(FaultAction::Skipped);
    notify_retired(engine, module, &report, Provenance::Degraded)?;
    Ok((report, alloc, Some(fault)))
}

/// The full pipeline attempt, inside the containment boundary: arms the
/// budget, catches panics (typed budget and injection payloads
/// included), and classifies any failure into a structured error.
fn attempt_full(
    module: &Module,
    fid: FuncId,
    profile: &EdgeProfile,
    engine: &Engine<'_>,
    key: Option<u64>,
    deadline: Option<Instant>,
) -> Result<(FunctionReport, Arc<Function>, Provenance), DriverError> {
    let function = module.func(fid).name();
    catch_unwind(AssertUnwindSafe(|| {
        let _budget = arm_budget(engine, deadline);
        attempt_full_inner(module, fid, profile, engine, key)
    }))
    .unwrap_or_else(|payload| Err(classify_panic(function, payload)))
}

/// The historical pipeline body: resolve against the two-level arena
/// and run as little of the pipeline as the cached structure allows —
/// warm wholesale, incremental re-fold on drift, cold only for unseen
/// functions, fingerprint collisions, or allocation-changing drifts.
fn attempt_full_inner(
    module: &Module,
    fid: FuncId,
    profile: &EdgeProfile,
    engine: &Engine<'_>,
    key: Option<u64>,
) -> Result<(FunctionReport, Arc<Function>, Provenance), DriverError> {
    let shared = module.shared_func(fid);
    let (Some(arena), Some(key)) = (engine.arena, key) else {
        // No arena: the same cold body, with nothing kept — also the
        // differential oracle the drift fuzzer compares every
        // incremental result against.
        let (state, report) = cold_structure(fid, shared, engine, profile, None)?;
        return Ok((report, state.func, Provenance::Cold));
    };

    if let Some(state) = arena.structure(key) {
        let mut guard = state.lock().unwrap();
        let st = &mut *guard;
        // The fingerprint located the entry; identity or equality
        // confirms it is this function's and not a colliding one's.
        // Identity suffices because the entry holds its source (so the
        // allocation cannot be freed and reused) and a module sharing
        // it copies on write.
        let allocated = if Arc::ptr_eq(&st.source, shared) || *st.source == **shared {
            if st.cache.profile == *profile {
                arena.record_hit();
                let mut report = st.outcome.clone();
                report.index = fid.index();
                return Ok((report, Arc::clone(&st.func), Provenance::Warm));
            }
            // The profile drifted: keep the cached allocation unless it
            // is proven stale, and then rebuild on the trial allocation
            // that proved it.
            let allocated = drifted_allocation(st, shared, engine, profile, arena);
            if allocated.is_none() {
                // The re-fold rebases the structure on this profile.
                let report = refold_incremental(fid, st, engine, profile.clone(), arena)?;
                return Ok((report, Arc::clone(&st.func), Provenance::Incremental));
            }
            allocated
        } else {
            None
        };
        // A colliding function holds this key, or the drift changed the
        // allocation itself: rebuild the whole structure cold in place
        // (the old outcome priced a different function, so it goes with
        // it).
        arena.record_miss();
        let (state, report) = cold_structure(fid, shared, engine, profile, allocated)?;
        *st = state;
        return Ok((report, Arc::clone(&st.func), Provenance::Cold));
    }

    // Unseen function: full cold pipeline, then cache the structure.
    arena.record_miss();
    let (state, report) = cold_structure(fid, shared, engine, profile, None)?;
    let func = Arc::clone(&state.func);
    arena.insert_structure(key, state);
    Ok((report, func, Provenance::Cold))
}

/// One rung of the degradation ladder: a fresh, arena-free,
/// single-technique pipeline attempt inside its own containment
/// boundary, sharing the function's wall-clock deadline. Degraded
/// products are never cached — a later clean call runs cold and is
/// byte-identical to a fresh session.
fn attempt_single(
    module: &Module,
    fid: FuncId,
    profile: &EdgeProfile,
    engine: &Engine<'_>,
    strategy: Strategy,
    deadline: Option<Instant>,
) -> Result<(FunctionReport, Arc<Function>), DriverError> {
    let function = module.func(fid).name();
    catch_unwind(AssertUnwindSafe(|| {
        let _budget = arm_budget(engine, deadline);
        let (func, cache, mut report, _) =
            cold_prefix(fid, module.func(fid), engine, profile, None);
        if cache.needs_placement() {
            let technique = match strategy {
                Strategy::Baseline => Technique::EntryExit,
                Strategy::Shrinkwrap => Technique::Chow,
                Strategy::HierExec => Technique::HierExec,
                Strategy::HierJump => Technique::HierJump,
            };
            let inputs = suite_inputs(&cache);
            let (placement, cost) = run_technique(
                &cache.cfg,
                &inputs,
                &SuiteOptions::priced(*engine.costs),
                technique,
            )
            .map_err(|e| suite_error(&func, e))?;
            report.strategies.push(StrategyReport {
                strategy,
                cost,
                static_count: placement.static_count(),
                placement,
            });
            report.best = Some(strategy);
        }
        Ok((report, Arc::new(func)))
    }))
    .unwrap_or_else(|payload| Err(classify_panic(function, payload)))
}

/// The ladder's last rung: the source function passes through
/// unoptimized (still pre-allocation). [`crate::ModuleRun::apply`]
/// emits it as-is, guided by the fault ledger.
fn passthrough(fid: FuncId, source_func: &Arc<Function>) -> (FunctionReport, Arc<Function>) {
    let insts = source_func
        .block_ids()
        .map(|b| source_func.block(b).insts.len())
        .sum();
    let report = FunctionReport {
        index: fid.index(),
        name: source_func.name().to_string(),
        blocks: source_func.num_blocks(),
        insts,
        spilled_vregs: 0,
        callee_saved: 0,
        strategies: Vec::new(),
        best: None,
    };
    (report, Arc::clone(source_func))
}

/// Classifies a caught panic payload into a structured driver error:
/// typed budget trips and injected errors keep their structure;
/// everything else is a genuine pipeline panic.
fn classify_panic(function: &str, payload: Box<dyn std::any::Any + Send>) -> DriverError {
    if let Some(trip) = payload.downcast_ref::<spillopt_obs::fault::BudgetExceeded>() {
        return DriverError::BudgetExceeded {
            function: function.to_string(),
            phase: trip.phase,
        };
    }
    if let Some(fault) = payload.downcast_ref::<spillopt_obs::fault::InjectedFault>() {
        if fault.kind == spillopt_obs::fault::InjectionKind::Error {
            return DriverError::InvalidPlacement {
                function: function.to_string(),
                technique: "injected",
                detail: fault.to_string(),
            };
        }
    }
    DriverError::Panicked {
        unit: function.to_string(),
        message: panic_message(&*payload),
    }
}

/// Arms the engine's cooperative budget for one attempt on the current
/// thread; `None` (nothing armed, nothing checked) when the session has
/// no caps.
fn arm_budget(engine: &Engine<'_>, deadline: Option<Instant>) -> Option<BudgetScope> {
    (deadline.is_some() || engine.budget.iter_cap().is_some()).then(|| {
        BudgetScope::arm(BudgetSpec {
            deadline,
            max_iters: engine.budget.iter_cap(),
        })
    })
}

/// Delivers `function_retired` inside its own containment boundary: an
/// observer panic is the observer's fault, surfaced as
/// [`DriverError::ObserverPanicked`] — never degraded, never attributed
/// to the function whose report it was handling.
fn notify_retired(
    engine: &Engine<'_>,
    module: &Module,
    report: &FunctionReport,
    provenance: Provenance,
) -> Result<(), DriverError> {
    let Some(obs) = engine.observer else {
        return Ok(());
    };
    catch_unwind(AssertUnwindSafe(|| {
        obs.function_retired(engine.target.name(), module.name(), report, provenance)
    }))
    .map_err(|payload| DriverError::ObserverPanicked {
        observer: obs.name().to_string(),
        callback: "function_retired",
        message: panic_message(&*payload),
    })
}

/// As [`notify_retired`], for `module_done`.
fn notify_module_done(engine: &Engine<'_>, report: &ModuleReport) -> Result<(), DriverError> {
    let Some(obs) = engine.observer else {
        return Ok(());
    };
    catch_unwind(AssertUnwindSafe(|| obs.module_done(report))).map_err(|payload| {
        DriverError::ObserverPanicked {
            observer: obs.name().to_string(),
            callback: "module_done",
            message: panic_message(&*payload),
        }
    })
}

/// Decides whether a drift to `profile` keeps `st`'s cached allocation.
/// `None` means it does: the stored certificate holds under `profile`,
/// or a trial allocation reproduced the cached function (its
/// certificate, which holds under `profile`, then replaces the stored
/// one). `Some` returns the trial allocation that differs, for the cold
/// rebuild.
fn drifted_allocation(
    st: &mut StructState,
    source_func: &Function,
    engine: &Engine<'_>,
    profile: &EdgeProfile,
    arena: &AnalysisArena,
) -> Option<(Function, RegAllocResult)> {
    let holds = {
        let _s = spillopt_obs::span("alloc_check");
        st.certificate.holds_under(profile)
    };
    if holds {
        return None;
    }
    arena.record_reallocation();
    let (func, alloc) = allocate_copy(source_func, engine, profile);
    if alloc.spilled_vregs == st.spilled_vregs && func == *st.func {
        st.certificate = alloc.certificate;
        return None;
    }
    Some((func, alloc))
}

/// Clones `source_func` and register-allocates the copy under
/// `profile`, inside the `allocate` span.
fn allocate_copy(
    source_func: &Function,
    engine: &Engine<'_>,
    profile: &EdgeProfile,
) -> (Function, RegAllocResult) {
    let mut func = source_func.clone();
    let _s = spillopt_obs::span("allocate");
    let alloc = allocate(&mut func, engine.target, Some(profile));
    (func, alloc)
}

/// The cold pipeline up to placement, which every cold body shares:
/// [`allocate_copy`] (unless the caller passes the allocation it already
/// ran), then the function's [`AnalysisCache`] and report shell.
/// Returns the allocated function, its analyses, the shell, and the
/// allocation's certificate.
fn cold_prefix(
    fid: FuncId,
    source_func: &Function,
    engine: &Engine<'_>,
    profile: &EdgeProfile,
    allocated: Option<(Function, RegAllocResult)>,
) -> (Function, AnalysisCache, FunctionReport, AllocCertificate) {
    let (func, alloc) = allocated.unwrap_or_else(|| allocate_copy(source_func, engine, profile));
    let cache = AnalysisCache::compute(&func, alloc.cfg, engine.target, profile.clone());
    let report = report_shell(fid, &func, &cache, alloc.spilled_vregs);
    (func, cache, report, alloc.certificate)
}

/// Runs the full cold pipeline for one function and packages the result
/// as an arena [`StructState`] (with its [`PlacementMemo`], and the
/// retired report as its outcome for `profile`) plus that report. `allocated` is `source_func`'s allocation under
/// `profile` when the caller already ran it.
fn cold_structure(
    fid: FuncId,
    source_func: &Arc<Function>,
    engine: &Engine<'_>,
    profile: &EdgeProfile,
    allocated: Option<(Function, RegAllocResult)>,
) -> Result<(StructState, FunctionReport), DriverError> {
    let (func, cache, mut report, certificate) =
        cold_prefix(fid, source_func, engine, profile, allocated);
    let memo = if cache.needs_placement() {
        let inputs = suite_inputs(&cache);
        let (suite, memo) =
            run_suite_memoized(&cache.cfg, &inputs, &SuiteOptions::priced(*engine.costs))
                .map_err(|e| suite_error(&func, e))?;
        fill_report(&mut report, suite, engine.techniques);
        Some(memo)
    } else {
        None
    };
    let state = StructState {
        source: Arc::clone(source_func),
        func: Arc::new(func),
        spilled_vregs: report.spilled_vregs,
        certificate,
        cache,
        memo,
        outcome: report.clone(),
    };
    Ok((state, report))
}

/// Re-establishes one function's placement after a profile drift that
/// left its allocation unchanged: computes the [`ProfileDelta`] from
/// the structure's base profile, re-folds only the dirtied PST regions,
/// rewrites the structure's outcome in place ([`refill_report`]), and
/// rebases the structure on the new profile. Returns one copy of the
/// outcome, indexed for this call.
fn refold_incremental(
    fid: FuncId,
    st: &mut StructState,
    engine: &Engine<'_>,
    profile: EdgeProfile,
    arena: &AnalysisArena,
) -> Result<FunctionReport, DriverError> {
    let delta = ProfileDelta::between(&st.cache.profile, &profile);
    match st.memo.as_mut() {
        Some(memo) => {
            let inputs = SuiteInputs::analyzed(
                &st.cache.usage,
                &profile,
                st.cache.cyclic(),
                st.cache.pst(),
                st.cache.derived(),
            );
            let (suite, refolds) = run_suite_incremental(
                &st.cache.cfg,
                &inputs,
                &SuiteOptions::priced(*engine.costs),
                memo,
                &delta,
            )
            .map_err(|e| suite_error(&st.func, e))?;
            arena.record_incremental(refolds);
            refill_report(&mut st.outcome, suite);
        }
        // No callee-saved use: the report is profile-independent and
        // there is nothing to re-fold.
        None => arena.record_incremental(RefoldStats::default()),
    }
    st.cache.profile = profile;
    let mut report = st.outcome.clone();
    report.index = fid.index();
    Ok(report)
}

/// Maps a core suite technique label to the reporting strategy name.
fn technique_name(label: &'static str) -> &'static str {
    match label {
        "entry_exit" => Strategy::Baseline.name(),
        "chow" => Strategy::Shrinkwrap.name(),
        "hierarchical_exec" => Strategy::HierExec.name(),
        "hierarchical_jump" => Strategy::HierJump.name(),
        other => other,
    }
}

/// The profile-independent frame of one function's report: identity,
/// size, and allocation facts. Strategies are filled by
/// [`fill_report`] (and stay empty for functions that need no
/// placement).
fn report_shell(
    fid: FuncId,
    func: &Function,
    cache: &AnalysisCache,
    spilled_vregs: usize,
) -> FunctionReport {
    let insts = func.block_ids().map(|b| func.block(b).insts.len()).sum();
    FunctionReport {
        index: fid.index(),
        name: func.name().to_string(),
        blocks: func.num_blocks(),
        insts,
        spilled_vregs,
        callee_saved: cache.usage.num_regs(),
        strategies: Vec::new(),
        best: None,
    }
}

/// The suite inputs borrowed from one [`AnalysisCache`] (lazy analyses
/// materialize here; functions that need no placement never call this).
fn suite_inputs(cache: &AnalysisCache) -> SuiteInputs<'_> {
    SuiteInputs::analyzed(
        &cache.usage,
        &cache.profile,
        cache.cyclic(),
        cache.pst(),
        cache.derived(),
    )
}

/// Distills a computed [`PlacementSuite`] into the report's selected
/// strategies (each carrying the placement an applied module run
/// inserts), picking the best by predicted cost.
fn fill_report(report: &mut FunctionReport, suite: PlacementSuite, techniques: TechniqueSet) {
    let entries = [
        (Strategy::Baseline, suite.entry_exit),
        (Strategy::Shrinkwrap, suite.chow),
        (Strategy::HierExec, suite.hierarchical_exec),
        (Strategy::HierJump, suite.hierarchical_jump),
    ];
    for ((strategy, placement), cost) in entries.into_iter().zip(suite.predicted) {
        if !techniques.contains(strategy) {
            continue;
        }
        report.strategies.push(StrategyReport {
            strategy,
            cost,
            static_count: placement.static_count(),
            placement,
        });
    }
    report.best = best_strategy(&report.strategies);
}

/// Rewrites a report [`fill_report`] built for the same function with a
/// re-folded suite of its new profile: every selected strategy's cost,
/// both hierarchical placements with their static counts, and the best
/// strategy. The entry/exit and Chow placements read no profile, so
/// they stay. The suite's order is [`Strategy::all`]'s, so a strategy's
/// discriminant indexes `predicted`.
fn refill_report(report: &mut FunctionReport, suite: PlacementSuite) {
    let PlacementSuite {
        mut hierarchical_exec,
        mut hierarchical_jump,
        predicted,
        ..
    } = suite;
    for s in &mut report.strategies {
        s.cost = predicted[s.strategy as usize];
        let placement = match s.strategy {
            Strategy::HierExec => &mut hierarchical_exec,
            Strategy::HierJump => &mut hierarchical_jump,
            Strategy::Baseline | Strategy::Shrinkwrap => continue,
        };
        s.static_count = placement.static_count();
        s.placement = std::mem::take(placement);
    }
    report.best = best_strategy(&report.strategies);
}

/// The cheapest strategy by predicted cost (the first of equals).
fn best_strategy(strategies: &[StrategyReport]) -> Option<Strategy> {
    strategies.iter().min_by_key(|s| s.cost).map(|s| s.strategy)
}

/// Converts a placement-validity failure into the driver's structured
/// error.
fn suite_error(func: &Function, e: SuiteError) -> DriverError {
    DriverError::InvalidPlacement {
        function: func.name().to_string(),
        technique: technique_name(e.technique),
        detail: e
            .errors
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; "),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_benchgen::{benchmark_by_name, build_bench};
    use spillopt_sync::atomic::AtomicUsize;

    fn mcf() -> (Module, Vec<(FuncId, Vec<i64>)>, Target) {
        let target = Target::default();
        let spec = benchmark_by_name("mcf").expect("known benchmark");
        let bench = build_bench(&spec, &target);
        (bench.module, bench.train_runs, target)
    }

    #[test]
    fn builder_validates_once() {
        assert!(matches!(
            OptimizerBuilder::new().target_named("pdp11").build(),
            Err(DriverError::Config(_))
        ));
        assert!(matches!(
            OptimizerBuilder::new()
                .techniques(TechniqueSet::EMPTY)
                .build(),
            Err(DriverError::Config(_))
        ));
        let session = OptimizerBuilder::new()
            .target_named("aarch64-aapcs64")
            .threads(1)
            .build()
            .expect("valid");
        assert_eq!(session.targets(), vec!["aarch64-aapcs64"]);
        assert_eq!(session.threads(), 1);
    }

    #[test]
    fn all_targets_session_rejects_single_module_optimize() {
        let (module, _, _) = mcf();
        let session = OptimizerBuilder::new()
            .all_targets()
            .threads(1)
            .build()
            .expect("valid");
        assert!(matches!(
            session.optimize(&module),
            Err(DriverError::Config(_))
        ));
    }

    #[test]
    fn warm_session_reuses_the_arena_and_keeps_bytes_identical() {
        let (module, runs, target) = mcf();
        let session = OptimizerBuilder::new()
            .target(target)
            .profile(ProfileSource::Workload(runs))
            .threads(2)
            .build()
            .expect("valid");
        let cold = session.optimize(&module).expect("first run");
        assert_eq!(session.stats().arena.hits, 0);
        let warm = session.optimize(&module).expect("second run");
        let stats = session.stats().arena;
        assert!(stats.hits > 0, "second run never hit the arena: {stats:?}");
        assert_eq!(
            cold.report.to_json().to_compact(),
            warm.report.to_json().to_compact(),
            "warm run changed report bytes"
        );
    }

    #[test]
    fn technique_subset_reports_only_selected_strategies() {
        let (module, runs, target) = mcf();
        let session = OptimizerBuilder::new()
            .target(target)
            .profile(ProfileSource::Workload(runs))
            .techniques(TechniqueSet::BASELINE.with(Strategy::HierJump))
            .threads(1)
            .build()
            .expect("valid");
        let run = session.optimize(&module).expect("optimize");
        let mut placed = 0;
        for f in &run.report.functions {
            for s in &f.strategies {
                assert!(
                    matches!(s.strategy, Strategy::Baseline | Strategy::HierJump),
                    "unselected strategy {} reported",
                    s.strategy.name()
                );
            }
            placed += f.strategies.len();
        }
        assert!(placed > 0, "no strategies reported at all");
    }

    #[test]
    fn observer_streams_every_placed_function() {
        let (module, runs, target) = mcf();
        let session = OptimizerBuilder::new()
            .target(target)
            .profile(ProfileSource::Workload(runs))
            .threads(2)
            .build()
            .expect("valid");
        let seen = AtomicUsize::new(0);
        let observer = |_t: &str, _m: &str, _r: &FunctionReport, _p: Provenance| {
            seen.fetch_add(1, Ordering::Relaxed);
        };
        let run = session.optimize_observed(&module, &observer).expect("run");
        assert_eq!(seen.load(Ordering::Relaxed), run.report.functions.len());
    }

    #[test]
    #[should_panic(expected = "was not computed")]
    fn apply_rejects_a_strategy_outside_the_technique_set() {
        let (module, runs, target) = mcf();
        let run = OptimizerBuilder::new()
            .target(target)
            .profile(ProfileSource::Workload(runs))
            .techniques(TechniqueSet::BASELINE)
            .threads(1)
            .build()
            .expect("valid")
            .optimize(&module)
            .expect("optimize");
        // hier-jump was never computed; silently emitting the module
        // without saves would violate the calling convention.
        let _ = run.apply(Some(Strategy::HierJump));
    }

    #[test]
    fn workload_naming_missing_functions_is_rejected() {
        let (module, _, target) = mcf();
        let bogus = vec![(FuncId::from_index(module.num_funcs() + 3), vec![1])];
        let err = OptimizerBuilder::new()
            .target(target)
            .profile(ProfileSource::Workload(bogus))
            .threads(1)
            .build()
            .expect("valid")
            .optimize(&module)
            .expect_err("workload names a function the module lacks");
        assert!(matches!(err, DriverError::Config(_)), "{err}");
        assert!(err.to_string().contains("per-module"), "{err}");
    }

    #[test]
    fn optimize_many_rejects_workload_sessions_for_batches() {
        let (module, runs, target) = mcf();
        let session = OptimizerBuilder::new()
            .target(target)
            .profile(ProfileSource::Workload(runs))
            .threads(1)
            .build()
            .expect("valid");
        let batch = vec![module.clone(), module];
        let err = session
            .optimize_many(&batch)
            .expect_err("one workload cannot train two modules");
        assert!(matches!(err, DriverError::Config(_)), "{err}");
    }

    /// Two distinct sources forced onto one fingerprint: the entry is
    /// confirmed by equality, so the second function's lookup is a
    /// counted miss that rebuilds the entry in place — never a hit
    /// serving the first function's products — and every report equals
    /// the arena-free pipeline's.
    #[test]
    fn fingerprint_collision_is_a_counted_miss_that_replaces_the_entry() {
        let (module, _, target) = mcf();
        let costs = SpillCostModel::UNIT;
        let source = ProfileSource::default();
        let arena = AnalysisArena::new(0);
        let mut engine = Engine {
            target: &target,
            costs: &costs,
            profile_source: &source,
            techniques: TechniqueSet::ALL,
            pool: None,
            arena: Some(&arena),
            observer: None,
            policy: FailurePolicy::Fail,
            budget: Budget::none(),
        };
        let [f, g] = [0, 1].map(FuncId::from_index);
        assert_ne!(module.func(f), module.func(g));
        let profile = |fid: FuncId| synth_profile(module.func(fid), fid, &source);
        let (pf, pg) = (profile(f), profile(g));
        const SHARED: u64 = 42;
        let run = |engine: &Engine<'_>, fid, p, key| {
            let (report, _, provenance) =
                attempt_full_inner(&module, fid, p, engine, key).expect("attempt");
            (report.to_json().to_compact(), provenance)
        };

        let (f_bytes, first) = run(&engine, f, &pf, Some(SHARED));
        let (g_bytes, second) = run(&engine, g, &pg, Some(SHARED));
        assert_eq!((first, second), (Provenance::Cold, Provenance::Cold));
        let stats = arena.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 1));

        // The entry now holds `g`: `g` hits, `f` misses and takes it back.
        assert_eq!(run(&engine, g, &pg, Some(SHARED)).1, Provenance::Warm);
        assert_eq!(run(&engine, f, &pf, Some(SHARED)).1, Provenance::Cold);
        let stats = arena.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 1));

        engine.arena = None;
        assert_eq!(f_bytes, run(&engine, f, &pf, None).0);
        assert_eq!(g_bytes, run(&engine, g, &pg, None).0);
    }

    /// The profile-shape check counts edges without building a CFG;
    /// the count must be exactly the CFG's on every benchmark module
    /// and across the stress generator's shapes.
    #[test]
    fn edge_count_matches_the_cfg_on_benchgen_and_stress_modules() {
        let specs = registry();
        let mut modules: Vec<Module> = Vec::new();
        for spec in &specs {
            for bench in spillopt_benchgen::all_benchmarks() {
                modules.push(build_bench(&bench, &spec.to_target()).module);
            }
        }
        for seed in 0..200u64 {
            let spec = &specs[seed as usize % specs.len()];
            modules.push(spillopt_stress::gen_case(&spec.to_target(), seed).module);
        }
        for module in &modules {
            for (_, func) in module.funcs() {
                assert_eq!(
                    spillopt_ir::Cfg::count_edges(func),
                    spillopt_ir::Cfg::compute(func).num_edges(),
                    "`{}` in `{}`",
                    func.name(),
                    module.name()
                );
            }
        }
    }

    /// Under a capacity, functions that fail once and never come back
    /// cannot grow the quarantine map past it, and an active backoff
    /// window outlives window-less records.
    #[test]
    fn quarantine_records_are_bounded_by_the_arena_capacity() {
        const FLAPPING: u64 = 0xf1a9;
        let arena: Arena<u32> = Arena::new(3);
        arena.record_failure(FLAPPING);
        arena.record_failure(FLAPPING);
        for key in 0..50u64 {
            arena.record_failure(key);
            assert!(arena.quarantine.lock().unwrap().len() <= 3, "key {key}");
        }
        let quarantine = arena.quarantine.lock().unwrap();
        let mut kept: Vec<u64> = quarantine.keys().copied().collect();
        kept.sort_unstable();
        assert_eq!(
            kept,
            [48, 49, FLAPPING],
            "newest window-less records and the window"
        );
        drop(quarantine);
        assert!(
            arena.quarantine_skip(FLAPPING),
            "the backoff window survived"
        );

        // Unbounded arenas keep every record.
        let unbounded: Arena<u32> = Arena::new(0);
        for key in 0..50u64 {
            unbounded.record_failure(key);
        }
        assert_eq!(unbounded.quarantine.lock().unwrap().len(), 50);
    }

    #[test]
    fn technique_set_parses_and_renders() {
        assert_eq!(TechniqueSet::parse("all").unwrap(), TechniqueSet::ALL);
        let set = TechniqueSet::parse("baseline, hier-jump").unwrap();
        assert!(set.contains(Strategy::Baseline));
        assert!(set.contains(Strategy::HierJump));
        assert!(!set.contains(Strategy::Shrinkwrap));
        assert_eq!(set.len(), 2);
        assert_eq!(set.names(), "baseline,hier-jump");
        assert_eq!(TechniqueSet::parse(&set.names()).unwrap(), set);
        let err = TechniqueSet::parse("bogus").unwrap_err();
        assert!(err.contains("hier-jump"), "{err}");
        assert!(TechniqueSet::parse("").is_err());
    }

    /// Display ↔ parse round-trip, exhaustively over the whole (16-set)
    /// space: every non-empty subset renders to a string `parse`
    /// reproduces bit-for-bit, and the empty set both renders empty and
    /// is rejected on the way back in.
    #[test]
    fn technique_set_display_parse_round_trips_exhaustively() {
        let all = Strategy::all();
        for mask in 0u32..(1 << all.len()) {
            let members: Vec<Strategy> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, s)| *s)
                .collect();
            let set = TechniqueSet::of(&members);
            let rendered = set.to_string();
            assert_eq!(rendered, set.names(), "Display must match names()");
            if members.is_empty() {
                assert_eq!(rendered, "");
                let err = TechniqueSet::parse(&rendered).unwrap_err();
                assert!(err.contains("empty"), "{err}");
            } else {
                assert_eq!(
                    TechniqueSet::parse(&rendered).unwrap(),
                    set,
                    "`{rendered}` did not round-trip"
                );
            }
        }
        // Whitespace and separators do not defeat the empty-set check.
        for s in [" ", ",", " , "] {
            assert!(TechniqueSet::parse(s).is_err(), "`{s}` accepted");
        }
        // A duplicate name is idempotent, not an error.
        assert_eq!(
            TechniqueSet::parse("baseline,baseline").unwrap(),
            TechniqueSet::BASELINE
        );
    }
}

/// Model-checked suites for the arena's concurrency skeleton: the
/// warm-hit/insert, LRU-evict, and quarantine protocols explored over
/// every interleaving reachable under the preemption bound, on an
/// `Arena<u32>` keyed by bare fingerprints (the production lock/atomic
/// structure with a trivial payload; the identity-or-equality check
/// that confirms a fingerprint is exercised by
/// `tests::fingerprint_collision_is_a_counted_miss_that_replaces_the_entry`),
/// plus the module's lazily cached key under a racing first use.
/// Run with `cargo test -p spillopt-driver --features model`.
#[cfg(all(test, feature = "model"))]
mod arena_model_tests {
    use super::{Arc, Arena, Module};
    use spillopt_ir::FunctionBuilder;
    use spillopt_sync::model::{check, ModelOptions};
    use spillopt_sync::thread;

    /// Structure fingerprints of the scenarios' functions.
    const F: u64 = 0xf;
    const A: u64 = 0xa;
    const B: u64 = 0xb;

    /// Warm-hit vs. insert race: two threads look up the same key and
    /// insert on miss. Under every schedule the arena ends with exactly
    /// one entry, every lookup-after-insert hits, and the hit/miss
    /// accounting matches what the threads actually observed.
    #[test]
    fn model_warm_hit_insert_race() {
        let report = check(ModelOptions::new(), || {
            let arena: Arc<Arena<u32>> = Arc::new(Arena::new(0));
            let worker = {
                let arena = Arc::clone(&arena);
                thread::spawn(move || match arena.structure(F) {
                    Some(state) => {
                        arena.record_hit();
                        *state.lock().unwrap()
                    }
                    None => {
                        arena.record_miss();
                        arena.insert_structure(F, 7);
                        7
                    }
                })
            };
            match arena.structure(F) {
                Some(state) => {
                    arena.record_hit();
                    assert_eq!(*state.lock().unwrap(), 7);
                }
                None => {
                    arena.record_miss();
                    arena.insert_structure(F, 7);
                }
            }
            assert_eq!(worker.join().unwrap(), 7);
            let stats = arena.stats();
            assert_eq!(stats.entries, 1, "duplicate inserts must coalesce");
            assert_eq!(stats.hits + stats.misses, 2);
            assert!(stats.misses >= 1, "someone had to populate the entry");
        });
        eprintln!(
            "model_warm_hit_insert_race: {} schedules",
            report.executions
        );
        assert!(report.executions > 1);
    }

    /// Concurrent inserts against capacity 1: under every schedule
    /// exactly one entry survives and exactly one eviction is counted —
    /// the evict scan must never see (or double-evict) a map it doesn't
    /// hold the lock for.
    #[test]
    fn model_capacity_evict_race() {
        let report = check(ModelOptions::new(), || {
            let arena: Arc<Arena<u32>> = Arc::new(Arena::new(1));
            let worker = {
                let arena = Arc::clone(&arena);
                thread::spawn(move || arena.insert_structure(A, 1))
            };
            arena.insert_structure(B, 2);
            worker.join().unwrap();
            let stats = arena.stats();
            assert_eq!(stats.entries, 1, "capacity 1 must hold");
            assert_eq!(stats.evictions, 1, "exactly one insert loses");
            // The survivor is intact and servable.
            let survivor = [A, B]
                .into_iter()
                .filter_map(|k| arena.structure(k))
                .count();
            assert_eq!(survivor, 1);
        });
        eprintln!("model_capacity_evict_race: {} schedules", report.executions);
        assert!(report.executions > 1);
    }

    /// Quarantine under contention: one thread records two failures
    /// (opening a backoff window of 2 skips); another probes
    /// `quarantine_skip` concurrently. Whatever the interleaving, the
    /// window is conserved — skips granted during the race plus skips
    /// left afterwards equal the window the failures opened, and a
    /// subsequent success clears it.
    #[test]
    fn model_quarantine_window_is_conserved() {
        let report = check(ModelOptions::new(), || {
            let arena: Arc<Arena<u32>> = Arc::new(Arena::new(0));
            let prober = {
                let arena = Arc::clone(&arena);
                thread::spawn(move || arena.quarantine_skip(F) as u32)
            };
            arena.record_failure(F);
            arena.record_failure(F);
            let raced = prober.join().unwrap();
            let mut drained = 0u32;
            while arena.quarantine_skip(F) {
                drained += 1;
            }
            assert_eq!(
                raced + drained,
                2,
                "two failures open a window of exactly 2 skips"
            );
            arena.record_success(F);
            assert!(!arena.quarantine_skip(F), "success clears the window");
        });
        eprintln!(
            "model_quarantine_window_is_conserved: {} schedules",
            report.executions
        );
        assert!(report.executions > 1);
    }

    /// A purged key no longer serves its old state, while a hit taken
    /// *before* the purge keeps its `Arc` alive and coherent — the
    /// lookup-clones-pointer design must tolerate purge racing a use.
    #[test]
    fn model_purge_races_active_use() {
        let report = check(ModelOptions::new(), || {
            let arena: Arc<Arena<u32>> = Arc::new(Arena::new(0));
            arena.insert_structure(F, 1);
            let user = {
                let arena = Arc::clone(&arena);
                thread::spawn(move || {
                    arena.structure(F).map(|state| {
                        let mut v = state.lock().unwrap();
                        *v += 10;
                        *v
                    })
                })
            };
            arena.record_failure(F); // purges F
            let seen = user.join().unwrap();
            assert!(
                seen.is_none() || seen == Some(11),
                "a racing user sees the entry fully or not at all: {seen:?}"
            );
            assert!(
                arena.structure(F).is_none(),
                "the purge must win against later lookups"
            );
        });
        eprintln!(
            "model_purge_races_active_use: {} schedules",
            report.executions
        );
        assert!(report.executions > 1);
    }

    /// Two distinct sources racing on one fingerprint, each running the
    /// production confirm-or-replace protocol (a located entry serves
    /// only when its stored source equals the caller's; otherwise the
    /// caller counts a miss and rebuilds the entry in place). Under
    /// every schedule neither thread is served the other's payload,
    /// the arena ends with one entry, and every lookup is counted.
    #[test]
    fn model_fingerprint_collision_never_serves_a_foreign_source() {
        /// One call: `(source, payload)` states keyed by `F`; returns
        /// the payload the caller was served.
        fn call(arena: &Arena<(u32, u32)>, source: u32) -> u32 {
            let payload = source * 10;
            match arena.structure(F) {
                Some(state) => {
                    let mut st = state.lock().unwrap();
                    if st.0 == source {
                        arena.record_hit();
                    } else {
                        arena.record_miss();
                        *st = (source, payload);
                    }
                    st.1
                }
                None => {
                    arena.record_miss();
                    arena.insert_structure(F, (source, payload));
                    payload
                }
            }
        }
        let report = check(ModelOptions::new(), || {
            let arena: Arc<Arena<(u32, u32)>> = Arc::new(Arena::new(0));
            let worker = {
                let arena = Arc::clone(&arena);
                thread::spawn(move || call(&arena, 2))
            };
            assert_eq!(call(&arena, 1), 10, "source 1 was served a foreign payload");
            assert_eq!(
                worker.join().unwrap(),
                20,
                "source 2 was served a foreign payload"
            );
            let stats = arena.stats();
            assert_eq!(stats.entries, 1);
            assert_eq!(stats.hits, 0, "distinct sources never hit each other");
            assert_eq!(stats.misses, 2);
        });
        eprintln!(
            "model_fingerprint_collision_never_serves_a_foreign_source: {} schedules",
            report.executions
        );
        assert!(report.executions > 1);
    }

    /// Two threads race on the first [`Module::fingerprint`] of one
    /// shared function, as two pool workers looking up the same module
    /// do: under every schedule both read one value, the function's own
    /// [`Function::fingerprint`](spillopt_ir::Function::fingerprint).
    #[test]
    fn model_first_fingerprint_is_shared() {
        let report = check(ModelOptions::new(), || {
            let mut fb = FunctionBuilder::new("f", 0);
            let entry = fb.create_block(None);
            fb.switch_to(entry);
            fb.ret(None);
            let mut module = Module::new("m");
            let fid = module.add_func(fb.finish());
            let module = Arc::new(module);
            let worker = {
                let module = Arc::clone(&module);
                thread::spawn(move || module.fingerprint(fid))
            };
            let mine = module.fingerprint(fid);
            assert_eq!(worker.join().unwrap(), mine, "two keys for one function");
            assert_eq!(mine, module.func(fid).fingerprint());
        });
        eprintln!(
            "model_first_fingerprint_is_shared: {} schedules",
            report.executions
        );
        assert!(report.executions > 1);
    }
}
