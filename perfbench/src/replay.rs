//! The traced replay: every function a traced session pass processed is
//! re-run through the public entry points of `ir`, `regalloc`, `pst`,
//! `profile` and `core`, along the path the session took for it (cold,
//! warm or incremental), under the benchmark's own timers. Each call is
//! recorded as a span tagged with the replayed function's id.
//!
//! Span names ending the path the session runs are *on-path*: their
//! per-function means plus `driver.overhead_us` add up to the session's
//! per-function mean. The others split an on-path call into its parts
//! (one interference build and colouring of `allocate`; the calls
//! `run_suite` makes; the dirty-region mapping of a re-fold) and are
//! reported beside their parent, not added to the sum.

use spillopt_core::{
    check_placement, chow_shrink_wrap_derived, entry_exit_placement, hierarchical_placement_seeded,
    modified_shrink_wrap_derived, placement_cost_with, run_suite_incremental, run_suite_memoized,
    CalleeSavedUsage, CostModel, PlacementMemo, PlacementSuite, SpillCostModel, SuiteInputs,
    SuiteOptions,
};
use spillopt_driver::Provenance;
use spillopt_ir::analysis::loops::{sccs, CyclicRegion};
use spillopt_ir::{Cfg, DenseBitSet, DerivedCfg, Function, Liveness, Target};
use spillopt_profile::{random_walk_profile, EdgeProfile, ProfileDelta};
use spillopt_pst::Pst;
use spillopt_regalloc::{allocate, color, InterferenceGraph};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Spans on the session's own path, in the order a cold function meets
/// them. Their means plus `driver.overhead_us` close to the session's
/// per-function mean.
pub const ON_PATH: [&str; 11] = [
    "ir.cfg",
    "profile.synth",
    "regalloc.allocate",
    "ir.liveness",
    "core.usage",
    "ir.sccs",
    "pst.build",
    "ir.derived",
    "core.memoize",
    "profile.delta",
    "core.refold",
];

/// Spans that split an on-path call into its parts.
pub const SPLITS: [&str; 10] = [
    "regalloc.interfere",
    "regalloc.color",
    "core.entry_exit",
    "core.chow",
    "core.hier_seed",
    "core.hier_exec",
    "core.hier_jump",
    "core.validate",
    "core.price",
    "pst.dirty",
];

/// One timed call of the replay.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer call (`layer.call`).
    pub name: &'static str,
    /// The replayed function's id: spans of one function share it.
    pub func: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Deterministic counts the replay takes at the layer boundaries
/// (totals over the measured functions).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Blocks of the functions processed.
    pub blocks: u64,
    /// Instructions of the functions processed.
    pub insts: u64,
    /// Allocation rounds beyond the first (build/color/spill retries).
    pub regalloc_rounds: u64,
    /// Virtual registers the allocations spilled.
    pub spilled_vregs: u64,
    /// Regions of the program structure trees built.
    pub pst_regions: u64,
    /// Edges whose count changed, summed over the profile deltas.
    pub changed_edges: u64,
    /// Regions re-folded by the incremental calls.
    pub regions_refolded: u64,
    /// Regions those calls would have folded cold.
    pub regions_total: u64,
}

/// Span recorder with per-name busy totals over measured functions.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    func: u64,
    measuring: bool,
    /// Every span, in recording order (as measured).
    pub spans: Vec<Span>,
    /// Busy nanoseconds per span name over measured functions, at the
    /// reference machine speed (see [`Tracer::fold`]).
    pub busy_ns: BTreeMap<&'static str, f64>,
    /// Busy nanoseconds as measured since the last fold.
    pending: BTreeMap<&'static str, u64>,
    /// Counts over measured functions.
    pub counts: Counts,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose span clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            func: 0,
            measuring: false,
            spans: Vec::new(),
            busy_ns: BTreeMap::new(),
            pending: BTreeMap::new(),
            counts: Counts::default(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts replaying function `func`; only `measuring` functions
    /// count toward busy totals and counts (the rest rebuild state).
    pub fn begin(&mut self, func: u64, measuring: bool) {
        self.func = func;
        self.measuring = measuring;
    }

    fn time<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = black_box(call());
        let end = Instant::now();
        self.spans.push(Span {
            name,
            func: self.func,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        });
        if self.measuring {
            *self.pending.entry(name).or_default() += (end - start).as_nanos() as u64;
        }
        out
    }

    /// Adds the busy time measured since the last fold, converted by
    /// `speed` (see `measure::speed`), to [`Tracer::busy_ns`].
    pub fn fold(&mut self, speed: f64) {
        for (name, ns) in std::mem::take(&mut self.pending) {
            *self.busy_ns.entry(name).or_default() += ns as f64 * speed;
        }
    }

    fn count(&mut self, bump: impl FnOnce(&mut Counts)) {
        if self.measuring {
            bump(&mut self.counts);
        }
    }

    /// The spans as a Chrome trace-event document (`ph: "X"`, one
    /// thread), with `extra` spans (the session's own per-function
    /// spans) merged in.
    pub fn chrome_json(&self, extra: &[Span]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().chain(extra).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"fn\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.func
            );
        }
        out.push_str("]}");
        out
    }
}

/// What the replay keeps per function between passes: the arena's
/// structure level, mirrored (allocated function, analyses, region
/// memo, and the profile the memo is based on).
#[derive(Debug)]
pub struct Structure {
    weights: Vec<u64>,
    cfg: Cfg,
    usage: CalleeSavedUsage,
    analyses: Option<(Vec<CyclicRegion>, Pst, DerivedCfg, PlacementMemo)>,
    profile: EdgeProfile,
}

/// Per-function replay state, keyed by (unit, function index).
pub type States = HashMap<(usize, usize), Structure>;

/// How the session obtained the function's profile.
#[derive(Clone, Copy, Debug)]
pub enum ProfilePath {
    /// Explicit profiles: the session computes each function's CFG to
    /// check the profile's shape.
    Explicit,
    /// Synthetic profiles: the session random-walks each function's CFG.
    Synthetic {
        /// Walks from the entry block.
        walks: u64,
        /// Step bound per walk.
        max_steps: u64,
        /// Base seed (the function index is mixed in).
        seed: u64,
    },
}

/// One function to replay.
#[derive(Debug)]
pub struct Job<'a> {
    /// Key into [`States`].
    pub key: (usize, usize),
    /// The source (virtual-register) function.
    pub source: &'a Function,
    /// The profile the session used.
    pub profile: &'a EdgeProfile,
    /// The session's target.
    pub target: &'a Target,
    /// The session's cost model.
    pub costs: SpillCostModel,
    /// Where the session's profile came from.
    pub profile_path: ProfilePath,
    /// The predicted costs the session reported (entry/exit, Chow,
    /// hierarchical exec, hierarchical jump), `None` for a function that
    /// needed no placement.
    pub reported: Option<[u64; 4]>,
}

/// The allocator's per-block weights for `profile`.
fn weights(func: &Function, profile: &EdgeProfile) -> Vec<u64> {
    func.block_ids()
        .map(|b| profile.block_count(b).max(1))
        .collect()
}

fn raw(predicted: &[spillopt_core::Cost; 4]) -> [u64; 4] {
    predicted.map(|c| c.raw())
}

fn check_costs(
    what: &str,
    replayed: Option<[u64; 4]>,
    reported: Option<[u64; 4]>,
) -> Result<(), String> {
    if replayed == reported {
        Ok(())
    } else {
        Err(format!(
            "{what}: replayed costs {replayed:?} differ from the session's {reported:?}"
        ))
    }
}

/// Replays the profile step every path starts with.
fn replay_profile(tr: &mut Tracer, job: &Job<'_>) -> Result<(), String> {
    let cfg = tr.time("ir.cfg", || Cfg::compute(job.source));
    if let ProfilePath::Synthetic {
        walks,
        max_steps,
        seed,
    } = job.profile_path
    {
        let fid = job.key.1 as u64;
        let profile = tr.time("profile.synth", || {
            random_walk_profile(&cfg, walks, max_steps, seed ^ fid.wrapping_mul(0x9e37_79b9))
        });
        if profile.edge_counts() != job.profile.edge_counts()
            || profile.entry_count() != job.profile.entry_count()
        {
            return Err(format!(
                "{}: synthesized profile differs from the session's",
                job.source.name()
            ));
        }
    }
    Ok(())
}

/// A cold function: allocate, analyse, and run the memoized suite, as
/// the session's cold path does; then the split calls.
fn replay_cold(tr: &mut Tracer, job: &Job<'_>) -> Result<Structure, String> {
    let source = job.source;
    let mut func = source.clone();
    let alloc = tr.time("regalloc.allocate", || {
        allocate(&mut func, job.target, Some(job.profile))
    });
    tr.count(|c| {
        c.regalloc_rounds += alloc.iterations.saturating_sub(1) as u64;
        c.spilled_vregs += alloc.spilled_vregs as u64;
    });
    let w = weights(source, job.profile);
    {
        // Split of `allocate`: its first round's interference build and
        // colouring, on the virtual function.
        let vcfg = Cfg::compute(source);
        let vlive = Liveness::compute(source, &vcfg, job.target);
        let graph = tr.time("regalloc.interfere", || {
            InterferenceGraph::build(source, &vcfg, job.target, &vlive, &w)
        });
        let no_spill = DenseBitSet::new(source.num_vregs());
        tr.time("regalloc.color", || color(&graph, job.target, &no_spill));
    }

    let cfg = tr.time("ir.cfg", || Cfg::compute(&func));
    let live = tr.time("ir.liveness", || Liveness::compute(&func, &cfg, job.target));
    let usage = tr.time("core.usage", || {
        CalleeSavedUsage::from_liveness(&func, job.target, &live)
    });
    let profile = job.profile.clone();
    let name = source.name();
    if usage.is_empty() {
        check_costs(name, None, job.reported)?;
        return Ok(Structure {
            weights: w,
            cfg,
            usage,
            analyses: None,
            profile,
        });
    }
    let cyclic = tr.time("ir.sccs", || sccs(&cfg));
    let pst = tr.time("pst.build", || Pst::compute(&cfg));
    tr.count(|c| c.pst_regions += pst.num_regions() as u64);
    let derived = tr.time("ir.derived", || DerivedCfg::compute(&cfg));
    let options = SuiteOptions::priced(job.costs);
    let inputs = SuiteInputs::analyzed(&usage, &profile, &cyclic, &pst, &derived);
    let (suite, memo) = tr
        .time("core.memoize", || {
            run_suite_memoized(&cfg, &inputs, &options)
        })
        .map_err(|e| format!("{name}: {e}"))?;
    check_costs(name, Some(raw(&suite.predicted)), job.reported)?;
    let split = replay_suite_split(tr, &cfg, &inputs, &job.costs)?;
    check_costs(name, Some(split), job.reported)?;
    Ok(Structure {
        weights: w,
        cfg,
        usage,
        analyses: Some((cyclic, pst, derived, memo)),
        profile,
    })
}

/// The calls `run_suite` makes, in its order, each under its own timer.
fn replay_suite_split(
    tr: &mut Tracer,
    cfg: &Cfg,
    inputs: &SuiteInputs<'_>,
    costs: &SpillCostModel,
) -> Result<[u64; 4], String> {
    let usage = inputs.usage();
    let profile = inputs.profile();
    let derived = inputs.derived();
    let entry_exit = tr.time("core.entry_exit", || entry_exit_placement(cfg, usage));
    let chow = tr.time("core.chow", || {
        chow_shrink_wrap_derived(cfg, derived, inputs.cyclic(), usage)
    });
    let initial = tr.time("core.hier_seed", || {
        modified_shrink_wrap_derived(cfg, derived, usage)
    });
    let exec = tr.time("core.hier_exec", || {
        hierarchical_placement_seeded(
            cfg,
            inputs.pst(),
            usage,
            profile,
            CostModel::ExecutionCount,
            costs,
            &chow,
            initial.clone(),
        )
    });
    let jump = tr.time("core.hier_jump", || {
        hierarchical_placement_seeded(
            cfg,
            inputs.pst(),
            usage,
            profile,
            CostModel::JumpEdge,
            costs,
            &chow,
            initial,
        )
    });
    let placements = [&entry_exit, &chow, &exec.placement, &jump.placement];
    let invalid = tr.time("core.validate", || {
        placements
            .iter()
            .map(|p| check_placement(cfg, usage, p).len())
            .sum::<usize>()
    });
    if invalid > 0 {
        return Err(format!(
            "{invalid} placement violation(s) in the split replay"
        ));
    }
    let predicted = tr.time("core.price", || {
        placements.map(|p| placement_cost_with(CostModel::JumpEdge, costs, cfg, profile, p).raw())
    });
    Ok(predicted)
}

/// An incremental function: the session kept the allocation (block
/// weights unchanged, or re-allocated to the same text) and re-folds the
/// regions the profile delta dirtied.
fn replay_incremental(tr: &mut Tracer, job: &Job<'_>, st: &mut Structure) -> Result<(), String> {
    let name = job.source.name();
    let w = weights(job.source, job.profile);
    if w != st.weights {
        let mut func = job.source.clone();
        let alloc = tr.time("regalloc.allocate", || {
            allocate(&mut func, job.target, Some(job.profile))
        });
        tr.count(|c| c.regalloc_rounds += alloc.iterations.saturating_sub(1) as u64);
        st.weights = w;
    }
    let delta = tr.time("profile.delta", || {
        ProfileDelta::between(&st.profile, job.profile)
    });
    tr.count(|c| c.changed_edges += delta.changed_edges().len() as u64);
    let Structure {
        cfg,
        usage,
        analyses,
        ..
    } = st;
    match analyses {
        Some((cyclic, pst, derived, memo)) => {
            let _dirty = tr.time("pst.dirty", || {
                pst.dirty_regions(cfg, delta.changed_edges(), delta.entry_changed())
            });
            let inputs = SuiteInputs::analyzed(usage, job.profile, cyclic, pst, derived);
            let options = SuiteOptions::priced(job.costs);
            let (suite, refolds): (PlacementSuite, _) = tr
                .time("core.refold", || {
                    run_suite_incremental(cfg, &inputs, &options, memo, &delta)
                })
                .map_err(|e| format!("{name}: {e}"))?;
            tr.count(|c| {
                c.regions_refolded += refolds.regions_refolded as u64;
                c.regions_total += refolds.regions_total as u64;
            });
            check_costs(name, Some(raw(&suite.predicted)), job.reported)?;
        }
        None => check_costs(name, None, job.reported)?,
    }
    st.profile = job.profile.clone();
    Ok(())
}

/// Replays one function along the path the session reported for it
/// (`provenance`), updating its mirrored state.
///
/// # Errors
///
/// Returns a description when the replay cannot follow the session (a
/// degraded function, or an incremental one with no prior structure) or
/// its predicted costs differ from the session's report.
pub fn replay(
    tr: &mut Tracer,
    states: &mut States,
    job: &Job<'_>,
    provenance: Provenance,
) -> Result<(), String> {
    let source = job.source;
    tr.count(|c| {
        c.blocks += source.num_blocks() as u64;
        c.insts += source
            .block_ids()
            .map(|b| source.block(b).insts.len() as u64)
            .sum::<u64>();
    });
    replay_profile(tr, job)?;
    match provenance {
        Provenance::Warm => Ok(()),
        Provenance::Degraded => Err(format!("{}: degraded", source.name())),
        Provenance::Incremental => {
            let st = states.get_mut(&job.key).ok_or_else(|| {
                format!(
                    "{}: incremental with no cached structure",
                    job.source.name()
                )
            })?;
            replay_incremental(tr, job, st)
        }
        Provenance::Cold => {
            if states.contains_key(&job.key) {
                // The drift changed the block weights: the session
                // re-allocated once to compare before rebuilding cold.
                let mut func = job.source.clone();
                tr.time("regalloc.allocate", || {
                    allocate(&mut func, job.target, Some(job.profile))
                });
            }
            let st = replay_cold(tr, job)?;
            states.insert(job.key, st);
            Ok(())
        }
    }
}
