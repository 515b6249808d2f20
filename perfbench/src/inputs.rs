//! Workload inputs, generated from the benchmark seed before any timing:
//! the paper's SPEC2000-shaped `benchgen` modules on every registered
//! target (with their training-workload profiles), and the module-scale
//! stress corpus the pool workload submits.

use spillopt_benchgen::{all_benchmarks, build_bench};
use spillopt_driver::{DriverError, OptimizerBuilder, ProfileSource};
use spillopt_ir::Module;
use spillopt_profile::EdgeProfile;
use spillopt_targets::{pa_risc_like, registry, TargetSpec};

/// A small deterministic generator (SplitMix64) for everything the
/// benchmark draws from its seed: submission orders and drift streams.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator keyed by `seed` and a stream label, so independent
    /// draws never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One module bound to one target, with the per-function edge profiles
/// it is optimized under.
#[derive(Clone, Debug)]
pub struct Unit {
    /// Index into [`Corpus::specs`].
    pub target: usize,
    /// The module, in virtual registers.
    pub module: Module,
    /// Explicit per-function profiles, indexed by function.
    pub profiles: Vec<EdgeProfile>,
}

/// A workload's full input set.
#[derive(Clone, Debug)]
pub struct Corpus {
    /// The targets the units are built for.
    pub specs: Vec<TargetSpec>,
    /// Every (module, target) pair of the workload.
    pub units: Vec<Unit>,
}

/// Size of the generated inputs: `Full` is the benchmark proper; `Tiny`
/// is the self-test's smoke size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The paper's 11 modules on every registered target; a
    /// ~200-function stress corpus at scale 32.
    Full,
    /// Two modules on every registered target; a ~12-function stress
    /// corpus at scale 2.
    Tiny,
}

/// The paper's evaluation set: every `benchgen` module built for every
/// registered target, with its training-workload profiles resolved
/// through a session (the public re-profiling entry point).
///
/// # Errors
///
/// Returns the first training-workload failure.
pub fn spec_corpus(size: Size) -> Result<Corpus, DriverError> {
    let specs = registry();
    let mut benches = all_benchmarks();
    if size == Size::Tiny {
        benches.retain(|b| b.name == "mcf" || b.name == "gzip");
    }
    let mut units = Vec::new();
    for (ti, spec) in specs.iter().enumerate() {
        let target = spec.to_target();
        for bench in &benches {
            let built = build_bench(bench, &target);
            let profiles = OptimizerBuilder::new()
                .target_spec(spec.clone())
                .threads(1)
                .reuse_analyses(false)
                .profile(ProfileSource::Workload(built.train_runs))
                .build()?
                .resolve_profiles(&built.module)?;
            units.push(Unit {
                target: ti,
                module: built.module,
                profiles,
            });
        }
    }
    Ok(Corpus { specs, units })
}

/// The pool workload's corpus: the perf-trajectory bench's module-scale
/// stress corpus (whole cases from generator seed 0 at scale 32 until
/// 200 functions are reached) on the paper's PA-RISC-like target, so
/// every benchmark seed submits the same functions under the session's
/// default synthetic profiles (the seed shuffles them into batches).
/// The units carry those profiles, resolved through a session, for the
/// traced replay to check against.
///
/// # Errors
///
/// Returns a session failure while resolving the synthetic profiles.
pub fn stress_corpus(size: Size) -> Result<Corpus, DriverError> {
    let (floor, scale) = match size {
        Size::Full => (200, 32),
        Size::Tiny => (12, 2),
    };
    let spec = pa_risc_like();
    let target = spec.to_target();
    let session = OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(1)
        .reuse_analyses(false)
        .build()?;
    let mut units = Vec::new();
    let mut functions = 0;
    let mut case_seed = 0u64;
    while functions < floor {
        let case = spillopt_stress::gen_case_scaled(&target, case_seed, scale);
        functions += case.module.num_funcs();
        units.push(Unit {
            target: 0,
            profiles: session.resolve_profiles(&case.module)?,
            module: case.module,
        });
        case_seed = case_seed.wrapping_add(1);
    }
    Ok(Corpus {
        specs: vec![spec],
        units,
    })
}
