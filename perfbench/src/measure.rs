//! End-to-end measurement: the per-function latency observer, the
//! machine-speed calibration, order statistics, and resident-memory
//! readings.

use spillopt_driver::{FunctionReport, Observer, Provenance};
use spillopt_sync::atomic::{AtomicU64, Ordering};
use spillopt_sync::Mutex;
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// Distinguishes session calls, so a thread's first retirement of a call
/// is timed from the call's start rather than from its previous call.
static NEXT_CALL: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The call id and instant of this thread's previous retirement.
    static LAST_RETIRED: Cell<(u64, Option<Instant>)> = const { Cell::new((0, None)) };
}

/// What one retirement callback saw: the function's index within its
/// module, how the session produced it, and its latency.
#[derive(Clone, Copy, Debug)]
pub struct Retired {
    /// Function index within the submitted module.
    pub func: usize,
    /// Module index within the call's batch (0 for single-module calls).
    pub module: usize,
    /// Whether the session ran it cold, warm, or incrementally.
    pub provenance: Provenance,
    /// Nanoseconds since this thread's previous retirement in the same
    /// call (or since the call started).
    pub latency_ns: u64,
    /// When the callback ran.
    pub at: Instant,
}

/// The observer for one session call. Latency is the gap between
/// consecutive `function_retired` callbacks on the same thread; the
/// first function of each call on each thread is timed from the call's
/// start.
#[derive(Debug)]
pub struct CallObserver<'m> {
    call: u64,
    start: Instant,
    modules: &'m [&'m str],
    retired: Mutex<Vec<Retired>>,
}

impl<'m> CallObserver<'m> {
    /// Starts timing a call over `modules` (the batch's module names, in
    /// submission order). Create it immediately before the call.
    pub fn start(modules: &'m [&'m str]) -> Self {
        CallObserver {
            call: NEXT_CALL.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            modules,
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the call started.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// The retirements seen, in callback order.
    pub fn finish(self) -> Vec<Retired> {
        self.retired.into_inner().expect("observer lock poisoned")
    }
}

impl Observer for CallObserver<'_> {
    fn function_retired(
        &self,
        _target: &str,
        module: &str,
        report: &FunctionReport,
        provenance: Provenance,
    ) {
        let now = Instant::now();
        let from = LAST_RETIRED.with(|last| {
            let (call, at) = last.replace((self.call, Some(now)));
            match at {
                Some(at) if call == self.call => at,
                _ => self.start,
            }
        });
        // Batches name their modules; a linear scan over a handful of
        // names is cheaper than hashing them.
        let module = self.modules.iter().position(|m| *m == module).unwrap_or(0);
        self.retired
            .lock()
            .expect("observer lock poisoned")
            .push(Retired {
                func: report.index,
                module,
                provenance,
                latency_ns: (now - from).as_nanos() as u64,
                at: now,
            });
    }

    fn name(&self) -> &str {
        "perfbench-latency"
    }
}

/// The nearest-rank `q` quantile (`0 < q <= 1`) of sorted samples.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted floats (the mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One field of `/proc/self/status` in megabytes (`VmHWM` is the peak
/// resident set, `VmRSS` the current one); `None` where `/proc` is
/// missing.
pub fn proc_status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.split(':').next() == Some(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Full-speed time of [`kernel_ns`] on the 2-core Linux container the
/// bounds in `BENCHMARK.json` were set on.
pub const REFERENCE_KERNEL_NS: f64 = 1.75e6;

/// Times a fixed kernel of the session's kind of work (formatting a
/// long text, hashing it, cloning and sorting vectors, filling a hash
/// map); the fastest of three runs. It is benchmark code, so no change
/// to the optimizer moves it: only the speed the machine is running at.
pub fn kernel_ns() -> u64 {
    let mut best = u64::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        let mut acc = 0u64;
        for round in 0..black_box(8u64) {
            let mut text = String::new();
            for i in 0..2000u64 {
                let _ = writeln!(text, "v{} = add v{}, {}", i ^ round, i * 7 + round, i % 13);
            }
            let mut hasher = DefaultHasher::new();
            text.hash(&mut hasher);
            acc ^= hasher.finish();
            let values: Vec<u64> = (0..4096u64).map(|x| x.wrapping_mul(acc | 1)).collect();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            acc ^= sorted[17];
            let map: HashMap<u64, String> = (0..512u64)
                .map(|k| (k ^ acc, text[..64].to_string()))
                .collect();
            acc ^= map.len() as u64;
        }
        black_box(acc);
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

/// The factor that converts a time measured between two kernel timings
/// to the reference machine speed.
pub fn speed(before_ns: u64, after_ns: u64) -> f64 {
    REFERENCE_KERNEL_NS / ((before_ns + after_ns) as f64 / 2.0)
}
