//! Process-wide pipeline instrumentation: spans, counters, and traces.
//!
//! The recorder is a single process-global instrument shared by every
//! crate on the hot path. Call sites are unconditional — [`span`],
//! [`count`], and [`sample`] are compiled into the pipeline permanently
//! — but when no recording is active their entire cost is one relaxed
//! load of an `AtomicBool` and a branch. Enabling is explicit and
//! exclusive: a [`Recording`] guard flips the flag, collects events,
//! and on [`Recording::finish`] yields a [`Trace`] that can be written
//! as Chrome Trace Event JSON (loadable in Perfetto or
//! `chrome://tracing`) or folded into an aggregated
//! [`MetricsSnapshot`].
//!
//! Events are buffered per thread without locks: each thread appends
//! spans, counter deltas, and samples to a thread-local buffer and
//! flushes it into the shared sink only when its outermost span closes
//! (or on an explicit [`flush`]). Worker threads that run discrete jobs
//! therefore drain themselves at every job boundary, and a recording
//! that finishes after a batch has joined observes every event.
//!
//! Timestamps are monotonic nanoseconds from a process-wide epoch
//! (first use), and every event carries a small sequential thread id,
//! so traces from the work pool interleave correctly on the timeline.
//!
//! The [`fault`] module mounts two more dormant arms on the same probe
//! sites: deterministic fault injection (every `span` site is a named
//! injection point) and cooperative budgets ([`fault::budget_tick`]),
//! each costing one extra relaxed load while disarmed.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[allow(missing_docs)]
pub mod fault;

use spillopt_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use spillopt_sync::{Mutex, MutexGuard, OnceLock};
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

/// Master switch: one relaxed load of this is the entire disabled-mode
/// hot-path cost.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Recording generation. Bumped at every [`Recording::start`]; events
/// buffered under an older generation are stale (their recording has
/// already finished) and are discarded rather than leaking into the
/// next trace.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// Sequential thread ids, assigned on each thread's first event.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Serializes recordings: the recorder is process-global, so only one
/// trace can be collected at a time (concurrent tests queue here).
static RECORDING: Mutex<()> = Mutex::new(());

/// Shared sink the per-thread buffers flush into.
static SINK: Mutex<Sink> = Mutex::new(Sink {
    spans: Vec::new(),
    samples: Vec::new(),
    counters: None,
});

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One closed span: a named phase that ran `[start_ns, start_ns +
/// dur_ns)` on thread `tid`.
#[derive(Clone, Copy, Debug)]
pub struct SpanEvent {
    /// Phase name (static so the hot path never allocates).
    pub name: &'static str,
    /// Sequential recorder thread id.
    pub tid: u64,
    /// Monotonic start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// One timestamped counter sample (a point on a counter track, e.g. the
/// pool queue depth at enqueue time).
#[derive(Clone, Copy, Debug)]
pub struct SampleEvent {
    /// Counter track name.
    pub name: &'static str,
    /// Sequential recorder thread id.
    pub tid: u64,
    /// Monotonic timestamp, nanoseconds since the process epoch.
    pub ts_ns: u64,
    /// Sampled value.
    pub value: u64,
}

struct Sink {
    spans: Vec<SpanEvent>,
    samples: Vec<SampleEvent>,
    // Lazily allocated: `Mutex::new` in a `static` needs a const
    // expression, and `HashMap::new` is not const.
    counters: Option<HashMap<&'static str, u64>>,
}

struct ThreadBuf {
    generation: u64,
    tid: u64,
    depth: u32,
    spans: Vec<SpanEvent>,
    samples: Vec<SampleEvent>,
    counters: Vec<(&'static str, u64)>,
}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            generation: u64::MAX,
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            depth: 0,
            spans: Vec::new(),
            samples: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Drops anything buffered under a finished recording and adopts
    /// the current generation.
    fn adopt_generation(&mut self) {
        let generation = GENERATION.load(Ordering::Relaxed);
        if self.generation != generation {
            self.generation = generation;
            self.spans.clear();
            self.samples.clear();
            self.counters.clear();
        }
    }

    fn flush(&mut self) {
        if self.spans.is_empty() && self.samples.is_empty() && self.counters.is_empty() {
            return;
        }
        let mut sink = lock(&SINK);
        // The generation check must happen UNDER the sink lock: checked
        // before it, a flushing thread could pass the check, lose the
        // CPU while the recording finishes and the next one starts (and
        // clears the sink), then wake and append stale events into the
        // new recording. The model checker found exactly that schedule
        // (see `model_stale_flush_never_pollutes_next_recording`);
        // `Recording::start` bumps the generation before it touches the
        // sink, so under the lock the check is authoritative.
        if self.generation != GENERATION.load(Ordering::Relaxed) {
            // The recording this buffer belongs to already finished;
            // its sink was drained, so these events are dead.
            self.spans.clear();
            self.samples.clear();
            self.counters.clear();
            return;
        }
        sink.spans.append(&mut self.spans);
        sink.samples.append(&mut self.samples);
        let totals = sink.counters.get_or_insert_with(HashMap::new);
        for (name, delta) in self.counters.drain(..) {
            *totals.entry(name).or_insert(0) += delta;
        }
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic under the sink lock only ever interrupts event appends;
    // the data is still structurally sound, so poisoning is ignored.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Whether a recording is active. Call sites that must do real work to
/// *produce* a value (e.g. compute a queue depth) gate on this; plain
/// [`span`]/[`count`]/[`sample`] calls do the check themselves.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens a named span; the span closes (and is recorded) when the
/// returned guard drops. Disabled mode returns an inert guard after a
/// single branch.
#[inline]
#[must_use = "a span is recorded when its guard drops"]
pub fn span(name: &'static str) -> Span {
    if fault::injecting() {
        fault::probe(name);
    }
    if !enabled() {
        return Span { live: None };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> Span {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.adopt_generation();
        b.depth += 1;
    });
    Span {
        live: Some((name, now_ns())),
    }
}

/// Guard for an open [`span`]. Recording happens on drop; the guard
/// auto-flushes its thread's buffer when the outermost span closes.
#[derive(Debug)]
pub struct Span {
    live: Option<(&'static str, u64)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((name, start_ns)) = self.live else {
            return;
        };
        let dur_ns = now_ns().saturating_sub(start_ns);
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            let tid = b.tid;
            b.spans.push(SpanEvent {
                name,
                tid,
                start_ns,
                dur_ns,
            });
            b.depth = b.depth.saturating_sub(1);
            if b.depth == 0 {
                b.flush();
            }
        });
    }
}

/// Adds `delta` to the named counter. Totals are aggregated per
/// recording and surface both in the trace (as a final counter event)
/// and in [`MetricsSnapshot::counters`].
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    count_slow(name, delta);
}

#[cold]
fn count_slow(name: &'static str, delta: u64) {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.adopt_generation();
        b.counters.push((name, delta));
        if b.depth == 0 {
            b.flush();
        }
    });
}

/// Records a timestamped sample on the named counter track (e.g. a
/// queue depth). Samples become `ph:"C"` events on the trace timeline.
#[inline]
pub fn sample(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    sample_slow(name, value);
}

#[cold]
fn sample_slow(name: &'static str, value: u64) {
    let ts_ns = now_ns();
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.adopt_generation();
        let tid = b.tid;
        b.samples.push(SampleEvent {
            name,
            tid,
            ts_ns,
            value,
        });
        if b.depth == 0 {
            b.flush();
        }
    });
}

/// Flushes the calling thread's buffered events into the shared sink.
/// Normally unnecessary — the outermost span on each thread flushes on
/// close — but long-lived threads that emit only counters/samples
/// between spans can drain themselves explicitly.
pub fn flush() {
    BUF.with(|b| b.borrow_mut().flush());
}

/// An active recording. Constructing one enables the recorder
/// process-wide; [`finish`](Recording::finish) disables it and returns
/// the collected [`Trace`]. Only one recording exists at a time —
/// concurrent starts queue on an internal lock.
#[derive(Debug)]
pub struct Recording {
    _exclusive: MutexGuard<'static, ()>,
}

impl Recording {
    /// Starts an exclusive recording: bumps the generation (stale
    /// thread buffers self-discard), clears the sink, and enables the
    /// recorder.
    pub fn start() -> Recording {
        let exclusive = RECORDING.lock().unwrap_or_else(|p| p.into_inner());
        GENERATION.fetch_add(1, Ordering::Relaxed);
        {
            let mut sink = lock(&SINK);
            sink.spans.clear();
            sink.samples.clear();
            sink.counters = None;
        }
        ENABLED.store(true, Ordering::Relaxed);
        Recording {
            _exclusive: exclusive,
        }
    }

    /// Stops recording and returns everything collected. Events still
    /// buffered on *other* threads inside an open span are abandoned to
    /// the generation check; by construction the driver finishes
    /// recordings only after its batches have joined, so in practice
    /// every worker has already auto-flushed.
    pub fn finish(self) -> Trace {
        ENABLED.store(false, Ordering::Relaxed);
        flush();
        let (mut spans, samples, counters) = {
            let mut sink = lock(&SINK);
            let counters = sink.counters.take().unwrap_or_default();
            (
                std::mem::take(&mut sink.spans),
                std::mem::take(&mut sink.samples),
                counters,
            )
        };
        spans.sort_by_key(|s| (s.start_ns, s.tid, std::cmp::Reverse(s.dur_ns)));
        let mut counters: Vec<(&'static str, u64)> = counters.into_iter().collect();
        counters.sort_unstable();
        Trace {
            spans,
            samples,
            counters,
        }
    }
}

impl Drop for Recording {
    /// A recording dropped without [`finish`](Recording::finish) (e.g.
    /// an error propagating past it) must still disable the recorder —
    /// otherwise every later span in the process would pay the slow
    /// path and accumulate into a sink nobody will ever drain.
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Relaxed);
    }
}

/// Everything one [`Recording`] collected.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Closed spans, sorted by start time.
    pub spans: Vec<SpanEvent>,
    /// Timestamped counter samples, in flush order.
    pub samples: Vec<SampleEvent>,
    /// Final per-name counter totals, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
}

impl Trace {
    /// Renders the trace as Chrome Trace Event JSON: complete (`"X"`)
    /// events for spans, counter (`"C"`) events for samples, and one
    /// closing counter event per aggregate total. The output loads
    /// directly in Perfetto and `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"spillopt\"}}",
        );
        for s in &self.spans {
            out.push(',');
            out.push_str(&format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":{},\"cat\":\"phase\",\
                 \"ts\":{},\"dur\":{}}}",
                s.tid,
                json_str(s.name),
                micros(s.start_ns),
                micros(s.dur_ns)
            ));
        }
        for s in &self.samples {
            out.push(',');
            out.push_str(&format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"name\":{},\"ts\":{},\
                 \"args\":{{\"value\":{}}}}}",
                s.tid,
                json_str(s.name),
                micros(s.ts_ns),
                s.value
            ));
        }
        let end_ns = self.end_ns();
        for (name, total) in &self.counters {
            out.push(',');
            out.push_str(&format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":{},\"ts\":{},\
                 \"args\":{{\"value\":{}}}}}",
                json_str(name),
                micros(end_ns),
                total
            ));
        }
        out.push_str("]}");
        out
    }

    /// Last timestamp covered by the trace.
    fn end_ns(&self) -> u64 {
        let span_end = self
            .spans
            .iter()
            .map(|s| s.start_ns + s.dur_ns)
            .max()
            .unwrap_or(0);
        let sample_end = self.samples.iter().map(|s| s.ts_ns).max().unwrap_or(0);
        span_end.max(sample_end)
    }

    /// Aggregates spans by name into per-phase statistics plus the
    /// counter totals.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut durations: HashMap<&'static str, Vec<u64>> = HashMap::new();
        for s in &self.spans {
            durations.entry(s.name).or_default().push(s.dur_ns);
        }
        let mut phases: Vec<PhaseStats> = durations
            .into_iter()
            .map(|(name, mut ds)| {
                ds.sort_unstable();
                let count = ds.len() as u64;
                PhaseStats {
                    name,
                    count,
                    total_ns: ds.iter().sum(),
                    p50_ns: percentile(&ds, 50),
                    p95_ns: percentile(&ds, 95),
                    max_ns: *ds.last().unwrap(),
                }
            })
            .collect();
        // Heaviest phase first; name breaks ties deterministically.
        phases.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
        MetricsSnapshot {
            phases,
            counters: self.counters.clone(),
        }
    }
}

/// Aggregated per-phase timing statistics for one recording.
#[derive(Clone, Copy, Debug)]
pub struct PhaseStats {
    /// Phase (span) name.
    pub name: &'static str,
    /// Spans recorded under this name.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Median span duration (nearest-rank), nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile span duration (nearest-rank), nanoseconds.
    pub p95_ns: u64,
    /// Longest span, nanoseconds.
    pub max_ns: u64,
}

/// The aggregated view of a [`Trace`]: per-phase statistics ordered by
/// total time (heaviest first) plus final counter totals.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Per-phase timing, heaviest total first.
    pub phases: Vec<PhaseStats>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[u64], p: u64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = (sorted.len() as u64 * p).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Microseconds with nanosecond precision, as a JSON number.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// JSON string literal (names are static identifiers, but escape
/// defensively anyway).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global; these tests serialize so one
    /// test's events never land in another's trace.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let _t = exclusive();
        assert!(!enabled());
        let s = span("never");
        drop(s);
        count("never", 7);
        sample("never", 7);
        // Nothing to assert beyond "no panic, no recording": the next
        // recording must start empty even after these calls.
        let rec = Recording::start();
        let trace = rec.finish();
        assert!(trace.spans.is_empty());
        assert!(trace.counters.is_empty());
    }

    #[test]
    fn spans_counters_and_samples_are_collected() {
        let _t = exclusive();
        let rec = Recording::start();
        {
            let _outer = span("outer");
            let _inner = span("inner");
            count("widgets", 2);
            count("widgets", 3);
            sample("depth", 4);
        }
        let trace = rec.finish();
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"outer") && names.contains(&"inner"));
        assert_eq!(trace.counters, vec![("widgets", 5)]);
        assert_eq!(trace.samples.len(), 1);
        assert_eq!(trace.samples[0].value, 4);
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = trace.spans.iter().find(|s| s.name == "inner").unwrap();
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.dur_ns <= outer.dur_ns + 1_000_000);
    }

    #[test]
    fn worker_threads_flush_on_outermost_span_close() {
        let _t = exclusive();
        let rec = Recording::start();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                spillopt_sync::thread::spawn(|| {
                    let _job = span("job");
                    count("jobs", 1);
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        let trace = rec.finish();
        assert_eq!(trace.spans.iter().filter(|s| s.name == "job").count(), 4);
        assert_eq!(trace.counters, vec![("jobs", 4)]);
        // Four distinct worker threads → four distinct tids.
        let tids: std::collections::HashSet<u64> = trace.spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn chrome_json_has_trace_event_shape() {
        let _t = exclusive();
        let rec = Recording::start();
        {
            let _s = span("phase_a");
            count("hits", 9);
            sample("depth", 1);
        }
        let json = rec.finish().chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"phase_a\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"hits\""));
        assert!(json.contains("\"args\":{\"value\":9}"));
        // ts/dur are decimal microseconds.
        assert!(json.contains("\"ts\":"));
        assert!(json.contains("\"dur\":"));
    }

    #[test]
    fn metrics_aggregate_per_phase() {
        let _t = exclusive();
        let rec = Recording::start();
        for _ in 0..10 {
            let _s = span("work");
        }
        {
            let _s = span("other");
        }
        count("iters", 42);
        let metrics = rec.finish().metrics();
        assert_eq!(metrics.phases.len(), 2);
        let work = metrics.phases.iter().find(|p| p.name == "work").unwrap();
        assert_eq!(work.count, 10);
        assert!(work.p50_ns <= work.p95_ns && work.p95_ns <= work.max_ns);
        assert!(work.total_ns >= work.max_ns);
        assert_eq!(metrics.counters, vec![("iters", 42)]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ds = [10, 20, 30, 40];
        assert_eq!(percentile(&ds, 50), 20);
        assert_eq!(percentile(&ds, 95), 40);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[7], 95), 7);
    }

    #[test]
    fn stale_thread_buffers_do_not_leak_across_recordings() {
        let _t = exclusive();
        // Events from recording N must never appear in recording N+1.
        let rec = Recording::start();
        {
            let _s = span("first");
        }
        let t1 = rec.finish();
        assert_eq!(t1.spans.len(), 1);
        let rec = Recording::start();
        let t2 = rec.finish();
        assert!(t2.spans.is_empty(), "stale events leaked: {:?}", t2.spans);
    }

    /// Model-checked regression for the generation-counter protocol: a
    /// worker whose span opened under recording A but whose buffer
    /// flushes late — after A finished, possibly after recording B
    /// already started — must never interleave its stale events into
    /// B's trace, under ANY schedule.
    #[cfg(feature = "model")]
    #[test]
    fn model_stale_flush_never_pollutes_next_recording() {
        use spillopt_sync::model::{check, ModelOptions};
        use spillopt_sync::{thread, Arc, Condvar};

        let _t = exclusive();
        let report = check(ModelOptions::new(), || {
            let rec_a = Recording::start();
            let opened = Arc::new((Mutex::new(false), Condvar::new()));
            let opened2 = Arc::clone(&opened);
            let worker = thread::spawn(move || {
                let guard = span("gen_stale_work");
                {
                    let mut flag = opened2.0.lock().unwrap();
                    *flag = true;
                    opened2.1.notify_one();
                }
                // Scheduling point mid-span: the root may finish A (and
                // even start B) before this buffer flushes.
                thread::yield_now();
                drop(guard);
                flush();
            });
            {
                let mut flag = opened.0.lock().unwrap();
                while !*flag {
                    flag = opened.1.wait(flag).unwrap();
                }
            }
            let _trace_a = rec_a.finish();
            let rec_b = Recording::start();
            {
                let _s = span("gen_fresh_work");
            }
            worker.join().unwrap();
            let trace_b = rec_b.finish();
            assert!(
                trace_b.spans.iter().any(|s| s.name == "gen_fresh_work"),
                "recording B lost its own span"
            );
            assert!(
                trace_b.spans.iter().all(|s| s.name != "gen_stale_work"),
                "stale-generation span leaked into the new trace"
            );
        });
        assert!(
            report.executions > 1,
            "expected >1 interleaving, got {}",
            report.executions
        );
    }
}
