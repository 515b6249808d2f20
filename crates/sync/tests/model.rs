//! Self-tests for the model checker: positive fixtures (correct
//! protocols pass, with more than one schedule explored) and negative
//! fixtures (seeded races, deadlocks, lost notifies, and reachable
//! panics ARE detected — the checker is not vacuous).
#![cfg(feature = "model")]

use spillopt_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use spillopt_sync::model::{check, try_check, ModelOptions, RaceCell, ViolationKind};
use spillopt_sync::thread;
use spillopt_sync::{Arc, Condvar, Mutex};

/// An intentionally racy fixture is detected: two threads increment a
/// `RaceCell` with no synchronization.
#[test]
fn detects_seeded_data_race() {
    let report = try_check(ModelOptions::new(), || {
        let cell = Arc::new(RaceCell::new(0u32));
        let c2 = Arc::clone(&cell);
        let t = thread::spawn(move || {
            let v = c2.get();
            c2.set(v + 1);
        });
        let v = cell.get();
        cell.set(v + 1);
        let _ = t.join();
    });
    let v = report.violation.expect("the race must be found");
    assert_eq!(v.kind, ViolationKind::DataRace, "got: {v}");
}

/// The same counter behind a facade `Mutex` is race-free, and the
/// checker still explores more than one interleaving.
#[test]
fn mutex_counter_passes_with_multiple_schedules() {
    let report = check(ModelOptions::new(), || {
        let cell = Arc::new((Mutex::new(()), RaceCell::new(0u32)));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&cell);
                thread::spawn(move || {
                    let _g = c.0.lock().unwrap();
                    let v = c.1.get();
                    c.1.set(v + 1);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.1.get(), 2);
    });
    assert!(
        report.executions > 1,
        "expected >1 interleaving, got {}",
        report.executions
    );
}

/// Classic AB-BA lock-order inversion deadlocks under some schedule.
#[test]
fn detects_abba_deadlock() {
    let report = try_check(ModelOptions::new(), || {
        let locks = Arc::new((Mutex::new(0u32), Mutex::new(0u32)));
        let l2 = Arc::clone(&locks);
        let t = thread::spawn(move || {
            let _b = l2.1.lock().unwrap();
            let _a = l2.0.lock().unwrap();
        });
        {
            let _a = locks.0.lock().unwrap();
            let _b = locks.1.lock().unwrap();
        }
        let _ = t.join();
    });
    let v = report.violation.expect("the deadlock must be found");
    assert_eq!(v.kind, ViolationKind::Deadlock, "got: {v}");
}

/// A notify sent before the waiter blocks is lost; the report names the
/// lost-notify count on the condvar.
#[test]
fn detects_lost_notify() {
    let report = try_check(ModelOptions::new(), || {
        let pair = Arc::new((Mutex::new(()), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            // Bug: signals an *event*, not a predicate change. If this
            // runs before the main thread blocks, the notify is lost.
            p2.1.notify_one();
        });
        {
            let guard = pair.0.lock().unwrap();
            // Bug: waits unconditionally instead of re-checking shared
            // state under the mutex.
            let _guard = pair.1.wait(guard).unwrap();
        }
        let _ = t.join();
    });
    let v = report.violation.expect("the lost notify must be found");
    assert_eq!(v.kind, ViolationKind::Deadlock, "got: {v}");
    assert!(
        v.message.contains("lost"),
        "deadlock report should mention the lost notify: {v}"
    );
}

/// The correct condvar protocol (state change under the mutex, wait in
/// a re-check loop) passes.
#[test]
fn condvar_protocol_passes() {
    let report = check(ModelOptions::new(), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let mut flag = p2.0.lock().unwrap();
            *flag = true;
            p2.1.notify_one();
        });
        {
            let mut guard = pair.0.lock().unwrap();
            while !*guard {
                guard = pair.1.wait(guard).unwrap();
            }
        }
        t.join().unwrap();
    });
    assert!(report.executions > 1);
}

/// Release-store / acquire-load publication makes the data access
/// race-free.
#[test]
fn release_acquire_publication_passes() {
    check(ModelOptions::new(), || {
        let shared = Arc::new((AtomicBool::new(false), RaceCell::new(0u32)));
        let s2 = Arc::clone(&shared);
        let t = thread::spawn(move || {
            s2.1.set(42);
            s2.0.store(true, Ordering::Release);
        });
        if shared.0.load(Ordering::Acquire) {
            assert_eq!(shared.1.get(), 42);
        }
        let _ = t.join();
    });
}

/// The same fixture with `Relaxed` orderings (and relaxed ops made
/// scheduling points) is flagged: relaxed operations establish no
/// happens-before edge.
#[test]
fn relaxed_publication_is_a_race() {
    let report = try_check(ModelOptions::new().relaxed_yields(true), || {
        let shared = Arc::new((AtomicBool::new(false), RaceCell::new(0u32)));
        let s2 = Arc::clone(&shared);
        let t = thread::spawn(move || {
            s2.1.set(42);
            s2.0.store(true, Ordering::Relaxed);
        });
        if shared.0.load(Ordering::Relaxed) {
            let _ = shared.1.get();
        }
        let _ = t.join();
    });
    let v = report
        .violation
        .expect("the relaxed publication race must be found");
    assert_eq!(v.kind, ViolationKind::DataRace, "got: {v}");
}

/// An assertion that only fails under one interleaving is reached and
/// reported as a panic violation.
#[test]
fn detects_interleaving_dependent_panic() {
    let report = try_check(ModelOptions::new(), || {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            n2.store(1, Ordering::SeqCst);
        });
        // Fails only when the spawned store wins the race.
        assert_eq!(n.load(Ordering::SeqCst), 0, "store beat the load");
        let _ = t.join();
    });
    let v = report.violation.expect("the racy assertion must trip");
    assert_eq!(v.kind, ViolationKind::Panic, "got: {v}");
    assert!(v.message.contains("store beat the load"), "got: {v}");
}

/// `OnceLock::get_or_init` runs the initializer exactly once under
/// every schedule.
#[test]
fn once_lock_initializes_exactly_once() {
    check(ModelOptions::new(), || {
        let state = Arc::new((spillopt_sync::OnceLock::new(), AtomicUsize::new(0)));
        let s2 = Arc::clone(&state);
        let t = thread::spawn(move || {
            *s2.0.get_or_init(|| {
                s2.1.fetch_add(1, Ordering::SeqCst);
                7u32
            })
        });
        let v = *state.0.get_or_init(|| {
            state.1.fetch_add(1, Ordering::SeqCst);
            7u32
        });
        assert_eq!(v, 7);
        assert_eq!(t.join().unwrap(), 7);
        assert_eq!(state.1.load(Ordering::SeqCst), 1, "initializer ran twice");
    });
}

/// Exceeding the execution cap is reported, not silently truncated.
#[test]
fn execution_cap_is_a_violation() {
    let report = try_check(ModelOptions::new().executions(2), || {
        let m = Arc::new(Mutex::new(0u32));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    *m.lock().unwrap() += 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    let v = report.violation.expect("cap must be reported");
    assert_eq!(v.kind, ViolationKind::ExecutionLimit);
}

/// The facade still behaves as plain std outside `check` even with the
/// `model` feature on.
#[test]
fn facade_works_outside_model() {
    let m = Arc::new(Mutex::new(0u32));
    let m2 = Arc::clone(&m);
    let t = thread::spawn(move || {
        *m2.lock().unwrap() += 1;
    });
    t.join().unwrap();
    assert_eq!(*m.lock().unwrap(), 1);
}
