//! Fault seams: deterministic injection and cooperative budgets.
//!
//! Both facilities piggyback on the probe sites the recorder already owns:
//! every [`crate::span`] call doubles as a named injection point, and hot
//! loops that report iteration counters can call [`budget_tick`] to honor a
//! caller-imposed deadline. Both are dormant by default — a single relaxed
//! atomic load on the hot path — and are armed per-thread through RAII
//! scopes, so concurrent work on other threads is never perturbed.
//!
//! Trips are delivered as typed panics ([`std::panic::panic_any`]) carrying
//! [`BudgetExceeded`] or [`InjectedFault`] payloads. Callers that arm a
//! scope are expected to wrap the guarded region in `catch_unwind` and
//! downcast the payload to recover the structured cause.

use spillopt_sync::atomic::{AtomicU64, Ordering};
use std::cell::RefCell;
use std::time::Instant;

/// How an armed fault manifests when its site fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectionKind {
    /// An opaque panic, as if the pipeline had a bug at this site.
    Panic,
    /// A recoverable error the pipeline should report, not crash on.
    Error,
    /// Instant budget exhaustion, as if a deadline elapsed here.
    Budget,
}

impl InjectionKind {
    pub fn name(self) -> &'static str {
        match self {
            InjectionKind::Panic => "panic",
            InjectionKind::Error => "error",
            InjectionKind::Budget => "budget",
        }
    }
}

/// One armed fault: fire `kind` at the `nth` (0-based) visit of `site`.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    pub site: &'static str,
    pub nth: u64,
    pub kind: InjectionKind,
}

/// Panic payload thrown when a cooperative budget trips.
#[derive(Clone, Copy, Debug)]
pub struct BudgetExceeded {
    /// The probe site whose tick detected exhaustion.
    pub phase: &'static str,
    /// Which cap tripped.
    pub kind: BudgetKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    WallClock,
    Iterations,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cap = match self.kind {
            BudgetKind::WallClock => "wall-clock deadline",
            BudgetKind::Iterations => "iteration cap",
        };
        write!(f, "budget exceeded in `{}` ({cap})", self.phase)
    }
}

/// Panic payload thrown by a fired injection (kinds `Panic` and `Error`).
#[derive(Clone, Copy, Debug)]
pub struct InjectedFault {
    pub site: &'static str,
    pub nth: u64,
    pub kind: InjectionKind,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected {} at `{}` (occurrence {})",
            self.kind.name(),
            self.site,
            self.nth
        )
    }
}

/// Renders a caught panic payload as a message: strings verbatim, and
/// this module's typed payloads ([`BudgetExceeded`], [`InjectedFault`])
/// by their `Display` forms. Every layer that reports a caught panic —
/// the driver's pool and containment boundary, the stress oracles —
/// renders it here, so they report it identically.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(b) = payload.downcast_ref::<BudgetExceeded>() {
        b.to_string()
    } else if let Some(i) = payload.downcast_ref::<InjectedFault>() {
        i.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Count of threads with an armed injection scope. Zero means `probe` is
/// never entered; `span` checks this with one relaxed load.
static INJECTING: AtomicU64 = AtomicU64::new(0);
/// One-time installer for the quiet-hook filter below.
static QUIET_HOOK: spillopt_sync::Once = spillopt_sync::Once::new();

/// Installs (once, process-wide) a panic-hook filter that silences this
/// module's typed payloads — they are control flow, thrown only while a
/// scope is armed and always caught at a containment boundary — while
/// delegating every other panic to the hook that was in place. Without
/// this, every contained budget trip would print the default hook's
/// `panicked at ... Box<dyn Any>` banner to stderr.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.is::<BudgetExceeded>() || payload.is::<InjectedFault>() {
                return;
            }
            prev(info);
        }));
    });
}
/// Count of threads with an armed budget scope, gating `budget_tick`.
static BUDGET_ARMED: AtomicU64 = AtomicU64::new(0);

struct ArmedFault {
    plan: FaultPlan,
    seen: u64,
    fired: bool,
}

thread_local! {
    static PLAN: RefCell<Vec<ArmedFault>> = const { RefCell::new(Vec::new()) };
    static BUDGET: RefCell<Option<BudgetState>> = const { RefCell::new(None) };
}

#[inline]
pub(crate) fn injecting() -> bool {
    INJECTING.load(Ordering::Relaxed) != 0
}

/// Visit a probe site: fire the first armed, unfired fault whose site and
/// occurrence match. Called from `span` only while some scope is armed;
/// threads without a plan fall through untouched.
#[cold]
pub(crate) fn probe(name: &'static str) {
    let hit = PLAN.with(|p| {
        let mut plan = p.borrow_mut();
        for armed in plan.iter_mut() {
            if armed.plan.site != name || armed.fired {
                continue;
            }
            let occurrence = armed.seen;
            armed.seen += 1;
            if occurrence == armed.plan.nth {
                armed.fired = true;
                return Some(armed.plan);
            }
        }
        None
    });
    if let Some(plan) = hit {
        match plan.kind {
            InjectionKind::Panic | InjectionKind::Error => std::panic::panic_any(InjectedFault {
                site: plan.site,
                nth: plan.nth,
                kind: plan.kind,
            }),
            InjectionKind::Budget => std::panic::panic_any(BudgetExceeded {
                phase: plan.site,
                kind: BudgetKind::WallClock,
            }),
        }
    }
}

/// RAII guard arming a set of faults on the current thread. Dropping the
/// scope disarms them; [`InjectionScope::fired`] reports how many fired.
#[derive(Debug)]
pub struct InjectionScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl InjectionScope {
    pub fn arm(faults: Vec<FaultPlan>) -> InjectionScope {
        install_quiet_hook();
        PLAN.with(|p| {
            *p.borrow_mut() = faults
                .into_iter()
                .map(|plan| ArmedFault {
                    plan,
                    seen: 0,
                    fired: false,
                })
                .collect();
        });
        INJECTING.fetch_add(1, Ordering::Relaxed);
        InjectionScope {
            _not_send: std::marker::PhantomData,
        }
    }

    /// Number of armed faults that have fired so far in this scope.
    pub fn fired(&self) -> u64 {
        PLAN.with(|p| p.borrow().iter().filter(|a| a.fired).count() as u64)
    }
}

impl Drop for InjectionScope {
    fn drop(&mut self) {
        INJECTING.fetch_sub(1, Ordering::Relaxed);
        PLAN.with(|p| p.borrow_mut().clear());
    }
}

/// Caps enforced by an armed [`BudgetScope`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BudgetSpec {
    /// Absolute wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Cumulative cap across all `budget_tick` iterations in the scope.
    pub max_iters: Option<u64>,
}

struct BudgetState {
    spec: BudgetSpec,
    iters: u64,
}

/// Charge `n` iterations against the current thread's budget, panicking
/// with [`BudgetExceeded`] if a cap trips. Free (one relaxed load) when no
/// scope is armed; hot loops call this once per iteration.
#[inline]
pub fn budget_tick(phase: &'static str, n: u64) {
    if BUDGET_ARMED.load(Ordering::Relaxed) == 0 {
        return;
    }
    budget_tick_slow(phase, n);
}

#[cold]
fn budget_tick_slow(phase: &'static str, n: u64) {
    let tripped = BUDGET.with(|b| {
        let mut state = b.borrow_mut();
        let state = state.as_mut()?;
        state.iters += n;
        if state.spec.max_iters.is_some_and(|cap| state.iters > cap) {
            return Some(BudgetKind::Iterations);
        }
        if state.spec.deadline.is_some_and(|d| Instant::now() > d) {
            return Some(BudgetKind::WallClock);
        }
        None
    });
    if let Some(kind) = tripped {
        std::panic::panic_any(BudgetExceeded { phase, kind });
    }
}

/// RAII guard arming a cooperative budget on the current thread. Nested
/// scopes shadow the outer one and restore it on drop.
#[derive(Debug)]
pub struct BudgetScope {
    prev: Option<BudgetSpec>,
    prev_iters: u64,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl BudgetScope {
    pub fn arm(spec: BudgetSpec) -> BudgetScope {
        install_quiet_hook();
        let (prev, prev_iters) = BUDGET.with(|b| {
            let prev = b.borrow_mut().replace(BudgetState { spec, iters: 0 });
            match prev {
                Some(p) => (Some(p.spec), p.iters),
                None => (None, 0),
            }
        });
        BUDGET_ARMED.fetch_add(1, Ordering::Relaxed);
        BudgetScope {
            prev,
            prev_iters,
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for BudgetScope {
    fn drop(&mut self) {
        BUDGET_ARMED.fetch_sub(1, Ordering::Relaxed);
        let restored = self.prev.take().map(|spec| BudgetState {
            spec,
            iters: self.prev_iters,
        });
        BUDGET.with(|b| *b.borrow_mut() = restored);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_fires_on_nth_occurrence() {
        let scope = InjectionScope::arm(vec![FaultPlan {
            site: "unit_test_site",
            nth: 1,
            kind: InjectionKind::Error,
        }]);
        let _ = crate::span("unit_test_site"); // occurrence 0: no fire
        assert_eq!(scope.fired(), 0);
        let caught = std::panic::catch_unwind(|| {
            let _ = crate::span("unit_test_site"); // occurrence 1: fires
        });
        let payload = caught.unwrap_err();
        let fault = payload
            .downcast_ref::<InjectedFault>()
            .expect("typed payload");
        assert_eq!(fault.site, "unit_test_site");
        assert_eq!(fault.kind, InjectionKind::Error);
        assert_eq!(scope.fired(), 1);
        // Consume-once: the same site never fires again.
        let _ = crate::span("unit_test_site");
        assert_eq!(scope.fired(), 1);
        drop(scope);
        let _ = crate::span("unit_test_site");
    }

    #[test]
    fn injection_is_thread_local() {
        let _scope = InjectionScope::arm(vec![FaultPlan {
            site: "unit_test_other_thread",
            nth: 0,
            kind: InjectionKind::Panic,
        }]);
        // Another thread has no plan, so the armed site is inert there.
        spillopt_sync::thread::spawn(|| crate::span("unit_test_other_thread"))
            .join()
            .expect("no cross-thread injection");
    }

    #[test]
    fn budget_iteration_cap_trips() {
        let caught = std::panic::catch_unwind(|| {
            let _scope = BudgetScope::arm(BudgetSpec {
                deadline: None,
                max_iters: Some(3),
            });
            for _ in 0..10 {
                budget_tick("unit_test_loop", 1);
            }
        });
        let payload = caught.unwrap_err();
        let trip = payload
            .downcast_ref::<BudgetExceeded>()
            .expect("typed payload");
        assert_eq!(trip.phase, "unit_test_loop");
        assert_eq!(trip.kind, BudgetKind::Iterations);
        // Disarmed after the scope unwound.
        budget_tick("unit_test_loop", 1_000_000);
    }

    #[test]
    fn budget_deadline_trips() {
        let caught = std::panic::catch_unwind(|| {
            let _scope = BudgetScope::arm(BudgetSpec {
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
                max_iters: None,
            });
            budget_tick("unit_test_deadline", 1);
        });
        let trip = caught
            .unwrap_err()
            .downcast_ref::<BudgetExceeded>()
            .copied()
            .expect("typed payload");
        assert_eq!(trip.kind, BudgetKind::WallClock);
    }

    #[test]
    fn panic_message_renders_every_payload_kind() {
        let budget = BudgetExceeded {
            phase: "color",
            kind: BudgetKind::Iterations,
        };
        let fault = InjectedFault {
            site: "pst",
            nth: 2,
            kind: InjectionKind::Panic,
        };
        let cases: [(Box<dyn std::any::Any + Send>, &str); 5] = [
            (Box::new("static str"), "static str"),
            (Box::new(String::from("owned")), "owned"),
            (
                Box::new(budget),
                "budget exceeded in `color` (iteration cap)",
            ),
            (Box::new(fault), "injected panic at `pst` (occurrence 2)"),
            (Box::new(7u32), "non-string panic payload"),
        ];
        for (payload, want) in cases {
            assert_eq!(panic_message(&*payload), want);
        }
    }

    #[test]
    fn unarmed_ticks_are_free() {
        budget_tick("unit_test_idle", u64::MAX);
    }
}
