//! The cooperative exploration scheduler.
//!
//! One model execution runs the scenario's threads as real OS threads,
//! but only ever lets **one** of them proceed at a time: every facade
//! operation calls into the scheduler, which decides — replaying and
//! extending a DFS path over scheduling choices — which thread runs
//! next. Choice points are recorded as [`Branch`]es; the explorer
//! backtracks over them to enumerate every schedule reachable under
//! the preemption bound.
//!
//! The scheduler also owns the per-execution object registry (mutexes,
//! rwlocks, condvars, atomics, once-cells, race cells) and the
//! per-thread vector clocks used for happens-before reasoning.

use super::{ModelAbort, ModelOptions, Violation, ViolationKind};
use std::collections::HashMap;
use std::panic::panic_any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Fresh object identities. Facade objects lazily claim an id on first
/// model use and keep it for their lifetime, so statics keep a stable
/// identity across executions while the per-execution object state is
/// rebuilt from scratch each time.
static NEXT_OBJ: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_obj_id() -> u64 {
    NEXT_OBJ.fetch_add(1, Ordering::Relaxed)
}

/// A vector clock: `clock[t]` is the last event of thread `t` that
/// happens-before the clock's owner.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct VClock(Vec<u32>);

impl VClock {
    pub(crate) fn get(&self, i: usize) -> u32 {
        self.0.get(i).copied().unwrap_or(0)
    }

    fn grow(&mut self, i: usize) {
        if self.0.len() <= i {
            self.0.resize(i + 1, 0);
        }
    }

    pub(crate) fn set(&mut self, i: usize, v: u32) {
        self.grow(i);
        self.0[i] = v;
    }

    pub(crate) fn tick(&mut self, i: usize) {
        self.grow(i);
        self.0[i] += 1;
    }

    pub(crate) fn join(&mut self, other: &VClock) {
        self.grow(other.0.len().saturating_sub(1));
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    /// Pointwise `self <= other`: everything recorded here
    /// happens-before (or is) the other clock's frontier.
    pub(crate) fn le(&self, other: &VClock) -> bool {
        self.0.iter().enumerate().all(|(i, &v)| v <= other.get(i))
    }
}

/// One recorded scheduling choice: which of `options` (runnable thread
/// ids, deterministic order) was taken. The explorer increments `idx`
/// to visit siblings.
#[derive(Clone, Debug)]
pub(crate) struct Branch {
    pub(crate) options: Vec<usize>,
    pub(crate) idx: usize,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Run {
    Ready,
    Blocked(BlockedOn),
    Finished,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BlockedOn {
    Mutex(u64),
    RwRead(u64),
    RwWrite(u64),
    Condvar(u64),
    Join(usize),
    Once(u64),
}

impl BlockedOn {
    fn describe(&self, st: &State) -> String {
        match self {
            BlockedOn::Mutex(id) => format!("Mutex#{id}"),
            BlockedOn::RwRead(id) => format!("RwLock#{id} (read)"),
            BlockedOn::RwWrite(id) => format!("RwLock#{id} (write)"),
            BlockedOn::Condvar(id) => {
                let lost = st.objects.get(id).map_or(0, |o| match &o.kind {
                    ObjKind::Condvar { lost_notifies, .. } => *lost_notifies,
                    _ => 0,
                });
                if lost > 0 {
                    format!("Condvar#{id} ({lost} notifies found no waiter — lost notify?)")
                } else {
                    format!("Condvar#{id}")
                }
            }
            BlockedOn::Join(t) => format!("join of thread {t}"),
            BlockedOn::Once(id) => format!("Once#{id}"),
        }
    }
}

struct ThreadState {
    run: Run,
    clock: VClock,
}

enum ObjKind {
    Mutex {
        owner: Option<usize>,
    },
    RwLock {
        writer: Option<usize>,
        readers: Vec<usize>,
    },
    Condvar {
        waiters: Vec<usize>,
        lost_notifies: u32,
    },
    Atomic,
    Once {
        state: OnceState,
    },
    Cell {
        /// Last write epoch: (writer tid, writer's own clock component).
        write: Option<(usize, u32)>,
        /// Per-thread read frontier since the last write.
        reads: VClock,
    },
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OnceState {
    Uninit,
    Running(usize),
    Done,
}

struct Object {
    kind: ObjKind,
    /// Release clock: joined into acquiring threads.
    clock: VClock,
}

/// Direction of an atomic operation, for clock transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AtomicDir {
    Load,
    Store,
    Rmw,
}

struct State {
    opts: ModelOptions,
    threads: Vec<ThreadState>,
    current: usize,
    /// Replayed prefix + this execution's extensions.
    path: Vec<Branch>,
    /// Next branch index to consume/extend.
    depth: usize,
    preemptions: usize,
    steps: usize,
    objects: HashMap<u64, Object>,
    violation: Option<Violation>,
    aborting: bool,
}

impl State {
    fn object(&mut self, id: u64, mk: impl FnOnce() -> ObjKind) -> &mut Object {
        self.objects.entry(id).or_insert_with(|| Object {
            kind: mk(),
            clock: VClock::default(),
        })
    }

    fn ready_others(&self, me: usize) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(t, s)| *t != me && s.run == Run::Ready)
            .map(|(t, _)| t)
            .collect()
    }

    fn ready_all(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, s)| s.run == Run::Ready)
            .map(|(t, _)| t)
            .collect()
    }

    /// Picks among `options` per the DFS path (recording a branch when
    /// there is a real choice).
    fn choose(&mut self, options: Vec<usize>) -> usize {
        if options.len() == 1 {
            return options[0];
        }
        let d = self.depth;
        self.depth += 1;
        if d < self.path.len() {
            debug_assert_eq!(
                self.path[d].options, options,
                "model replay diverged: the scenario is non-deterministic"
            );
            options[self.path[d].idx]
        } else {
            let chosen = options[0];
            self.path.push(Branch { options, idx: 0 });
            chosen
        }
    }

    fn abort(&mut self, v: Violation) {
        if self.violation.is_none() {
            self.violation = Some(v);
        }
        self.aborting = true;
    }

    fn deadlock(&mut self) {
        let mut lines = Vec::new();
        for (t, s) in self.threads.iter().enumerate() {
            if let Run::Blocked(on) = &s.run {
                lines.push(format!("thread {t} blocked on {}", on.describe(self)));
            }
        }
        let message = format!("deadlock: {}", lines.join("; "));
        self.abort(Violation {
            kind: ViolationKind::Deadlock,
            message,
        });
    }

    /// Wakes every thread blocked on `pred`'s condition.
    fn wake(&mut self, pred: impl Fn(&BlockedOn) -> bool) {
        for s in self.threads.iter_mut() {
            if let Run::Blocked(on) = &s.run {
                if pred(on) {
                    s.run = Run::Ready;
                }
            }
        }
    }

    /// Model-level mutex release (no scheduling): publishes the
    /// releaser's clock and readies the blocked waiters.
    fn release_mutex(&mut self, id: u64, tid: usize) {
        self.threads[tid].clock.tick(tid);
        let clock = self.threads[tid].clock.clone();
        let obj = self.object(id, || ObjKind::Mutex { owner: None });
        if let ObjKind::Mutex { owner } = &mut obj.kind {
            *owner = None;
        }
        obj.clock.join(&clock);
        self.wake(|on| *on == BlockedOn::Mutex(id));
    }
}

/// The per-execution scheduler. Facade operations reach it through the
/// thread-local set up by [`super::try_check`].
pub(crate) struct Scheduler {
    state: StdMutex<State>,
    cv: StdCondvar,
}

impl Scheduler {
    pub(crate) fn new(opts: ModelOptions, replay: Vec<Branch>) -> Scheduler {
        Scheduler {
            state: StdMutex::new(State {
                opts,
                threads: vec![ThreadState {
                    run: Run::Ready,
                    clock: VClock::default(),
                }],
                current: 0,
                path: replay,
                depth: 0,
                preemptions: 0,
                steps: 0,
                objects: HashMap::new(),
                violation: None,
                aborting: false,
            }),
            cv: StdCondvar::new(),
        }
    }

    fn lock(&self) -> StdMutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Unwinds out of the scenario when the execution is aborting.
    /// During an unwind already in progress (guard drops) it returns
    /// quietly instead — a double panic would abort the process.
    fn abort_panic(&self) -> ! {
        if std::thread::panicking() {
            // Unreachable in practice: callers check `panicking` first.
            std::process::abort();
        }
        panic_any(ModelAbort);
    }

    fn maybe_abort(&self, st: StdMutexGuard<'_, State>) -> bool {
        let aborting = st.aborting;
        drop(st);
        if aborting && !std::thread::panicking() {
            self.abort_panic();
        }
        aborting
    }

    /// The scheduling point before every visible operation of `tid`:
    /// gives other runnable threads the chance to run first (costing
    /// one preemption), per the DFS path.
    pub(crate) fn pre_op(&self, tid: usize) {
        let mut st = self.lock();
        if st.aborting {
            self.maybe_abort(st);
            return;
        }
        debug_assert_eq!(st.current, tid, "only the scheduled thread runs");
        st.steps += 1;
        if st.steps > st.opts.max_steps {
            let cap = st.opts.max_steps;
            st.abort(Violation {
                kind: ViolationKind::StepLimit,
                message: format!(
                    "execution exceeded {cap} scheduler steps (livelock, or raise max_steps)"
                ),
            });
            self.cv.notify_all();
            self.maybe_abort(st);
            return;
        }
        let others = st.ready_others(tid);
        if others.is_empty() {
            return;
        }
        if st.preemptions >= st.opts.preemption_bound {
            return;
        }
        let mut options = vec![tid];
        options.extend(others);
        let chosen = st.choose(options);
        if chosen != tid {
            st.preemptions += 1;
            st.current = chosen;
            self.cv.notify_all();
            st = self.wait_for_turn(st, tid);
            self.maybe_abort(st);
        }
    }

    /// A point where the current thread *must* let others run if any
    /// are runnable (`thread::yield_now`): modeled as a forced,
    /// preemption-free switch.
    pub(crate) fn forced_yield(&self, tid: usize) {
        let mut st = self.lock();
        if st.aborting {
            self.maybe_abort(st);
            return;
        }
        st.steps += 1;
        let others = st.ready_others(tid);
        if others.is_empty() {
            return;
        }
        let chosen = st.choose(others);
        st.current = chosen;
        self.cv.notify_all();
        st = self.wait_for_turn(st, tid);
        self.maybe_abort(st);
    }

    fn wait_for_turn<'a>(
        &'a self,
        mut st: StdMutexGuard<'a, State>,
        tid: usize,
    ) -> StdMutexGuard<'a, State> {
        while !(st.aborting || st.current == tid && st.threads[tid].run == Run::Ready) {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        st
    }

    /// Blocks `tid` on `on`, hands the schedule to another runnable
    /// thread (or reports a deadlock), and returns once `tid` is made
    /// ready and scheduled again.
    fn block<'a>(
        &'a self,
        mut st: StdMutexGuard<'a, State>,
        tid: usize,
        on: BlockedOn,
    ) -> StdMutexGuard<'a, State> {
        st.threads[tid].run = Run::Blocked(on);
        st.steps += 1;
        let ready = st.ready_all();
        if ready.is_empty() {
            if st.threads.iter().any(|t| t.run != Run::Finished) {
                st.deadlock();
            }
            self.cv.notify_all();
        } else {
            let chosen = st.choose(ready);
            st.current = chosen;
            self.cv.notify_all();
        }
        self.wait_for_turn(st, tid)
    }

    // ---- threads ----------------------------------------------------

    /// Registers a child thread of `parent`; the child starts Ready and
    /// inherits the parent's causal past.
    pub(crate) fn spawn_thread(&self, parent: usize) -> usize {
        self.pre_op(parent);
        let mut st = self.lock();
        let tid = st.threads.len();
        st.threads[parent].clock.tick(parent);
        let mut clock = st.threads[parent].clock.clone();
        clock.tick(tid);
        st.threads.push(ThreadState {
            run: Run::Ready,
            clock,
        });
        tid
    }

    /// The child's first wait for the schedule. `false` means the
    /// execution aborted before the child ever ran.
    pub(crate) fn wait_first_turn(&self, tid: usize) -> bool {
        let st = self.lock();
        let st = self.wait_for_turn(st, tid);
        !st.aborting
    }

    /// Marks `tid` finished, wakes joiners, and hands off the schedule.
    pub(crate) fn thread_finished(&self, tid: usize) {
        let mut st = self.lock();
        st.threads[tid].run = Run::Finished;
        st.threads[tid].clock.tick(tid);
        st.wake(|on| *on == BlockedOn::Join(tid));
        if !st.aborting && st.current == tid {
            let ready = st.ready_all();
            if !ready.is_empty() {
                let chosen = st.choose(ready);
                st.current = chosen;
            } else if st.threads.iter().any(|t| t.run != Run::Finished) {
                st.deadlock();
            }
        }
        self.cv.notify_all();
    }

    /// Blocks `me` until `target` finishes, then acquires its final
    /// clock (join synchronizes-with thread exit).
    pub(crate) fn join_thread(&self, me: usize, target: usize) {
        self.pre_op(me);
        let mut st = self.lock();
        loop {
            if st.aborting {
                self.maybe_abort(st);
                return;
            }
            if st.threads[target].run == Run::Finished {
                let clock = st.threads[target].clock.clone();
                st.threads[me].clock.join(&clock);
                return;
            }
            st = self.block(st, me, BlockedOn::Join(target));
        }
    }

    /// Root-thread epilogue: finish tid 0, then wait for every thread
    /// of the execution to retire (scheduling continues among them).
    pub(crate) fn finish_root(&self) {
        self.thread_finished(0);
        let mut st = self.lock();
        while st.threads.iter().any(|t| t.run != Run::Finished) {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Records a panic that escaped the scenario on thread `tid` and
    /// aborts the execution.
    pub(crate) fn report_panic(&self, tid: usize, message: String) {
        let mut st = self.lock();
        st.abort(Violation {
            kind: ViolationKind::Panic,
            message: format!("thread {tid} panicked: {message}"),
        });
        self.cv.notify_all();
    }

    /// The execution's outcome: the explored choice path and any
    /// violation. Called after [`finish_root`](Self::finish_root).
    pub(crate) fn take_result(&self) -> (Vec<Branch>, Option<Violation>) {
        let st = self.lock();
        (st.path.clone(), st.violation.clone())
    }

    // ---- mutex ------------------------------------------------------

    pub(crate) fn mutex_lock(&self, id: u64, tid: usize) {
        self.pre_op(tid);
        let mut st = self.lock();
        loop {
            if st.aborting {
                self.maybe_abort(st);
                return;
            }
            let obj = st.object(id, || ObjKind::Mutex { owner: None });
            let held = match &mut obj.kind {
                ObjKind::Mutex { owner } => match owner {
                    None => {
                        *owner = Some(tid);
                        false
                    }
                    Some(_) => true,
                },
                _ => unreachable!("object {id} is not a mutex"),
            };
            if !held {
                let clock = st.objects[&id].clock.clone();
                st.threads[tid].clock.join(&clock);
                return;
            }
            st = self.block(st, tid, BlockedOn::Mutex(id));
        }
    }

    pub(crate) fn mutex_unlock(&self, id: u64, tid: usize) {
        self.pre_op(tid);
        let mut st = self.lock();
        st.release_mutex(id, tid);
        self.cv.notify_all();
    }

    // ---- rwlock -----------------------------------------------------

    pub(crate) fn rw_lock(&self, id: u64, tid: usize, write: bool) {
        self.pre_op(tid);
        let mut st = self.lock();
        loop {
            if st.aborting {
                self.maybe_abort(st);
                return;
            }
            let obj = st.object(id, || ObjKind::RwLock {
                writer: None,
                readers: Vec::new(),
            });
            let blocked = match &mut obj.kind {
                ObjKind::RwLock { writer, readers } => {
                    if write {
                        if writer.is_none() && readers.is_empty() {
                            *writer = Some(tid);
                            false
                        } else {
                            true
                        }
                    } else if writer.is_none() {
                        readers.push(tid);
                        false
                    } else {
                        true
                    }
                }
                _ => unreachable!("object {id} is not a rwlock"),
            };
            if !blocked {
                let clock = st.objects[&id].clock.clone();
                st.threads[tid].clock.join(&clock);
                return;
            }
            let on = if write {
                BlockedOn::RwWrite(id)
            } else {
                BlockedOn::RwRead(id)
            };
            st = self.block(st, tid, on);
        }
    }

    pub(crate) fn rw_unlock(&self, id: u64, tid: usize, write: bool) {
        self.pre_op(tid);
        let mut st = self.lock();
        st.threads[tid].clock.tick(tid);
        let clock = st.threads[tid].clock.clone();
        let obj = st.object(id, || ObjKind::RwLock {
            writer: None,
            readers: Vec::new(),
        });
        if let ObjKind::RwLock { writer, readers } = &mut obj.kind {
            if write {
                *writer = None;
            } else {
                readers.retain(|r| *r != tid);
            }
        }
        // Readers publish too: a writer acquiring after them must see
        // everything that happened-before their unlock.
        obj.clock.join(&clock);
        st.wake(|on| *on == BlockedOn::RwRead(id) || *on == BlockedOn::RwWrite(id));
        self.cv.notify_all();
    }

    // ---- condvar ----------------------------------------------------

    /// The atomic core of `Condvar::wait`: enqueue as a waiter, release
    /// the mutex (model side — the caller already dropped the std
    /// guard), and block until a notify readies this thread. The caller
    /// re-acquires the mutex afterwards.
    pub(crate) fn condvar_wait(&self, cv_id: u64, mutex_id: u64, tid: usize) {
        let mut st = self.lock();
        if st.aborting {
            self.maybe_abort(st);
            return;
        }
        let obj = st.object(cv_id, || ObjKind::Condvar {
            waiters: Vec::new(),
            lost_notifies: 0,
        });
        if let ObjKind::Condvar { waiters, .. } = &mut obj.kind {
            waiters.push(tid);
        }
        st.release_mutex(mutex_id, tid);
        let st = self.block(st, tid, BlockedOn::Condvar(cv_id));
        drop(st);
    }

    pub(crate) fn condvar_notify(&self, cv_id: u64, tid: usize, all: bool) {
        self.pre_op(tid);
        let mut st = self.lock();
        if st.aborting {
            // Free-running teardown: ready every waiter so they can
            // unwind.
            st.wake(|on| *on == BlockedOn::Condvar(cv_id));
            self.cv.notify_all();
            self.maybe_abort(st);
            return;
        }
        st.threads[tid].clock.tick(tid);
        let clock = st.threads[tid].clock.clone();
        let obj = st.object(cv_id, || ObjKind::Condvar {
            waiters: Vec::new(),
            lost_notifies: 0,
        });
        obj.clock.join(&clock);
        let woken: Vec<usize> = match &mut obj.kind {
            ObjKind::Condvar {
                waiters,
                lost_notifies,
            } => {
                if waiters.is_empty() {
                    *lost_notifies += 1;
                    Vec::new()
                } else if all {
                    std::mem::take(waiters)
                } else {
                    vec![waiters.remove(0)]
                }
            }
            _ => unreachable!("object {cv_id} is not a condvar"),
        };
        let cv_clock = st.objects[&cv_id].clock.clone();
        for w in woken {
            st.threads[w].run = Run::Ready;
            // Wakeup synchronizes-with the notify.
            st.threads[w].clock.join(&cv_clock);
        }
        self.cv.notify_all();
    }

    // ---- atomics ----------------------------------------------------

    pub(crate) fn atomic_op(&self, id: u64, tid: usize, ord: Ordering, dir: AtomicDir) {
        {
            let st = self.lock();
            if ord == Ordering::Relaxed && !st.opts.yield_on_relaxed {
                return;
            }
        }
        self.pre_op(tid);
        let mut st = self.lock();
        if st.aborting {
            self.maybe_abort(st);
            return;
        }
        let acquire = matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
            && dir != AtomicDir::Store;
        let release = matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
            && dir != AtomicDir::Load;
        if acquire {
            let clock = st.object(id, || ObjKind::Atomic).clock.clone();
            st.threads[tid].clock.join(&clock);
        }
        if release {
            st.threads[tid].clock.tick(tid);
            let clock = st.threads[tid].clock.clone();
            st.object(id, || ObjKind::Atomic).clock.join(&clock);
        }
    }

    // ---- once / once-lock -------------------------------------------

    /// `true`: initialization already complete (clock acquired).
    /// `false`: the caller now owns the (single) initialization and
    /// must call [`once_complete`](Self::once_complete).
    pub(crate) fn once_acquire(&self, id: u64, tid: usize) -> bool {
        self.pre_op(tid);
        let mut st = self.lock();
        loop {
            if st.aborting {
                self.maybe_abort(st);
                return true;
            }
            let obj = st.object(id, || ObjKind::Once {
                state: OnceState::Uninit,
            });
            let decided = match &mut obj.kind {
                ObjKind::Once { state } => match *state {
                    OnceState::Done => Some(true),
                    OnceState::Uninit => {
                        *state = OnceState::Running(tid);
                        Some(false)
                    }
                    OnceState::Running(_) => None,
                },
                _ => unreachable!("object {id} is not a once"),
            };
            match decided {
                Some(true) => {
                    let clock = st.objects[&id].clock.clone();
                    st.threads[tid].clock.join(&clock);
                    return true;
                }
                Some(false) => return false,
                None => st = self.block(st, tid, BlockedOn::Once(id)),
            }
        }
    }

    pub(crate) fn once_complete(&self, id: u64, tid: usize) {
        let mut st = self.lock();
        st.threads[tid].clock.tick(tid);
        let clock = st.threads[tid].clock.clone();
        let obj = st.object(id, || ObjKind::Once {
            state: OnceState::Uninit,
        });
        if let ObjKind::Once { state } = &mut obj.kind {
            *state = OnceState::Done;
        }
        obj.clock.join(&clock);
        st.wake(|on| *on == BlockedOn::Once(id));
        self.cv.notify_all();
    }

    /// Non-blocking peek for `OnceLock::get`: `true` when initialized
    /// (clock acquired).
    pub(crate) fn once_peek(&self, id: u64, tid: usize) -> bool {
        self.pre_op(tid);
        let mut st = self.lock();
        if st.aborting {
            self.maybe_abort(st);
            return true;
        }
        let done = matches!(
            st.object(id, || ObjKind::Once {
                state: OnceState::Uninit
            })
            .kind,
            ObjKind::Once {
                state: OnceState::Done
            }
        );
        if done {
            let clock = st.objects[&id].clock.clone();
            st.threads[tid].clock.join(&clock);
        }
        done
    }

    // ---- race cells -------------------------------------------------

    pub(crate) fn cell_access(&self, id: u64, tid: usize, write: bool) {
        self.pre_op(tid);
        let mut st = self.lock();
        if st.aborting {
            self.maybe_abort(st);
            return;
        }
        let my = st.threads[tid].clock.clone();
        let obj = st.object(id, || ObjKind::Cell {
            write: None,
            reads: VClock::default(),
        });
        let race = match &mut obj.kind {
            ObjKind::Cell { write: w, reads } => {
                let write_races = w.is_some_and(|(wt, wc)| wt != tid && my.get(wt) < wc);
                let read_races = write && !reads.le(&my);
                if write_races || read_races {
                    true
                } else {
                    if write {
                        *reads = VClock::default();
                    } else {
                        reads.set(tid, my.get(tid));
                    }
                    false
                }
            }
            _ => unreachable!("object {id} is not a race cell"),
        };
        if race {
            let op = if write { "write" } else { "read" };
            st.abort(Violation {
                kind: ViolationKind::DataRace,
                message: format!(
                    "data race: unsynchronized {op} of RaceCell#{id} by thread {tid} \
                     (no happens-before edge from the conflicting access)"
                ),
            });
            self.cv.notify_all();
            self.maybe_abort(st);
            return;
        }
        if write {
            st.threads[tid].clock.tick(tid);
            let epoch = st.threads[tid].clock.get(tid);
            if let Some(Object {
                kind: ObjKind::Cell { write: w, .. },
                ..
            }) = st.objects.get_mut(&id)
            {
                *w = Some((tid, epoch));
            }
        }
    }
}
