//! Dual-mode synchronization types (model builds only).
//!
//! Each type pairs the real std primitive (which always holds the
//! data) with a lazily assigned model object id. Outside a model
//! execution the wrappers delegate straight to std; inside one, every
//! operation first consults the scheduler — acquiring/releasing at the
//! model level, transferring vector clocks, and yielding the schedule
//! — before performing the real operation (which, with only one model
//! thread running at a time, never contends).

use crate::model::{self, current, payload_message, AtomicDir, ModelAbort};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool as StdAtomicBool, AtomicU64 as StdAtomicU64, Ordering};
use std::sync::{
    Arc, Condvar as StdCondvar, LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard,
    Once as StdOnce, OnceLock as StdOnceLock, PoisonError, RwLock as StdRwLock,
    RwLockReadGuard as StdRwLockReadGuard, RwLockWriteGuard as StdRwLockWriteGuard,
};

/// Returns the object's model id, assigning a fresh one on first use.
pub(crate) fn lazy_id(slot: &StdAtomicU64) -> u64 {
    let v = slot.load(Ordering::Relaxed);
    if v != 0 {
        return v;
    }
    let fresh = model::next_obj_id();
    match slot.compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => fresh,
        Err(existing) => existing,
    }
}

// ---------------------------------------------------------------- Mutex

/// Dual-mode [`std::sync::Mutex`].
pub struct Mutex<T> {
    id: StdAtomicU64,
    inner: StdMutex<T>,
}

/// Dual-mode [`std::sync::MutexGuard`].
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    model: bool,
}

impl<T> Mutex<T> {
    /// Creates the mutex (usable in `static`s).
    pub const fn new(t: T) -> Self {
        Mutex {
            id: StdAtomicU64::new(0),
            inner: StdMutex::new(t),
        }
    }

    fn obj_id(&self) -> u64 {
        lazy_id(&self.id)
    }

    /// Acquires the mutex; a scheduling (and possibly blocking) point
    /// inside a model execution.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let model = if let Some((sched, tid)) = current() {
            sched.mutex_lock(self.obj_id(), tid);
            true
        } else {
            false
        };
        match self.inner.lock() {
            Ok(g) => Ok(MutexGuard {
                lock: self,
                inner: Some(g),
                model,
            }),
            Err(p) => Err(PoisonError::new(MutexGuard {
                lock: self,
                inner: Some(p.into_inner()),
                model,
            })),
        }
    }

    /// Exclusive access without locking.
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner
            .get_mut()
            .map_err(|p| PoisonError::new(p.into_inner()))
    }

    /// Consumes the mutex.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner
            .into_inner()
            .map_err(|p| PoisonError::new(p.into_inner()))
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").field("inner", &self.inner).finish()
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the std lock first: when the model schedules another
        // thread during the release op below, the data is already
        // unlocked for it.
        drop(self.inner.take());
        if self.model {
            if let Some((sched, tid)) = current() {
                sched.mutex_unlock(self.lock.obj_id(), tid);
            }
        }
    }
}

// -------------------------------------------------------------- Condvar

/// Dual-mode [`std::sync::Condvar`].
pub struct Condvar {
    id: StdAtomicU64,
    inner: StdCondvar,
}

impl Condvar {
    /// Creates the condvar (usable in `static`s).
    pub const fn new() -> Self {
        Condvar {
            id: StdAtomicU64::new(0),
            inner: StdCondvar::new(),
        }
    }

    fn obj_id(&self) -> u64 {
        lazy_id(&self.id)
    }

    /// Releases the guard's mutex, waits for a notification, and
    /// re-acquires. In a model the enqueue+release is atomic (no lost
    /// wakeups from the wait side) and spurious wakeups do not occur.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        if let Some((sched, tid)) = current() {
            let mut guard = guard;
            let lock = guard.lock;
            sched.pre_op(tid);
            // Dismantle without the model release in Drop: the model
            // release happens atomically with the waiter enqueue.
            drop(guard.inner.take());
            guard.model = false;
            drop(guard);
            sched.condvar_wait(self.obj_id(), lock.obj_id(), tid);
            lock.lock()
        } else {
            let lock = guard.lock;
            let mut guard = guard;
            let std_guard = guard.inner.take().expect("guard holds the lock");
            guard.model = false;
            drop(guard);
            match self.inner.wait(std_guard) {
                Ok(g) => Ok(MutexGuard {
                    lock,
                    inner: Some(g),
                    model: false,
                }),
                Err(p) => Err(PoisonError::new(MutexGuard {
                    lock,
                    inner: Some(p.into_inner()),
                    model: false,
                })),
            }
        }
    }

    /// Wakes one waiter (in a model: FIFO; a notify that finds no
    /// waiter is counted for lost-notify diagnostics).
    pub fn notify_one(&self) {
        if let Some((sched, tid)) = current() {
            sched.condvar_notify(self.obj_id(), tid, false);
        }
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        if let Some((sched, tid)) = current() {
            sched.condvar_notify(self.obj_id(), tid, true);
        }
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

// --------------------------------------------------------------- RwLock

/// Dual-mode [`std::sync::RwLock`].
pub struct RwLock<T> {
    id: StdAtomicU64,
    inner: StdRwLock<T>,
}

/// Dual-mode [`std::sync::RwLockReadGuard`].
pub struct RwLockReadGuard<'a, T> {
    lock: &'a RwLock<T>,
    inner: Option<StdRwLockReadGuard<'a, T>>,
    model: bool,
}

/// Dual-mode [`std::sync::RwLockWriteGuard`].
pub struct RwLockWriteGuard<'a, T> {
    lock: &'a RwLock<T>,
    inner: Option<StdRwLockWriteGuard<'a, T>>,
    model: bool,
}

impl<T> RwLock<T> {
    /// Creates the lock (usable in `static`s).
    pub const fn new(t: T) -> Self {
        RwLock {
            id: StdAtomicU64::new(0),
            inner: StdRwLock::new(t),
        }
    }

    fn obj_id(&self) -> u64 {
        lazy_id(&self.id)
    }

    /// Acquires shared read access.
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        let model = if let Some((sched, tid)) = current() {
            sched.rw_lock(self.obj_id(), tid, false);
            true
        } else {
            false
        };
        match self.inner.read() {
            Ok(g) => Ok(RwLockReadGuard {
                lock: self,
                inner: Some(g),
                model,
            }),
            Err(p) => Err(PoisonError::new(RwLockReadGuard {
                lock: self,
                inner: Some(p.into_inner()),
                model,
            })),
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        let model = if let Some((sched, tid)) = current() {
            sched.rw_lock(self.obj_id(), tid, true);
            true
        } else {
            false
        };
        match self.inner.write() {
            Ok(g) => Ok(RwLockWriteGuard {
                lock: self,
                inner: Some(g),
                model,
            }),
            Err(p) => Err(PoisonError::new(RwLockWriteGuard {
                lock: self,
                inner: Some(p.into_inner()),
                model,
            })),
        }
    }

    /// Exclusive access without locking.
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner
            .get_mut()
            .map_err(|p| PoisonError::new(p.into_inner()))
    }

    /// Consumes the lock.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner
            .into_inner()
            .map_err(|p| PoisonError::new(p.into_inner()))
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock")
            .field("inner", &self.inner)
            .finish()
    }
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if self.model {
            if let Some((sched, tid)) = current() {
                sched.rw_unlock(self.lock.obj_id(), tid, false);
            }
        }
    }
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if self.model {
            if let Some((sched, tid)) = current() {
                sched.rw_unlock(self.lock.obj_id(), tid, true);
            }
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// ----------------------------------------------------------------- Once

/// Dual-mode [`std::sync::Once`].
pub struct Once {
    id: StdAtomicU64,
    inner: StdOnce,
}

impl Once {
    /// Creates the once (usable in `static`s).
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        Once {
            id: StdAtomicU64::new(0),
            inner: StdOnce::new(),
        }
    }

    /// Runs `f` exactly once across all callers; later callers observe
    /// its effects (release/acquire).
    pub fn call_once(&self, f: impl FnOnce()) {
        if let Some((sched, tid)) = current() {
            let id = lazy_id(&self.id);
            if sched.once_acquire(id, tid) {
                return;
            }
            f();
            // Keep the std state consistent for mixed / later
            // non-model use.
            self.inner.call_once(|| {});
            sched.once_complete(id, tid);
        } else {
            self.inner.call_once(f);
        }
    }

    /// Whether `call_once` has completed.
    pub fn is_completed(&self) -> bool {
        self.inner.is_completed()
    }
}

impl fmt::Debug for Once {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Once").finish_non_exhaustive()
    }
}

// ------------------------------------------------------------- OnceLock

/// Dual-mode [`std::sync::OnceLock`].
pub struct OnceLock<T> {
    id: StdAtomicU64,
    inner: StdOnceLock<T>,
}

impl<T> OnceLock<T> {
    /// Creates an empty cell (usable in `static`s).
    pub const fn new() -> Self {
        OnceLock {
            id: StdAtomicU64::new(0),
            inner: StdOnceLock::new(),
        }
    }

    /// The value, if initialized (non-blocking).
    pub fn get(&self) -> Option<&T> {
        if let Some((sched, tid)) = current() {
            if sched.once_peek(lazy_id(&self.id), tid) {
                self.inner.get()
            } else {
                None
            }
        } else {
            self.inner.get()
        }
    }

    /// Sets the value if unset; `Err(value)` when already initialized.
    pub fn set(&self, value: T) -> Result<(), T> {
        if let Some((sched, tid)) = current() {
            let id = lazy_id(&self.id);
            if sched.once_acquire(id, tid) {
                return Err(value);
            }
            let r = self.inner.set(value);
            sched.once_complete(id, tid);
            r
        } else {
            self.inner.set(value)
        }
    }

    /// The value, initializing it with `f` if unset. In a model,
    /// exactly one thread runs `f`; others block and then acquire.
    pub fn get_or_init(&self, f: impl FnOnce() -> T) -> &T {
        if let Some((sched, tid)) = current() {
            let id = lazy_id(&self.id);
            if sched.once_acquire(id, tid) {
                if let Some(v) = self.inner.get() {
                    return v;
                }
                // Aborting teardown: fall through free-running.
                return self.inner.get_or_init(f);
            }
            let _ = self.inner.set(f());
            sched.once_complete(id, tid);
            self.inner.get().expect("just initialized")
        } else {
            self.inner.get_or_init(f)
        }
    }
}

impl<T> Default for OnceLock<T> {
    fn default() -> Self {
        OnceLock::new()
    }
}

impl<T: Clone> Clone for OnceLock<T> {
    fn clone(&self) -> Self {
        OnceLock {
            // A clone is a distinct object with its own identity.
            id: StdAtomicU64::new(0),
            inner: self.inner.clone(),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for OnceLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OnceLock")
            .field("inner", &self.inner)
            .finish()
    }
}

// -------------------------------------------------------------- atomics

/// Dual-mode atomic integer/bool types.
pub mod atomic {
    use super::*;

    macro_rules! model_atomic_int {
        ($(#[$doc:meta])* $name:ident, $std:ident, $ty:ty) => {
            $(#[$doc])*
            pub struct $name {
                id: StdAtomicU64,
                inner: std::sync::atomic::$std,
            }

            impl $name {
                /// Creates the atomic (usable in `static`s).
                pub const fn new(v: $ty) -> Self {
                    $name {
                        id: StdAtomicU64::new(0),
                        inner: std::sync::atomic::$std::new(v),
                    }
                }

                fn hook(&self, ord: Ordering, dir: AtomicDir) {
                    if let Some((sched, tid)) = current() {
                        sched.atomic_op(lazy_id(&self.id), tid, ord, dir);
                    }
                }

                /// Atomic load.
                pub fn load(&self, ord: Ordering) -> $ty {
                    self.hook(ord, AtomicDir::Load);
                    self.inner.load(ord)
                }

                /// Atomic store.
                pub fn store(&self, v: $ty, ord: Ordering) {
                    self.hook(ord, AtomicDir::Store);
                    self.inner.store(v, ord)
                }

                /// Atomic swap.
                pub fn swap(&self, v: $ty, ord: Ordering) -> $ty {
                    self.hook(ord, AtomicDir::Rmw);
                    self.inner.swap(v, ord)
                }

                /// Atomic compare-exchange (hooked at the success
                /// ordering).
                pub fn compare_exchange(
                    &self,
                    cur: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    self.hook(success, AtomicDir::Rmw);
                    self.inner.compare_exchange(cur, new, success, failure)
                }

                /// Atomic add, returning the previous value.
                pub fn fetch_add(&self, v: $ty, ord: Ordering) -> $ty {
                    self.hook(ord, AtomicDir::Rmw);
                    self.inner.fetch_add(v, ord)
                }

                /// Atomic subtract, returning the previous value.
                pub fn fetch_sub(&self, v: $ty, ord: Ordering) -> $ty {
                    self.hook(ord, AtomicDir::Rmw);
                    self.inner.fetch_sub(v, ord)
                }

                /// Atomic max, returning the previous value.
                pub fn fetch_max(&self, v: $ty, ord: Ordering) -> $ty {
                    self.hook(ord, AtomicDir::Rmw);
                    self.inner.fetch_max(v, ord)
                }

                /// Exclusive access without synchronization.
                pub fn get_mut(&mut self) -> &mut $ty {
                    self.inner.get_mut()
                }

                /// Consumes the atomic.
                pub fn into_inner(self) -> $ty {
                    self.inner.into_inner()
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(<$ty>::default())
                }
            }

            impl fmt::Debug for $name {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    fmt::Debug::fmt(&self.inner, f)
                }
            }
        };
    }

    model_atomic_int!(
        /// Dual-mode [`std::sync::atomic::AtomicU32`].
        AtomicU32,
        AtomicU32,
        u32
    );
    model_atomic_int!(
        /// Dual-mode [`std::sync::atomic::AtomicU64`].
        AtomicU64,
        AtomicU64,
        u64
    );
    model_atomic_int!(
        /// Dual-mode [`std::sync::atomic::AtomicUsize`].
        AtomicUsize,
        AtomicUsize,
        usize
    );

    /// Dual-mode [`std::sync::atomic::AtomicBool`].
    pub struct AtomicBool {
        id: StdAtomicU64,
        inner: StdAtomicBool,
    }

    impl AtomicBool {
        /// Creates the atomic (usable in `static`s).
        pub const fn new(v: bool) -> Self {
            AtomicBool {
                id: StdAtomicU64::new(0),
                inner: StdAtomicBool::new(v),
            }
        }

        fn hook(&self, ord: Ordering, dir: AtomicDir) {
            if let Some((sched, tid)) = current() {
                sched.atomic_op(lazy_id(&self.id), tid, ord, dir);
            }
        }

        /// Atomic load.
        pub fn load(&self, ord: Ordering) -> bool {
            self.hook(ord, AtomicDir::Load);
            self.inner.load(ord)
        }

        /// Atomic store.
        pub fn store(&self, v: bool, ord: Ordering) {
            self.hook(ord, AtomicDir::Store);
            self.inner.store(v, ord)
        }

        /// Atomic swap.
        pub fn swap(&self, v: bool, ord: Ordering) -> bool {
            self.hook(ord, AtomicDir::Rmw);
            self.inner.swap(v, ord)
        }

        /// Atomic compare-exchange (hooked at the success ordering).
        pub fn compare_exchange(
            &self,
            cur: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            self.hook(success, AtomicDir::Rmw);
            self.inner.compare_exchange(cur, new, success, failure)
        }

        /// Exclusive access without synchronization.
        pub fn get_mut(&mut self) -> &mut bool {
            self.inner.get_mut()
        }
    }

    impl Default for AtomicBool {
        fn default() -> Self {
            Self::new(false)
        }
    }

    impl fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Debug::fmt(&self.inner, f)
        }
    }
}

// -------------------------------------------------------------- threads

/// Dual-mode thread entry points.
pub mod thread {
    use super::*;
    use crate::model::set_current;

    /// `std::thread::available_parallelism`, unchanged: model
    /// scenarios pass explicit thread counts.
    pub use std::thread::available_parallelism;

    /// How a [`JoinHandle`] finds its thread.
    struct Shared {
        /// `(scheduler, model tid)` when spawned inside a model.
        model: Option<(Arc<crate::model::Scheduler>, usize)>,
        /// The real OS join handle.
        real: std::thread::JoinHandle<()>,
    }

    type Slot<T> = Arc<StdMutex<Option<std::thread::Result<T>>>>;

    /// Spawns the already-wrapped (panic-catching, slot-writing)
    /// closure as a model thread or a plain std thread.
    fn spawn_erased(wrapper: Box<dyn FnOnce() + Send + 'static>) -> Shared {
        match current() {
            None => Shared {
                model: None,
                real: std::thread::spawn(wrapper),
            },
            Some((sched, me)) => {
                let tid = sched.spawn_thread(me);
                let sched2 = Arc::clone(&sched);
                let real = std::thread::spawn(move || {
                    set_current(Some((Arc::clone(&sched2), tid)));
                    if sched2.wait_first_turn(tid) {
                        wrapper();
                    }
                    sched2.thread_finished(tid);
                    set_current(None);
                });
                Shared {
                    model: Some((sched, tid)),
                    real,
                }
            }
        }
    }

    /// Builds the standard wrapper: run `f`, store the outcome in
    /// `slot`, and report non-abort panics to the model (when inside
    /// one).
    fn wrap<T: Send>(f: impl FnOnce() -> T + Send, slot: Slot<T>) -> impl FnOnce() + Send {
        move || {
            let store = match catch_unwind(AssertUnwindSafe(f)) {
                Ok(v) => Some(Ok(v)),
                Err(p) if p.is::<ModelAbort>() => None,
                Err(p) => {
                    if let Some((sched, tid)) = current() {
                        sched.report_panic(tid, payload_message(&*p));
                    }
                    Some(Err(p))
                }
            };
            *slot.lock().unwrap_or_else(|p| p.into_inner()) = store;
        }
    }

    /// Dual-mode [`std::thread::JoinHandle`].
    pub struct JoinHandle<T> {
        shared: Shared,
        slot: Slot<T>,
    }

    impl<T> fmt::Debug for JoinHandle<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("JoinHandle").finish_non_exhaustive()
        }
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread (a blocking model operation inside a
        /// model execution) and returns its result.
        pub fn join(self) -> std::thread::Result<T> {
            if let Some((sched, tid)) = &self.shared.model {
                if let Some((_, me)) = current() {
                    sched.join_thread(me, *tid);
                }
            }
            let _ = self.shared.real.join();
            self.slot
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take()
                .unwrap_or_else(|| Err(Box::new("model thread aborted")))
        }
    }

    /// Spawns a thread (a model thread inside a model execution).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let slot: Slot<T> = Arc::new(StdMutex::new(None));
        let shared = spawn_erased(Box::new(wrap(f, Arc::clone(&slot))));
        JoinHandle { shared, slot }
    }

    /// Dual-mode [`std::thread::yield_now`].
    pub fn yield_now() {
        if let Some((sched, tid)) = current() {
            sched.forced_yield(tid);
        } else {
            std::thread::yield_now();
        }
    }
}
