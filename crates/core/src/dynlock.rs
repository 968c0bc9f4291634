//! The object-safe dynamic layer: runtime-selectable locks.
//!
//! The paper's evaluation swaps lock algorithms under an unchanged
//! `pthread_mutex` interface by `LD_PRELOAD`-ing interposition libraries
//! (§5) — the algorithm is chosen when the process *runs*, not when it is
//! compiled. [`crate::Mutex`] can't express that: it monomorphizes per lock
//! type, so every binary needs a hard-coded list of types. This module is
//! the Rust analog of the interposition boundary:
//!
//! - [`DynLock`] — an object-safe lock handle (`Box<dyn DynLock>`), with
//!   the same context-free contract as [`RawLock`] plus metadata access,
//!   including the shared (read) mode [`RawLock::read_lock`] provides;
//! - [`DynMutex`] — a guard-based mutex over a `dyn DynLock`, mirroring the
//!   `Mutex<T, L>` API (`lock`, `read`, and the try/timed forms) so
//!   application code is indifferent to which layer it runs on;
//! - [`TryLockError`] — typed "would block" / "timed out" vs "algorithm
//!   has no trylock or abortable path" (CLH and Anderson cannot withdraw a
//!   waiter once advertised; §2).
//!
//! Reader-writer algorithms need no second trait: as with
//! [`crate::Mutex`], `read` admits concurrent readers when the algorithm
//! has a shared mode ([`LockMeta`]'s `rw` bit) and degrades to the
//! exclusive path otherwise.
//!
//! Concrete `dyn` handles are built by the catalog in `hemlock-locks`
//! (`hemlock_locks::catalog`), which maps string keys like `"hemlock"`,
//! `"mcs"` or `"rw.mcs"` to factories; this module only defines the
//! boundary, so that the core crate stays free of algorithm inventory.

use crate::meta::LockMeta;
use crate::raw::{RawLock, RawTryLock};
use core::cell::UnsafeCell;
use core::fmt;
use core::marker::PhantomData;
use core::ops::{Deref, DerefMut};
use core::time::Duration;

/// An object-safe mutual-exclusion lock: [`RawLock`] minus the compile-time
/// pieces (`Default`, `const META`), plus runtime metadata access.
///
/// # Safety
///
/// Implementations must uphold the [`RawLock`] contract: mutual exclusion
/// between `lock`/`try_lock` success and the matching `unlock`, acquire
/// semantics on acquisition, release semantics on release. `meta()` must
/// faithfully describe the algorithm (in particular `meta().try_lock` must
/// be `true` iff `try_lock` can ever return `Ok(true)`).
pub unsafe trait DynLock: Send + Sync {
    /// This algorithm's descriptor.
    fn meta(&self) -> LockMeta;

    /// Acquires the lock, blocking until it is available.
    fn lock(&self);

    /// Attempts a non-blocking acquisition. `Ok(true)` confers ownership;
    /// `Ok(false)` means the lock was busy; `Err(TryLockError::Unsupported)`
    /// means the algorithm has no trylock path at all.
    fn try_lock(&self) -> Result<bool, TryLockError>;

    /// Attempts a **timed** acquisition: `Ok(true)` confers ownership,
    /// `Ok(false)` means the deadline passed (the waiter has withdrawn and
    /// will never be granted the lock by this call), and
    /// `Err(TryLockError::Unsupported)` means the algorithm has no
    /// abortable path (`meta().abortable == false` — CLH, Anderson).
    fn try_lock_for(&self, timeout: Duration) -> Result<bool, TryLockError> {
        let _ = timeout;
        Err(TryLockError::Unsupported)
    }

    /// Releases the lock.
    ///
    /// # Safety
    ///
    /// The calling thread must hold the lock and must be the thread that
    /// acquired it, exactly as for [`RawLock::unlock`].
    unsafe fn unlock(&self);

    /// Acquires in shared (read) mode, as [`RawLock::read_lock`]: readers
    /// coexist when `meta().rw`, otherwise this is the exclusive path.
    fn read_lock(&self);

    /// Releases a [`DynLock::read_lock`] acquisition.
    ///
    /// # Safety
    ///
    /// The calling thread must hold the lock in read mode and must be the
    /// thread that acquired it, exactly as for [`RawLock::read_unlock`].
    unsafe fn read_unlock(&self);

    /// Attempts a **timed shared** acquisition, with the contract of
    /// [`DynLock::try_lock_for`]: `Ok(false)` means the reader withdrew,
    /// `Err(TryLockError::Unsupported)` that there is no abortable path.
    fn try_read_lock_for(&self, timeout: Duration) -> Result<bool, TryLockError> {
        let _ = timeout;
        Err(TryLockError::Unsupported)
    }

    /// Best-effort engagement probe, as [`RawLock::is_locked_hint`]:
    /// statistics only, never correctness.
    fn is_locked_hint(&self) -> Option<bool> {
        None
    }
}

/// Why a [`DynMutex::try_lock`] / [`DynMutex::try_lock_for`] attempt
/// yielded no guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryLockError {
    /// The lock is currently held by another thread.
    WouldBlock,
    /// A timed acquisition's deadline passed; the waiter withdrew and will
    /// never receive the lock from that attempt.
    TimedOut,
    /// The algorithm does not implement the requested path (e.g. CLH or
    /// Anderson: a waiter cannot withdraw once it has advertised itself —
    /// CLH's tail link and Anderson's claimed array slot are commitments;
    /// §2).
    Unsupported,
}

impl fmt::Display for TryLockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryLockError::WouldBlock => f.write_str("lock is busy"),
            TryLockError::TimedOut => f.write_str("timed out waiting for the lock"),
            TryLockError::Unsupported => f.write_str("algorithm has no trylock/abortable path"),
        }
    }
}

impl std::error::Error for TryLockError {}

/// Adapter giving any [`RawLock`] a [`DynLock`] vtable. `try_lock` reports
/// [`TryLockError::Unsupported`]; use [`DynTryAdapter`] for algorithms that
/// implement [`RawTryLock`].
pub struct DynAdapter<L: RawLock> {
    lock: L,
    meta: LockMeta,
}

impl<L: RawLock> DynAdapter<L> {
    /// Wraps a fresh lock reporting `meta`, which must describe `L`:
    /// catalogs only patch the display name (`"RW-MCS"` for
    /// `RwFromRaw<McsLock>`, which no `const` can spell). The trylock,
    /// abortable and async bits are cleared, because this handle exposes
    /// none of those paths even when `L` has them.
    pub fn with_meta(mut meta: LockMeta) -> Self {
        meta.try_lock = false;
        meta.abortable = false;
        meta.asyncable = false;
        Self {
            lock: L::default(),
            meta,
        }
    }
}

// Safety: forwards directly to the RawLock contract; try_lock never claims
// ownership, and the stored meta has try_lock/abortable cleared.
unsafe impl<L: RawLock> DynLock for DynAdapter<L> {
    fn meta(&self) -> LockMeta {
        self.meta
    }
    fn lock(&self) {
        self.lock.lock();
    }
    fn try_lock(&self) -> Result<bool, TryLockError> {
        Err(TryLockError::Unsupported)
    }
    unsafe fn unlock(&self) {
        self.lock.unlock();
    }
    fn read_lock(&self) {
        self.lock.read_lock();
    }
    unsafe fn read_unlock(&self) {
        self.lock.read_unlock();
    }
    fn is_locked_hint(&self) -> Option<bool> {
        self.lock.is_locked_hint()
    }
}

/// Adapter giving a [`RawTryLock`] a [`DynLock`] vtable with a real
/// `try_lock`, and real timed paths when the descriptor is `abortable`.
pub struct DynTryAdapter<L: RawTryLock> {
    lock: L,
    meta: LockMeta,
}

impl<L: RawTryLock> DynTryAdapter<L> {
    /// Wraps a fresh lock reporting `meta`, which must describe `L`
    /// (catalogs only patch the display name).
    pub fn with_meta(meta: LockMeta) -> Self {
        Self {
            lock: L::default(),
            meta,
        }
    }
}

// Safety: forwards directly to the RawLock/RawTryLock contract; the timed
// methods are gated on the descriptor's abortable bit so the vtable never
// claims bounds the type's META disavows.
unsafe impl<L: RawTryLock> DynLock for DynTryAdapter<L> {
    fn meta(&self) -> LockMeta {
        self.meta
    }
    fn lock(&self) {
        self.lock.lock();
    }
    fn try_lock(&self) -> Result<bool, TryLockError> {
        Ok(self.lock.try_lock())
    }
    fn try_lock_for(&self, timeout: Duration) -> Result<bool, TryLockError> {
        if self.meta.abortable {
            Ok(self.lock.try_lock_for(timeout))
        } else {
            Err(TryLockError::Unsupported)
        }
    }
    unsafe fn unlock(&self) {
        self.lock.unlock();
    }
    fn read_lock(&self) {
        self.lock.read_lock();
    }
    unsafe fn read_unlock(&self) {
        self.lock.read_unlock();
    }
    fn try_read_lock_for(&self, timeout: Duration) -> Result<bool, TryLockError> {
        if self.meta.abortable {
            Ok(self.lock.try_read_lock_for(timeout))
        } else {
            Err(TryLockError::Unsupported)
        }
    }
    fn is_locked_hint(&self) -> Option<bool> {
        self.lock.is_locked_hint()
    }
}

/// Boxes a [`RawLock`] as a runtime lock handle (no trylock path).
pub fn boxed<L: RawLock + 'static>() -> Box<dyn DynLock> {
    Box::new(DynAdapter::<L>::with_meta(L::META))
}

/// Boxes a [`RawTryLock`] as a runtime lock handle with trylock support.
pub fn boxed_try<L: RawTryLock + 'static>() -> Box<dyn DynLock> {
    Box::new(DynTryAdapter::<L>::with_meta(L::META))
}

/// A mutual-exclusion primitive protecting a `T`, with the lock algorithm
/// chosen at **runtime** — the dynamic-layer counterpart of
/// [`Mutex<T, L>`](crate::Mutex).
///
/// ```
/// use hemlock_core::dynlock::{boxed_try, DynMutex};
/// use hemlock_core::hemlock::Hemlock;
///
/// let m = DynMutex::new(boxed_try::<Hemlock>(), 0u64);
/// *m.lock() += 1;
/// assert_eq!(*m.lock(), 1);
/// assert_eq!(m.meta().name, "Hemlock");
/// ```
pub struct DynMutex<T: ?Sized> {
    raw: Box<dyn DynLock>,
    data: UnsafeCell<T>,
}

// Safety: the boxed lock serializes access to `data`; DynLock is Send+Sync.
unsafe impl<T: ?Sized + Send> Send for DynMutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for DynMutex<T> {}

impl<T> DynMutex<T> {
    /// Creates an unlocked mutex over a runtime lock handle (usually built
    /// by the catalog: `hemlock_locks::catalog::dyn_lock(View::Lock, "hemlock")`).
    pub fn new(lock: Box<dyn DynLock>, value: T) -> Self {
        Self {
            raw: lock,
            data: UnsafeCell::new(value),
        }
    }

    /// Statically-typed convenience constructor (no trylock path unless `L:
    /// RawTryLock` — prefer [`DynMutex::of_try`] when it is).
    pub fn of<L: RawLock + 'static>(value: T) -> Self {
        Self::new(boxed::<L>(), value)
    }

    /// Statically-typed constructor preserving the trylock capability.
    pub fn of_try<L: RawTryLock + 'static>(value: T) -> Self {
        Self::new(boxed_try::<L>(), value)
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> DynMutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> DynMutexGuard<'_, T> {
        self.raw.lock();
        DynMutexGuard {
            mutex: self,
            _not_send: PhantomData,
        }
    }

    /// Attempts the lock without waiting. [`TryLockError::Unsupported`]
    /// when the chosen algorithm has no trylock (check
    /// [`LockMeta::try_lock`] to know in advance).
    pub fn try_lock(&self) -> Result<DynMutexGuard<'_, T>, TryLockError> {
        match self.raw.try_lock()? {
            true => Ok(DynMutexGuard {
                mutex: self,
                _not_send: PhantomData,
            }),
            false => Err(TryLockError::WouldBlock),
        }
    }

    /// Attempts the lock with a deadline: [`TryLockError::TimedOut`] when
    /// `timeout` elapses first (the waiter has withdrawn — it can never be
    /// granted the lock afterwards), [`TryLockError::Unsupported`] when the
    /// algorithm has no abortable path (check [`LockMeta`]'s `abortable`
    /// bit to know in advance).
    pub fn try_lock_for(&self, timeout: Duration) -> Result<DynMutexGuard<'_, T>, TryLockError> {
        match self.raw.try_lock_for(timeout)? {
            true => Ok(DynMutexGuard {
                mutex: self,
                _not_send: PhantomData,
            }),
            false => Err(TryLockError::TimedOut),
        }
    }

    /// Acquires for *reading*, as [`Mutex::read`](crate::Mutex::read): any
    /// number of read guards coexist when the algorithm has a shared mode
    /// ([`LockMeta`]'s `rw` bit); otherwise this is [`DynMutex::lock`]
    /// with a read-only guard. `T: Sync` because concurrent readers share
    /// `&T` across threads.
    ///
    /// ```
    /// use hemlock_core::dynlock::{boxed_try, DynMutex};
    /// use hemlock_core::hemlock::Hemlock;
    ///
    /// let m = DynMutex::new(boxed_try::<Hemlock>(), vec![1, 2, 3]);
    /// assert_eq!(m.read().len(), 3); // shared guard: Deref only
    /// m.lock().push(4); // exclusive guard: DerefMut
    /// assert!(!m.meta().rw); // Hemlock has no shared mode: reads serialize
    /// ```
    pub fn read(&self) -> DynReadGuard<'_, T>
    where
        T: Sync,
    {
        self.raw.read_lock();
        DynReadGuard {
            mutex: self,
            _not_send: PhantomData,
        }
    }

    /// Attempts a read acquisition with a deadline, with the errors of
    /// [`DynMutex::try_lock_for`]: a timed-out reader has withdrawn.
    pub fn try_read_for(&self, timeout: Duration) -> Result<DynReadGuard<'_, T>, TryLockError>
    where
        T: Sync,
    {
        match self.raw.try_read_lock_for(timeout)? {
            true => Ok(DynReadGuard {
                mutex: self,
                _not_send: PhantomData,
            }),
            false => Err(TryLockError::TimedOut),
        }
    }

    /// The chosen algorithm's descriptor.
    pub fn meta(&self) -> LockMeta {
        self.raw.meta()
    }

    /// The underlying runtime lock handle.
    pub fn raw(&self) -> &dyn DynLock {
        &*self.raw
    }

    /// Mutable access without locking (the `&mut` proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for DynMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Ok(g) => f
                .debug_struct("DynMutex")
                .field("lock", &self.meta().name)
                .field("data", &&*g)
                .finish(),
            Err(_) => write!(f, "DynMutex {{ <{}> }}", self.meta().name),
        }
    }
}

/// RAII guard over a [`DynMutex`]; the lock is released on drop.
///
/// `!Send` for the same reason as [`crate::MutexGuard`]: queue locks and
/// Hemlock's Grant protocol require the unlock to run on the acquiring
/// thread.
pub struct DynMutexGuard<'a, T: ?Sized> {
    mutex: &'a DynMutex<T>,
    _not_send: PhantomData<*mut ()>,
}

impl<T: ?Sized> Deref for DynMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // Safety: we hold the lock.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized> DerefMut for DynMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // Safety: we hold the lock exclusively.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized> Drop for DynMutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        // Safety: this guard proves the current thread holds the lock, and
        // the guard is !Send so we are on the acquiring thread.
        unsafe { self.mutex.raw.unlock() }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for DynMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized + fmt::Display> fmt::Display for DynMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Shared RAII guard over a [`DynMutex`], returned by [`DynMutex::read`];
/// releases the read mode on drop. `Deref` only, and `!Send` like
/// [`DynMutexGuard`]: reader-writer algorithms track the acquisition in
/// per-thread state (e.g. a thread-striped read indicator).
pub struct DynReadGuard<'a, T: ?Sized> {
    mutex: &'a DynMutex<T>,
    _not_send: PhantomData<*mut ()>,
}

impl<T: ?Sized> Deref for DynReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // Safety: we hold the lock in read mode; writers are excluded, and
        // every other holder also only has `&T`.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized> Drop for DynReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        // Safety: this guard proves the current thread holds the lock in
        // read mode, and the guard is !Send so we are on that thread.
        unsafe { self.mutex.raw.read_unlock() }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for DynReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hemlock::Hemlock;

    #[test]
    fn dyn_mutex_counter_under_contention() {
        let m = DynMutex::of_try::<Hemlock>(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..5_000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(m.into_inner(), 20_000);
    }

    #[test]
    fn meta_flows_through_the_vtable() {
        let m = DynMutex::of_try::<Hemlock>(());
        assert_eq!(m.meta(), Hemlock::META);
        assert_eq!(m.meta().name, "Hemlock");
        assert!(m.meta().try_lock);
    }

    #[test]
    fn try_lock_would_block_while_held() {
        let m = DynMutex::of_try::<Hemlock>(7);
        let g = m.lock();
        assert_eq!(m.try_lock().unwrap_err(), TryLockError::WouldBlock);
        drop(g);
        assert_eq!(*m.try_lock().expect("uncontended"), 7);
    }

    #[test]
    fn plain_adapter_reports_unsupported() {
        let m = DynMutex::of::<Hemlock>(());
        assert_eq!(m.try_lock().unwrap_err(), TryLockError::Unsupported);
        assert_eq!(
            m.try_lock_for(Duration::from_millis(1))
                .map(|_| ())
                .unwrap_err(),
            TryLockError::Unsupported
        );
        // The descriptor must agree with the handle's actual capability,
        // even though the underlying type is trylock-capable.
        assert!(!m.meta().try_lock);
        assert!(!m.meta().abortable);
        // The blocking path is unaffected.
        drop(m.lock());
    }

    #[test]
    fn read_on_an_exclusive_handle_degrades_to_exclusive() {
        let m = DynMutex::of_try::<Hemlock>(5);
        assert!(!m.meta().rw);
        let r = m.read();
        assert_eq!(*r, 5);
        // An exclusive algorithm's read mode excludes everyone.
        assert_eq!(m.try_lock().unwrap_err(), TryLockError::WouldBlock);
        assert_eq!(
            m.try_read_for(Duration::from_millis(5))
                .map(|_| ())
                .unwrap_err(),
            TryLockError::TimedOut
        );
        drop(r);
        assert_eq!(*m.try_read_for(Duration::from_millis(5)).expect("free"), 5);
    }

    #[test]
    fn try_lock_for_times_out_then_reacquires() {
        let m = DynMutex::of_try::<Hemlock>(5);
        assert!(m.meta().abortable);
        // Uncontended: acquires immediately.
        drop(m.try_lock_for(Duration::from_millis(10)).expect("free"));
        // Held: must give up within the deadline and report TimedOut.
        let g = m.lock();
        let t0 = std::time::Instant::now();
        assert_eq!(
            m.try_lock_for(Duration::from_millis(20))
                .map(|_| ())
                .unwrap_err(),
            TryLockError::TimedOut
        );
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(20), "{waited:?}");
        drop(g);
        // The aborted attempt left no state: the lock is reusable.
        assert_eq!(*m.try_lock_for(Duration::from_millis(10)).expect("free"), 5);
    }

    #[test]
    fn guard_releases_on_panic() {
        let m = DynMutex::of_try::<Hemlock>(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = m.lock();
            *g = 1;
            panic!("inside critical section");
        }));
        assert!(r.is_err());
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn debug_shows_lock_name() {
        let m = DynMutex::of_try::<Hemlock>(3);
        assert!(format!("{m:?}").contains('3'));
        let g = m.lock();
        assert!(format!("{m:?}").contains("Hemlock"));
        drop(g);
    }
}
