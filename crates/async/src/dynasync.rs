//! The object-safe asynchronous layer: [`DynAsyncLock`] and
//! [`DynAsyncMutex`].
//!
//! The synchronous stack selects algorithms at runtime through
//! `DynLock`/`DynMutex`; this module is the same boundary for the async
//! subsystem. Object safety falls out of the queue design for free: the
//! waiting state lives in the shared [`WaitNode`], so every operation is a
//! plain method taking `&self` — no generic futures in the trait, no boxed
//! futures per poll. [`crate::catalog::dyn_async_lock`] builds
//! `Box<dyn DynAsyncLock>` handles from `async.*` keys exactly as the lock
//! catalog builds `Box<dyn DynLock>` from the others.

use crate::queue::{WaitNode, WakerQueue};
use core::cell::UnsafeCell;
use core::fmt;
use core::future::Future;
use core::marker::PhantomData;
use core::ops::{Deref, DerefMut};
use core::pin::Pin;
use core::task::{Context, Poll};
use hemlock_core::meta::LockMeta;
use hemlock_core::raw::RawTryLock;
use std::sync::Arc;

/// An object-safe asynchronous lock: the poll-shaped operations of
/// [`WakerQueue`] behind a vtable.
///
/// # Safety
///
/// Implementations must uphold the [`WakerQueue`] contract: `try_acquire`
/// / a `Ready` from `poll_acquire` confer the requested mode; `release`
/// releases it with hand-off; `cancel` withdraws a node so it can never be
/// granted afterwards (or passes a raced grant on); mutual exclusion holds
/// between an exclusive grant and its release, and shared grants exclude
/// exclusive ones. `meta()` must faithfully describe the guard algorithm.
pub unsafe trait DynAsyncLock: Send + Sync {
    /// The queue-guard algorithm's descriptor.
    fn meta(&self) -> LockMeta;

    /// Non-blocking acquisition attempt of the given mode (never barges
    /// past parked waiters).
    fn try_acquire(&self, exclusive: bool) -> bool;

    /// One poll step of an asynchronous acquisition; see
    /// [`WakerQueue::poll_acquire`].
    fn poll_acquire(
        &self,
        exclusive: bool,
        slot: &mut Option<Arc<WaitNode>>,
        cx: &mut Context<'_>,
    ) -> Poll<()>;

    /// Withdraws a pending (or raced-granted) node; see
    /// [`WakerQueue::cancel`].
    fn cancel(&self, node: &Arc<WaitNode>);

    /// Releases one holder of the given mode with direct hand-off.
    ///
    /// # Safety
    ///
    /// The caller must own the mode being released. Any thread may call
    /// this (the async guards rely on it).
    unsafe fn release(&self, exclusive: bool);

    /// Number of parked waiters (diagnostics and conformance tests).
    fn waiters(&self) -> usize;

    /// True when nothing holds and nothing is queued — the post-abort
    /// invariant the conformance suite asserts.
    fn is_idle(&self) -> bool;
}

// Safety: forwards directly to WakerQueue, which upholds the contract.
unsafe impl<L: RawTryLock> DynAsyncLock for WakerQueue<L> {
    fn meta(&self) -> LockMeta {
        WakerQueue::meta(self)
    }
    fn try_acquire(&self, exclusive: bool) -> bool {
        WakerQueue::try_acquire(self, exclusive)
    }
    fn poll_acquire(
        &self,
        exclusive: bool,
        slot: &mut Option<Arc<WaitNode>>,
        cx: &mut Context<'_>,
    ) -> Poll<()> {
        WakerQueue::poll_acquire(self, exclusive, slot, cx)
    }
    fn cancel(&self, node: &Arc<WaitNode>) {
        WakerQueue::cancel(self, node)
    }
    unsafe fn release(&self, exclusive: bool) {
        WakerQueue::release(self, exclusive)
    }
    fn waiters(&self) -> usize {
        WakerQueue::waiters(self)
    }
    fn is_idle(&self) -> bool {
        WakerQueue::is_idle(self)
    }
}

/// Boxes a fresh waker queue guarded by `L` as a runtime async-lock handle.
pub fn boxed_async<L: RawTryLock + 'static>() -> Box<dyn DynAsyncLock> {
    Box::new(WakerQueue::<L>::new())
}

/// An asynchronous mutex with the queue-guard algorithm chosen at
/// **runtime** — the async counterpart of `hemlock_core::DynMutex`.
///
/// ```
/// use hemlock_async::dynasync::{boxed_async, DynAsyncMutex};
/// use hemlock_core::hemlock::Hemlock;
/// use hemlock_harness::executor::block_on;
///
/// let m = DynAsyncMutex::new(boxed_async::<Hemlock>(), 0u64);
/// block_on(async { *m.lock().await += 1 });
/// assert_eq!(m.meta().name, "Hemlock");
/// assert_eq!(m.into_inner(), 1);
/// ```
pub struct DynAsyncMutex<T: ?Sized> {
    raw: Box<dyn DynAsyncLock>,
    data: UnsafeCell<T>,
}

// Safety: as for AsyncMutex — the boxed queue serializes access.
unsafe impl<T: ?Sized + Send> Send for DynAsyncMutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for DynAsyncMutex<T> {}

impl<T> DynAsyncMutex<T> {
    /// Creates an unlocked mutex over a runtime handle (usually built by
    /// the catalog: `hemlock_async::catalog::dyn_async_lock("async.hemlock")`).
    pub fn new(lock: Box<dyn DynAsyncLock>, value: T) -> Self {
        Self {
            raw: lock,
            data: UnsafeCell::new(value),
        }
    }

    /// Statically-typed convenience constructor.
    pub fn of<L: RawTryLock + 'static>(value: T) -> Self {
        Self::new(boxed_async::<L>(), value)
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> DynAsyncMutex<T> {
    /// Acquires the lock asynchronously; the future is cancel-safe
    /// (dropping it withdraws the pending acquisition).
    pub fn lock(&self) -> DynAsyncLockFuture<'_, T> {
        DynAsyncLockFuture {
            mutex: self,
            node: None,
            done: false,
        }
    }

    /// Attempts the lock without waiting (no barging past parked waiters).
    pub fn try_lock(&self) -> Option<DynAsyncMutexGuard<'_, T>> {
        self.raw.try_acquire(true).then(|| DynAsyncMutexGuard {
            mutex: self,
            _marker: PhantomData,
        })
    }

    /// The chosen queue-guard algorithm's descriptor.
    pub fn meta(&self) -> LockMeta {
        self.raw.meta()
    }

    /// The underlying runtime handle.
    pub fn raw(&self) -> &dyn DynAsyncLock {
        &*self.raw
    }

    /// Number of tasks currently parked on this mutex (diagnostics).
    pub fn waiters(&self) -> usize {
        self.raw.waiters()
    }

    /// Mutable access without locking (the `&mut` proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for DynAsyncMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f
                .debug_struct("DynAsyncMutex")
                .field("lock", &self.meta().name)
                .field("data", &&*g)
                .finish(),
            None => write!(f, "DynAsyncMutex {{ <{}> }}", self.meta().name),
        }
    }
}

/// The future returned by [`DynAsyncMutex::lock`].
pub struct DynAsyncLockFuture<'a, T: ?Sized> {
    mutex: &'a DynAsyncMutex<T>,
    node: Option<Arc<WaitNode>>,
    done: bool,
}

impl<'a, T: ?Sized> Future for DynAsyncLockFuture<'a, T> {
    type Output = DynAsyncMutexGuard<'a, T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = Pin::into_inner(self);
        assert!(!this.done, "DynAsyncLockFuture polled after completion");
        match this.mutex.raw.poll_acquire(true, &mut this.node, cx) {
            Poll::Ready(()) => {
                this.done = true;
                Poll::Ready(DynAsyncMutexGuard {
                    mutex: this.mutex,
                    _marker: PhantomData,
                })
            }
            Poll::Pending => Poll::Pending,
        }
    }
}

impl<T: ?Sized> Drop for DynAsyncLockFuture<'_, T> {
    fn drop(&mut self) {
        if let Some(node) = self.node.take() {
            self.mutex.raw.cancel(&node);
        }
    }
}

/// RAII guard over a [`DynAsyncMutex`]; `Send`, releases with hand-off on
/// drop on whichever thread that happens.
pub struct DynAsyncMutexGuard<'a, T: ?Sized> {
    mutex: &'a DynAsyncMutex<T>,
    /// Auto-trait marker: behaves like `&mut T`.
    _marker: PhantomData<&'a mut T>,
}

impl<T: ?Sized> Deref for DynAsyncMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // Safety: we hold the lock.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized> DerefMut for DynAsyncMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // Safety: we hold the lock exclusively.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized> Drop for DynAsyncMutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        // Safety: this guard proves ownership of the exclusive mode.
        unsafe { self.mutex.raw.release(true) };
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for DynAsyncMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemlock_core::hemlock::Hemlock;
    use hemlock_core::RawLock;
    use hemlock_harness::executor::{block_on, TaskPool};

    #[test]
    fn dyn_mutex_counter_under_task_contention() {
        let pool = TaskPool::new(3);
        let m = Arc::new(DynAsyncMutex::of::<Hemlock>(0u64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                pool.spawn(async move {
                    for _ in 0..250 {
                        *m.lock().await += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(block_on(async { *m.lock().await }), 2_000);
        assert!(m.raw().is_idle());
    }

    #[test]
    fn meta_flows_through_the_vtable() {
        let m = DynAsyncMutex::of::<Hemlock>(());
        assert_eq!(m.meta(), Hemlock::META);
        assert!(m.meta().asyncable);
    }
}
