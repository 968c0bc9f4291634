//! Shared-mode tests of the dynamic layer: the read paths that
//! [`DynLock`](crate::DynLock) and [`DynMutex`](crate::DynMutex) carry for
//! reader-writer algorithms, exercised over a minimal test-only RW lock.

#[cfg(test)]
mod tests {
    use crate::dynlock::{boxed_try, DynAdapter, DynLock, DynMutex, TryLockError};
    use crate::meta::LockMeta;
    use crate::raw::{RawLock, RawRwLock, RawTryLock};
    use crate::spin::SpinWait;
    use core::sync::atomic::{AtomicIsize, Ordering};
    use core::time::Duration;

    /// Minimal test-only RW spin lock (writer = -1, readers = count). The
    /// real implementations live in `hemlock_locks::rw`; this one only
    /// exercises the dynamic layer's plumbing.
    #[derive(Default)]
    struct TestRw {
        state: AtomicIsize,
    }

    unsafe impl RawLock for TestRw {
        const META: LockMeta = {
            let mut m = LockMeta::base("TestRw", "test");
            m.rw = true;
            m.try_lock = true;
            m.abortable = true;
            m
        };
        fn lock(&self) {
            let mut spin = SpinWait::new();
            while self
                .state
                .compare_exchange_weak(0, -1, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                spin.wait();
            }
        }
        unsafe fn unlock(&self) {
            self.state.store(0, Ordering::Release);
        }
        fn read_lock(&self) {
            let mut spin = SpinWait::new();
            loop {
                let s = self.state.load(Ordering::Relaxed);
                if s >= 0
                    && self
                        .state
                        .compare_exchange_weak(s, s + 1, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                {
                    return;
                }
                spin.wait();
            }
        }
        unsafe fn read_unlock(&self) {
            self.state.fetch_sub(1, Ordering::AcqRel);
        }
    }
    unsafe impl RawTryLock for TestRw {
        fn try_lock(&self) -> bool {
            self.state
                .compare_exchange(0, -1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        }
        fn try_read_lock_until(&self, deadline: std::time::Instant) -> bool {
            let mut spin = SpinWait::new();
            loop {
                let s = self.state.load(Ordering::Relaxed);
                if s >= 0
                    && self
                        .state
                        .compare_exchange_weak(s, s + 1, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                {
                    return true;
                }
                if std::time::Instant::now() >= deadline {
                    return false;
                }
                spin.wait();
            }
        }
    }
    unsafe impl RawRwLock for TestRw {}

    #[test]
    fn readers_coexist_writers_exclude() {
        let m = DynMutex::of::<TestRw>(7u64);
        let r1 = m.read();
        let r2 = m.read(); // a second reader must be admitted immediately
        assert_eq!((*r1, *r2), (7, 7));
        drop((r1, r2));
        *m.lock() += 1;
        assert_eq!(*m.read(), 8);
    }

    #[test]
    fn concurrent_reader_writer_mix_is_consistent() {
        let m = DynMutex::of::<TestRw>(0u64);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..2_000 {
                        *m.lock() += 1;
                    }
                });
            }
            for _ in 0..2 {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..2_000 {
                        let g = m.read();
                        let a = *g;
                        std::hint::spin_loop();
                        // Writers are excluded while we hold the guard.
                        assert_eq!(a, *g);
                    }
                });
            }
        });
        assert_eq!(m.into_inner(), 4_000);
    }

    #[test]
    fn meta_flows_through_the_vtable() {
        let m = DynMutex::of_try::<TestRw>(());
        assert_eq!(m.meta(), TestRw::META);
        assert!(m.meta().rw);
        assert!(format!("{m:?}").contains("TestRw"));
    }

    #[test]
    fn with_meta_patches_the_display_name() {
        let mut patched = TestRw::META;
        patched.name = "RW-Patched";
        let lock: Box<dyn DynLock> = Box::new(DynAdapter::<TestRw>::with_meta(patched));
        assert_eq!(lock.meta().name, "RW-Patched");
        assert!(lock.meta().rw && !lock.meta().try_lock);
        let m = DynMutex::new(lock, 1u32);
        assert_eq!(*m.read(), 1);
    }

    #[test]
    fn plain_adapter_reports_timed_unsupported() {
        let m = DynMutex::of::<TestRw>(0u8);
        assert_eq!(
            m.try_read_for(Duration::from_millis(1))
                .map(|_| ())
                .unwrap_err(),
            TryLockError::Unsupported
        );
        assert_eq!(
            m.try_lock_for(Duration::from_millis(1))
                .map(|_| ())
                .unwrap_err(),
            TryLockError::Unsupported
        );
    }

    #[test]
    fn timed_adapter_reads_share_and_writes_time_out() {
        let m = DynMutex::new(boxed_try::<TestRw>(), 7u64);
        // Timed readers coexist with a blocking reader.
        let held = m.read();
        let r = m
            .try_read_for(Duration::from_millis(20))
            .expect("reader must be admitted alongside a reader");
        assert_eq!((*held, *r), (7, 7));
        // A timed writer must give up while readers are in.
        let t0 = std::time::Instant::now();
        assert_eq!(
            m.try_lock_for(Duration::from_millis(15))
                .map(|_| ())
                .unwrap_err(),
            TryLockError::TimedOut
        );
        assert!(t0.elapsed() >= Duration::from_millis(15));
        drop((held, r));
        // Abort left no state: a timed writer now gets in, and while it
        // holds the lock a timed reader times out.
        let w = m.try_lock_for(Duration::from_millis(20)).expect("free");
        assert_eq!(
            m.try_read_for(Duration::from_millis(10))
                .map(|_| ())
                .unwrap_err(),
            TryLockError::TimedOut
        );
        drop(w);
        assert_eq!(*m.try_read_for(Duration::from_millis(5)).expect("free"), 7);
    }

    #[test]
    fn write_guard_releases_on_panic() {
        let m = DynMutex::of::<TestRw>(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = m.lock();
            *g = 1;
            panic!("inside critical section");
        }));
        assert!(r.is_err());
        assert_eq!(*m.read(), 1);
    }
}
