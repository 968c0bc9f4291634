//! The database: sharded memtable + immutable runs behind a central mutex.
//!
//! The locking discipline is a two-tier refinement of the coarse-grained
//! scheme Figure 8 measures. LevelDB protects everything with one
//! `DBImpl::Mutex`; here the *keyed* fast paths (memtable reads and writes)
//! take only the owning shard's lock in the sharded [`Memtable`], while the
//! central mutex is reserved for **structural** state — the immutable run
//! list, freeze, and compaction:
//!
//! - `put`: one shard lock for the insert; the central mutex is touched
//!   only when the byte budget trips a freeze.
//! - `get`: one shard lock **in read mode** to probe the memtable; on a
//!   miss, the central mutex *briefly* — also in read mode — to snapshot
//!   `Arc` handles to the runs, which are then searched outside any lock —
//!   exactly LevelDB's `Get` shape. With an RW-capable lock algorithm
//!   (`LockMeta::rw`, e.g. `hemlock_locks::rw::HemlockRw` or any `rw.*` catalog
//!   entry) point reads of a hot shard and concurrent run snapshots are
//!   admitted together, so the read-mostly workload no longer serializes;
//!   exclusive-only algorithms degrade to the previous behaviour.
//! - `try_get` / `try_put` / `try_delete`: **bounded-wait** variants that
//!   return [`WouldBlock`] instead of stalling when a shard lock or the
//!   central mutex stays busy past the caller's timeout (a freeze or
//!   compaction in progress); `try_put` additionally defers a tripped
//!   freeze when the central mutex is busy rather than waiting behind it.
//! - freeze/compaction: the central mutex for the whole transition. The
//!   memtable drains one shard at a time *while the central mutex is
//!   held*; a reader that misses a just-drained shard must acquire the
//!   central mutex for its run snapshot, which blocks until the new run is
//!   installed — so no key is ever invisible in both tiers.
//!
//! Both tiers use the same lock algorithm `L`, so swapping `--lock` swaps
//! every lock in the system, standing in for the paper's process-wide
//! `LD_PRELOAD` interposition.

use crate::memtable::{Memtable, Slot};
use crate::op::{KvOp, KvResult};
use crate::run::Run;
use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicU64, Ordering};
use core::task::Poll;
use hemlock_core::raw::{RawLock, RawTryLock};
use hemlock_core::wakerset::WakerSet;
use hemlock_shard::TableStats;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A bounded-wait operation gave up: the lock it needed (a memtable shard
/// or the central run-list mutex) stayed busy — typically behind a freeze
/// or compaction — past the caller's timeout. Nothing was read or written;
/// retry, back off, or fall back to the blocking API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WouldBlock;

impl core::fmt::Display for WouldBlock {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("operation would block past its timeout")
    }
}

impl std::error::Error for WouldBlock {}

/// The workspace metrics registry, when collection is enabled — `None`
/// reduces every `minikv.*` hook below to one untaken branch.
#[inline]
fn obs() -> Option<&'static hemlock_obs::Registry> {
    hemlock_obs::enabled().then(hemlock_obs::registry)
}

/// Elapsed nanoseconds since `t0`, saturating into the histogram domain.
#[inline]
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Tuning knobs.
#[derive(Clone, Debug)]
pub struct Options {
    /// Freeze the memtable into a run once it holds roughly this many bytes.
    pub memtable_bytes: usize,
    /// Merge the two oldest runs once more than this many accumulate.
    pub max_runs: usize,
    /// Shard locks striping the memtable; `0` picks a machine-sized
    /// power of two (see `hemlock_shard::ShardedTable::new`).
    pub mem_shards: usize,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            memtable_bytes: 1 << 20,
            max_runs: 8,
            mem_shards: 0,
        }
    }
}

/// Operation counters (updated with relaxed atomics, readable anytime).
#[derive(Debug, Default)]
pub struct DbStats {
    /// Completed point lookups.
    pub gets: AtomicU64,
    /// Completed writes (including deletes).
    pub puts: AtomicU64,
    /// Memtable freezes.
    pub freezes: AtomicU64,
    /// Run merges.
    pub compactions: AtomicU64,
    /// Runs a merge copied because a reader's snapshot still held them.
    pub compaction_copies: AtomicU64,
}

/// A LevelDB-shaped KV store generic over the lock algorithm used for both
/// the memtable shards and the central (structural) mutex.
///
/// ```
/// use hemlock_minikv::Db;
/// use hemlock_core::hemlock::Hemlock;
///
/// let db: Db<Hemlock> = Db::new(Default::default());
/// db.put(b"answer", b"42");
/// assert_eq!(db.get(b"answer"), Some(b"42".to_vec()));
/// db.delete(b"answer");
/// assert_eq!(db.get(b"answer"), None);
/// ```
pub struct Db<L: RawLock> {
    /// Central mutex: guards `runs` and serializes freeze/compaction.
    mu: L,
    /// Immutable runs, newest first. Only touched while holding `mu`.
    runs: UnsafeCell<Vec<Arc<Run>>>,
    /// Sharded active memtable; synchronizes itself per shard.
    mem: Memtable<L>,
    /// Parked asynchronous waiters of the central mutex. Every guard
    /// release notifies (register → re-try → park on the waiter side), so
    /// an `*_async` operation can await a freeze or compaction without a
    /// lost wakeup — see [`hemlock_core::wakerset::WakerSet`].
    mu_wakers: WakerSet,
    stats: DbStats,
    opts: Options,
}

// Safety: `runs` is only touched while holding `mu`; `Memtable` is Sync.
unsafe impl<L: RawLock> Send for Db<L> {}
unsafe impl<L: RawLock> Sync for Db<L> {}

/// RAII critical section over the central mutex (the run list).
struct DbGuard<'a, L: RawLock> {
    db: &'a Db<L>,
    /// `!Send`: queue locks and the Grant protocol require the unlock to
    /// run on the acquiring thread.
    _not_send: core::marker::PhantomData<*mut ()>,
}

impl<'a, L: RawLock> DbGuard<'a, L> {
    fn lock(db: &'a Db<L>) -> Self {
        db.mu.lock();
        if let Some(reg) = obs() {
            reg.minikv_acquires.inc();
        }
        Self {
            db,
            _not_send: core::marker::PhantomData,
        }
    }

    /// Non-blocking constructor: `None` when the central mutex is busy
    /// (e.g. a compaction is running).
    fn try_lock(db: &'a Db<L>) -> Option<Self>
    where
        L: RawTryLock,
    {
        db.mu.try_lock().then(|| {
            if let Some(reg) = obs() {
                reg.minikv_acquires.inc();
            }
            Self {
                db,
                _not_send: core::marker::PhantomData,
            }
        })
    }

    #[allow(clippy::mut_from_ref)]
    fn runs(&mut self) -> &mut Vec<Arc<Run>> {
        // Safety: we hold the central mutex.
        unsafe { &mut *self.db.runs.get() }
    }
}

impl<L: RawLock> Drop for DbGuard<'_, L> {
    fn drop(&mut self) {
        // Safety: this guard acquired the lock on this thread.
        unsafe { self.db.mu.unlock() };
        // Release-then-notify: async waiters of the central mutex (e.g. a
        // `get_async` behind this freeze) are woken only after the unlock
        // is visible, so their re-try cannot miss it.
        self.db.mu_wakers.notify_all();
    }
}

/// Shared critical section over the central mutex: a read-mode view of the
/// run list. With an RW-capable `L` ([`hemlock_core::LockMeta`]'s `rw`
/// bit, e.g. `hemlock_locks::rw::HemlockRw`), concurrent readers snapshot run
/// handles together and only structural transitions (freeze, compaction)
/// exclude them; with an exclusive-only `L` this degrades to [`DbGuard`]
/// semantics, preserving the coarse contention Figure 8 measures.
struct DbReadGuard<'a, L: RawLock> {
    db: &'a Db<L>,
    /// `!Send`, like every guard in this workspace: `read_unlock` must run
    /// on the acquiring thread (the RW read-indicator stripe is chosen by
    /// thread-local state).
    _not_send: core::marker::PhantomData<*mut ()>,
}

impl<'a, L: RawLock> DbReadGuard<'a, L> {
    fn lock(db: &'a Db<L>) -> Self {
        db.mu.read_lock();
        if let Some(reg) = obs() {
            reg.minikv_acquires.inc();
        }
        Self {
            db,
            _not_send: core::marker::PhantomData,
        }
    }

    /// Non-blocking constructor: one shared-mode attempt
    /// ([`hemlock_core::RawTryLock::try_read_lock`]); `None` when the
    /// central mutex is busy right now. The async read path polls this.
    fn try_lock(db: &'a Db<L>) -> Option<Self>
    where
        L: RawTryLock,
    {
        db.mu.try_read_lock().then(|| {
            if let Some(reg) = obs() {
                reg.minikv_acquires.inc();
            }
            Self {
                db,
                _not_send: core::marker::PhantomData,
            }
        })
    }

    /// Timed constructor: `None` once `deadline` passes (the waiter has
    /// withdrawn; with an RW-capable abortable `L` it genuinely leaves the
    /// read indicator).
    fn try_lock_until(db: &'a Db<L>, deadline: Instant) -> Option<Self>
    where
        L: RawTryLock,
    {
        db.mu.try_read_lock_until(deadline).then(|| {
            if let Some(reg) = obs() {
                reg.minikv_acquires.inc();
            }
            Self {
                db,
                _not_send: core::marker::PhantomData,
            }
        })
    }

    fn runs(&self) -> &Vec<Arc<Run>> {
        // Safety: we hold the central mutex in read mode — mutators
        // (freeze/compaction) hold it exclusively, and every concurrent
        // read-mode holder only takes `&` references.
        unsafe { &*self.db.runs.get() }
    }
}

impl<L: RawLock> Drop for DbReadGuard<'_, L> {
    fn drop(&mut self) {
        // Safety: this guard read-acquired the lock on this thread.
        unsafe { self.db.mu.read_unlock() };
        self.db.mu_wakers.notify_all();
    }
}

impl<L: RawLock> Db<L> {
    /// Creates an empty database.
    pub fn new(opts: Options) -> Self {
        Self {
            mu: L::default(),
            runs: UnsafeCell::new(Vec::new()),
            mem: Memtable::with_shards(opts.mem_shards),
            mu_wakers: WakerSet::new(),
            stats: DbStats::default(),
            opts,
        }
    }

    /// Operation counters.
    pub fn stats(&self) -> &DbStats {
        &self.stats
    }

    /// Name of the lock algorithm (for benchmark reporting).
    pub fn lock_name(&self) -> &'static str {
        L::META.name
    }

    /// Per-shard contention census of the memtable locks (diagnostics).
    pub fn memtable_stats(&self) -> TableStats {
        self.mem.shard_stats()
    }

    /// Number of shard locks striping the memtable.
    pub fn memtable_shards(&self) -> usize {
        self.mem.shards()
    }

    fn write_slot(&self, key: &[u8], value: Slot) {
        let t0 = obs().map(|_| Instant::now());
        let deleting = value.is_none();
        // Fast path: one shard lock, no central mutex.
        self.mem.insert(key, value);
        if self.mem.approximate_bytes() >= self.opts.memtable_bytes {
            self.freeze_and_maybe_compact();
        }
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        if let (Some(reg), Some(t0)) = (obs(), t0) {
            if deleting {
                reg.minikv_deletes.inc();
            } else {
                reg.minikv_puts.inc();
            }
            reg.minikv_put_ns.record(elapsed_ns(t0));
        }
    }

    /// Structural transition under the central mutex: drain the memtable
    /// into a new immutable run; fold the two oldest runs when too many
    /// accumulate. Racing writers that also saw the budget trip re-check
    /// under the mutex and back off.
    fn freeze_and_maybe_compact(&self) {
        let mut g = DbGuard::lock(self);
        self.freeze_locked(&mut g);
    }

    /// The freeze/compaction body, run while `g` holds the central mutex.
    fn freeze_locked(&self, g: &mut DbGuard<'_, L>) {
        if self.mem.approximate_bytes() < self.opts.memtable_bytes {
            return; // another thread froze first
        }
        let drained = self.mem.drain();
        if drained.is_empty() {
            return;
        }
        let runs = g.runs();
        runs.insert(0, Arc::new(Run::from_entries(drained)));
        self.stats.freezes.fetch_add(1, Ordering::Relaxed);
        if let Some(reg) = obs() {
            reg.minikv_freezes.inc();
        }
        if runs.len() > self.opts.max_runs {
            // Fold the two oldest runs together (simplified foreground
            // compaction; LevelDB does this on a background thread). The
            // merge moves them, unless a snapshot holds one (`take_run`).
            let older = self.take_run(runs.pop().expect("len > max_runs >= 1"));
            let newer = self.take_run(runs.pop().expect("len > max_runs >= 1"));
            runs.push(Arc::new(Run::merge(newer, older)));
            self.stats.compactions.fetch_add(1, Ordering::Relaxed);
            if let Some(reg) = obs() {
                reg.minikv_compactions.inc();
            }
        }
    }

    /// Takes a run out of its `Arc` for a merge: moved when the run list
    /// held the last handle, else copied (and counted), so a reader's
    /// snapshot keeps answering from its own. No new snapshot can start
    /// meanwhile: the caller holds the central mutex.
    fn take_run(&self, run: Arc<Run>) -> Run {
        Arc::try_unwrap(run).unwrap_or_else(|held| {
            self.stats.compaction_copies.fetch_add(1, Ordering::Relaxed);
            if let Some(reg) = obs() {
                reg.minikv_compaction_copies.inc();
            }
            Run::clone(&held)
        })
    }

    /// Inserts or overwrites a key.
    pub fn put(&self, key: &[u8], value: &[u8]) {
        self.write_slot(key, Some(value.into()));
    }

    /// Deletes a key (tombstone write).
    pub fn delete(&self, key: &[u8]) {
        self.write_slot(key, None);
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let t0 = obs().map(|_| Instant::now());
        // Tier 1: the memtable, under the owning shard's lock only. The
        // probe order (memtable before run snapshot) matters: a key can
        // migrate memtable→runs during a freeze, but the freeze holds the
        // central mutex until the run is installed, so a tier-1 miss
        // always finds the key in the tier-2 snapshot taken afterwards.
        if let Some(value) = self.mem.get_vec(key) {
            self.stats.gets.fetch_add(1, Ordering::Relaxed);
            if let (Some(reg), Some(t0)) = (obs(), t0) {
                reg.minikv_gets.inc();
                reg.minikv_get_ns.record(elapsed_ns(t0));
            }
            return value;
        }
        // Tier 2: snapshot run handles under the central mutex in *read*
        // mode (shared among concurrent getters when the lock is
        // RW-capable), search outside it — LevelDB's `Get` shape.
        let snapshot: Vec<Arc<Run>> = DbReadGuard::lock(self).runs().clone();
        let mut result = None;
        for run in &snapshot {
            if let Some(slot) = run.get(key) {
                result = slot.as_ref().map(|v| v.to_vec());
                break;
            }
        }
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        if let (Some(reg), Some(t0)) = (obs(), t0) {
            reg.minikv_gets.inc();
            reg.minikv_get_ns.record(elapsed_ns(t0));
        }
        result
    }

    /// Bounded-wait [`Db::get`]: [`WouldBlock`] when either lock on the
    /// read path (the owning memtable shard, then the central run-list
    /// mutex) stays busy past `timeout` — typically because a freeze or
    /// compaction holds the central mutex. Nothing is retried internally;
    /// the caller owns the back-off policy. The bound is only a *bound*
    /// when `L` advertises [`abortable`](hemlock_core::LockMeta); on a
    /// trylock-only algorithm the timed waits degrade to bounded retries.
    pub fn try_get(&self, key: &[u8], timeout: Duration) -> Result<Option<Vec<u8>>, WouldBlock>
    where
        L: RawTryLock,
    {
        let deadline = Instant::now() + timeout;
        let t0 = obs().map(|_| Instant::now());
        // Tier 1 (same probe order as `get`, for the same visibility
        // argument): the memtable under a bounded shard acquisition.
        let tier1 = self.mem.try_get_vec(key, timeout).inspect_err(|_| {
            if let Some(reg) = obs() {
                reg.minikv_stalls.inc();
            }
        })?;
        if let Some(value) = tier1 {
            self.stats.gets.fetch_add(1, Ordering::Relaxed);
            if let (Some(reg), Some(t0)) = (obs(), t0) {
                reg.minikv_gets.inc();
                reg.minikv_get_ns.record(elapsed_ns(t0));
            }
            return Ok(value);
        }
        // Tier 2: a bounded read-mode snapshot of the run handles. A
        // compaction holding the central mutex makes this return
        // WouldBlock instead of stalling the reader behind it.
        let snapshot: Vec<Arc<Run>> = match DbReadGuard::try_lock_until(self, deadline) {
            Some(g) => g.runs().clone(),
            None => {
                if let Some(reg) = obs() {
                    reg.minikv_stalls.inc();
                }
                return Err(WouldBlock);
            }
        };
        let mut result = None;
        for run in &snapshot {
            if let Some(slot) = run.get(key) {
                result = slot.as_ref().map(|v| v.to_vec());
                break;
            }
        }
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        if let (Some(reg), Some(t0)) = (obs(), t0) {
            reg.minikv_gets.inc();
            reg.minikv_get_ns.record(elapsed_ns(t0));
        }
        Ok(result)
    }

    /// Bounded-wait [`Db::put`]: [`WouldBlock`] when the owning memtable
    /// shard stays busy past `timeout` (nothing is written). When the
    /// write lands and trips the freeze budget, the freeze itself is
    /// **opportunistic**: it runs only if the central mutex is free right
    /// now, so a `try_put` never stalls behind a running compaction — a
    /// deferred freeze is picked up by the next writer (timed or blocking)
    /// to see the budget tripped.
    pub fn try_put(&self, key: &[u8], value: &[u8], timeout: Duration) -> Result<(), WouldBlock>
    where
        L: RawTryLock,
    {
        self.try_write_slot(key, Some(value.into()), timeout)
    }

    /// Bounded-wait [`Db::delete`] (tombstone write), with [`Db::try_put`]
    /// semantics.
    pub fn try_delete(&self, key: &[u8], timeout: Duration) -> Result<(), WouldBlock>
    where
        L: RawTryLock,
    {
        self.try_write_slot(key, None, timeout)
    }

    fn try_write_slot(&self, key: &[u8], value: Slot, timeout: Duration) -> Result<(), WouldBlock>
    where
        L: RawTryLock,
    {
        let t0 = obs().map(|_| Instant::now());
        let deleting = value.is_none();
        if !self.mem.try_insert(key, value, timeout) {
            if let Some(reg) = obs() {
                reg.minikv_stalls.inc();
            }
            return Err(WouldBlock);
        }
        if self.mem.approximate_bytes() >= self.opts.memtable_bytes {
            // Opportunistic freeze: skip (deferring to a later writer)
            // rather than block behind whoever holds the central mutex.
            if let Some(mut g) = DbGuard::try_lock(self) {
                self.freeze_locked(&mut g);
            }
        }
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        if let (Some(reg), Some(t0)) = (obs(), t0) {
            if deleting {
                reg.minikv_deletes.inc();
            } else {
                reg.minikv_puts.inc();
            }
            reg.minikv_put_ns.record(elapsed_ns(t0));
        }
        Ok(())
    }

    /// Awaits an exclusive central-mutex acquisition: the fast path is one
    /// trylock; a busy mutex (freeze, compaction, another structural
    /// transition) parks the task in the central [`WakerSet`] until a
    /// guard release notifies.
    async fn central_lock_async(&self) -> DbGuard<'_, L>
    where
        L: RawTryLock,
    {
        std::future::poll_fn(|cx| match DbGuard::try_lock(self) {
            Some(g) => Poll::Ready(g),
            None => {
                self.mu_wakers.register_current(cx);
                match DbGuard::try_lock(self) {
                    Some(g) => Poll::Ready(g),
                    None => Poll::Pending,
                }
            }
        })
        .await
    }

    /// Awaits a shared (read-mode) central-mutex acquisition, for run-list
    /// snapshots. With an RW-capable `L`, concurrent async snapshotters
    /// are admitted together.
    async fn central_read_async(&self) -> DbReadGuard<'_, L>
    where
        L: RawTryLock,
    {
        std::future::poll_fn(|cx| match DbReadGuard::try_lock(self) {
            Some(g) => Poll::Ready(g),
            None => {
                self.mu_wakers.register_current(cx);
                match DbReadGuard::try_lock(self) {
                    Some(g) => Poll::Ready(g),
                    None => Poll::Pending,
                }
            }
        })
        .await
    }

    /// Asynchronous [`Db::get`]: the same two-tier probe, but a busy lock
    /// anywhere on the path — the owning memtable shard, or the central
    /// mutex held by a freeze/compaction — suspends the *task* instead of
    /// stalling a thread or bailing out with [`WouldBlock`]. No guard ever
    /// lives across a suspension point, so the returned future is `Send`
    /// and cancel-safe.
    pub async fn get_async(&self, key: &[u8]) -> Option<Vec<u8>>
    where
        L: RawTryLock,
    {
        // Tier 1: the memtable, awaiting the owning shard in read mode.
        // Probe order matters exactly as in `get`: a freeze migrates keys
        // memtable→runs while holding the central mutex, so a tier-1 miss
        // always finds the key in the tier-2 snapshot awaited afterwards.
        if let Some(value) = self.mem.get_vec_async(key).await {
            self.stats.gets.fetch_add(1, Ordering::Relaxed);
            if let Some(reg) = obs() {
                reg.minikv_gets.inc();
            }
            return value;
        }
        // Tier 2: await a read-mode snapshot of the run handles — this is
        // the wait that used to be `WouldBlock`: a compaction holding the
        // central mutex now parks this task and wakes it on release.
        let snapshot: Vec<Arc<Run>> = {
            let g = self.central_read_async().await;
            g.runs().clone()
        };
        let mut result = None;
        for run in &snapshot {
            if let Some(slot) = run.get(key) {
                result = slot.as_ref().map(|v| v.to_vec());
                break;
            }
        }
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        if let Some(reg) = obs() {
            reg.minikv_gets.inc();
        }
        result
    }

    /// Asynchronous [`Db::put`]: awaits the owning memtable shard, and —
    /// unlike [`Db::try_put`], which *defers* a tripped freeze — **awaits
    /// the freeze/compaction** when the write trips the byte budget,
    /// parking the task until the central mutex is free and then running
    /// the structural transition itself.
    pub async fn put_async(&self, key: &[u8], value: &[u8])
    where
        L: RawTryLock,
    {
        self.write_slot_async(key, Some(value.into())).await;
    }

    /// Asynchronous [`Db::delete`] (tombstone write), with [`Db::put_async`]
    /// semantics.
    pub async fn delete_async(&self, key: &[u8])
    where
        L: RawTryLock,
    {
        self.write_slot_async(key, None).await;
    }

    async fn write_slot_async(&self, key: &[u8], value: Slot)
    where
        L: RawTryLock,
    {
        if let Some(reg) = obs() {
            if value.is_none() {
                reg.minikv_deletes.inc();
            } else {
                reg.minikv_puts.inc();
            }
        }
        self.mem.insert_async(key, value).await;
        if self.mem.approximate_bytes() >= self.opts.memtable_bytes {
            // Await the central mutex instead of skipping (try_put) or
            // blocking a thread (put): the freeze runs as soon as whatever
            // holds the mutex releases it. The guard is created and
            // dropped between suspension points, on one thread.
            let mut g = self.central_lock_async().await;
            self.freeze_locked(&mut g);
        }
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds the memtable tier's batch answers into positional
    /// [`KvResult`]s, returning the indices of gets that missed tier 1
    /// entirely and still need the run tier. A tombstone hit
    /// (`Value(Some(None))`) is *definitive* — the key is deleted, the run
    /// tier must not be consulted. Bumps the shared op counters.
    fn batch_fold_memtable(
        &self,
        ops: &[KvOp],
        mem: Vec<hemlock_shard::TableResult<Slot>>,
    ) -> (Vec<KvResult>, Vec<usize>) {
        use hemlock_shard::TableResult;
        let mut out = Vec::with_capacity(ops.len());
        let mut misses = Vec::new();
        let (mut gets, mut puts) = (0u64, 0u64);
        for (i, (op, res)) in ops.iter().zip(mem).enumerate() {
            match op {
                KvOp::Get(_) => {
                    gets += 1;
                    match res {
                        TableResult::Value(Some(slot)) => {
                            out.push(KvResult::Value(slot.as_deref().map(<[u8]>::to_vec)));
                        }
                        _ => {
                            misses.push(i);
                            out.push(KvResult::Value(None));
                        }
                    }
                }
                KvOp::Put(..) | KvOp::Delete(_) => {
                    puts += 1;
                    out.push(KvResult::Done);
                }
            }
        }
        if gets > 0 {
            self.stats.gets.fetch_add(gets, Ordering::Relaxed);
        }
        if puts > 0 {
            self.stats.puts.fetch_add(puts, Ordering::Relaxed);
        }
        if let Some(reg) = obs() {
            reg.minikv_gets.add(gets);
            reg.minikv_puts.add(puts);
        }
        (out, misses)
    }

    /// Answers the tier-1 misses from one run-list snapshot, searched
    /// outside any lock (the batched form of `get`'s tier 2).
    fn batch_search_runs(
        ops: &[KvOp],
        misses: &[usize],
        snapshot: &[Arc<Run>],
        out: &mut [KvResult],
    ) {
        for &i in misses {
            let key = ops[i].key();
            for run in snapshot {
                if let Some(slot) = run.get(key) {
                    out[i] = KvResult::Value(slot.as_ref().map(|v| v.to_vec()));
                    break;
                }
            }
        }
    }

    /// Applies a positional batch of operations: `out[i]` answers
    /// `ops[i]`. This is the amortized form of the point API — where `n`
    /// point ops pay `n` shard acquisitions, up to `n` run snapshots, and
    /// `n` freeze checks, a batch pays:
    ///
    /// - **one shard-lock acquisition per shard touched** — the memtable
    ///   pass goes through the sharded table's flat-combining layer
    ///   ([`hemlock_shard::ShardedTable::apply_batch`]), so a contended
    ///   shard is serviced by whichever thread holds it;
    /// - **one central-mutex read acquisition** for all the gets that
    ///   missed tier 1 (a single run-list snapshot, searched outside the
    ///   lock), instead of one per missing get;
    /// - **one freeze check** after the batch, instead of one per write.
    ///
    /// The two-tier visibility argument survives batching because the
    /// snapshot is taken *after* the memtable pass: a freeze migrating
    /// keys memtable→runs holds the central mutex until the new run is
    /// installed, so any key our batch missed in tier 1 is present in the
    /// snapshot we take afterwards. Deletes are tombstone writes in tier 1
    /// and a tombstone hit never falls through to the runs, so a delete in
    /// this batch shadows older run entries exactly like [`Db::delete`].
    pub fn apply_batch(&self, ops: &[KvOp]) -> Vec<KvResult>
    where
        L: RawTryLock,
    {
        if let Some(reg) = obs() {
            reg.minikv_batch_size.record(ops.len() as u64);
        }
        let mem = self.mem.apply_batch(ops);
        let (mut out, misses) = self.batch_fold_memtable(ops, mem);
        if !misses.is_empty() {
            let snapshot: Vec<Arc<Run>> = DbReadGuard::lock(self).runs().clone();
            Self::batch_search_runs(ops, &misses, &snapshot, &mut out);
        }
        if ops.iter().any(KvOp::is_write)
            && self.mem.approximate_bytes() >= self.opts.memtable_bytes
        {
            self.freeze_and_maybe_compact();
        }
        out
    }

    /// Asynchronous [`Db::apply_batch`]: the same amortization, but every
    /// wait — a contended memtable shard (the batch parks on its posted
    /// publication record until a combiner services it), the central mutex
    /// for the run snapshot, or a tripped freeze — suspends the task, not
    /// a thread. No guard lives across a suspension point, so the future
    /// is `Send`, and cancellation is safe: a batch whose posted ops were
    /// not yet claimed withdraws them (nothing applied); once a combiner
    /// claimed a shard's group that group lands atomically.
    pub async fn apply_batch_async(&self, ops: &[KvOp]) -> Vec<KvResult>
    where
        L: RawTryLock,
    {
        if let Some(reg) = obs() {
            reg.minikv_batch_size.record(ops.len() as u64);
        }
        let span =
            hemlock_obs::trace::AsyncSpan::start(hemlock_obs::trace::current(), "minikv.batch");
        let mem = self.mem.apply_batch_async(ops).await;
        let (mut out, misses) = self.batch_fold_memtable(ops, mem);
        if !misses.is_empty() {
            let snapshot: Vec<Arc<Run>> = {
                let g = self.central_read_async().await;
                g.runs().clone()
            };
            Self::batch_search_runs(ops, &misses, &snapshot, &mut out);
        }
        if ops.iter().any(KvOp::is_write)
            && self.mem.approximate_bytes() >= self.opts.memtable_bytes
        {
            let mut g = self.central_lock_async().await;
            self.freeze_locked(&mut g);
        }
        drop(span);
        out
    }

    /// Number of immutable runs (tests/diagnostics).
    pub fn run_count(&self) -> usize {
        DbReadGuard::lock(self).runs().len()
    }

    /// This database as an [`AsyncKv`] trait object — the hand-off point
    /// to lock-agnostic consumers (the `hemlock-net` server takes an
    /// `Arc<dyn AsyncKv>`, so one server binary can serve a `Db` whose
    /// lock algorithm was chosen at runtime from the `async.*` catalog).
    pub fn into_async_kv(self: Arc<Self>) -> Arc<dyn AsyncKv>
    where
        L: RawTryLock + 'static,
    {
        self
    }

    /// Total entries across memtable and runs, counting shadowed duplicates
    /// (diagnostics).
    pub fn entry_count(&self) -> usize {
        DbReadGuard::lock(self)
            .runs()
            .iter()
            .map(|r| r.len())
            .sum::<usize>()
            + self.mem.len()
    }
}

/// A boxed, `Send` future of an asynchronous KV operation (the object-safe
/// shape [`AsyncKv`] needs; MSRV predates usable `async fn` in dyn traits).
pub type BoxKvFuture<'a, T> = core::pin::Pin<Box<dyn core::future::Future<Output = T> + Send + 'a>>;

/// Object-safe asynchronous KV surface over [`Db`] — the **server hook**
/// for the networked front-end (`hemlock-net`).
///
/// `Db<L>` is generic over its lock algorithm, but a server that selects
/// the lock at runtime (`kvserver --lock async.hemlock`) cannot name `L`
/// in its types. This trait erases it: every `Db<L>` whose lock can back
/// the async paths ([`hemlock_core::RawTryLock`]) is an `AsyncKv`, and the
/// server dispatches wire ops through `Arc<dyn AsyncKv>`. The methods
/// mirror `Db::{get,put,delete}_async` exactly — a busy shard or a
/// freeze/compaction holding the central mutex suspends the calling task,
/// never an OS thread, which is what makes task-per-connection serving
/// safe on a small `TaskPool`.
pub trait AsyncKv: Send + Sync {
    /// Asynchronous point lookup ([`Db::get_async`]).
    fn get_async<'a>(&'a self, key: &'a [u8]) -> BoxKvFuture<'a, Option<Vec<u8>>>;
    /// Asynchronous insert/overwrite ([`Db::put_async`]).
    fn put_async<'a>(&'a self, key: &'a [u8], value: &'a [u8]) -> BoxKvFuture<'a, ()>;
    /// Asynchronous delete ([`Db::delete_async`]).
    fn delete_async<'a>(&'a self, key: &'a [u8]) -> BoxKvFuture<'a, ()>;
    /// Applies a positional batch in one pass ([`Db::apply_batch_async`]):
    /// one shard acquisition per shard touched (flat-combined under
    /// contention), one run snapshot for all tier-1 misses, one freeze
    /// check. The server feeds each decoded pipeline burst here as a unit
    /// instead of spawning per-op futures.
    fn apply_batch_async<'a>(&'a self, ops: &'a [KvOp]) -> BoxKvFuture<'a, Vec<KvResult>>;
    /// Completed-operation counters (shared with the sync paths).
    fn stats(&self) -> &DbStats;
    /// Display name of the lock algorithm both tiers run on.
    fn lock_name(&self) -> &'static str;
}

impl<L: RawTryLock> AsyncKv for Db<L> {
    fn get_async<'a>(&'a self, key: &'a [u8]) -> BoxKvFuture<'a, Option<Vec<u8>>> {
        // Inherent methods win resolution, so these call the concrete
        // `Db` futures, not this trait recursively.
        Box::pin(self.get_async(key))
    }

    fn put_async<'a>(&'a self, key: &'a [u8], value: &'a [u8]) -> BoxKvFuture<'a, ()> {
        Box::pin(self.put_async(key, value))
    }

    fn delete_async<'a>(&'a self, key: &'a [u8]) -> BoxKvFuture<'a, ()> {
        Box::pin(self.delete_async(key))
    }

    fn apply_batch_async<'a>(&'a self, ops: &'a [KvOp]) -> BoxKvFuture<'a, Vec<KvResult>> {
        Box::pin(self.apply_batch_async(ops))
    }

    fn stats(&self) -> &DbStats {
        Db::stats(self)
    }

    fn lock_name(&self) -> &'static str {
        Db::lock_name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemlock_core::hemlock::Hemlock;
    use hemlock_locks::{ClhLock, McsLock, TicketLock};

    fn tiny_opts() -> Options {
        Options {
            memtable_bytes: 512,
            max_runs: 3,
            mem_shards: 4,
        }
    }

    #[test]
    fn async_kv_trait_object_roundtrip() {
        // The erased surface must hit the same store as the concrete one.
        let db: Arc<Db<Hemlock>> = Arc::new(Db::new(tiny_opts()));
        let kv: Arc<dyn AsyncKv> = Arc::clone(&db).into_async_kv();
        hemlock_harness::executor::block_on(async {
            kv.put_async(b"k", b"v").await;
            assert_eq!(kv.get_async(b"k").await, Some(b"v".to_vec()));
            kv.delete_async(b"k").await;
            assert_eq!(kv.get_async(b"k").await, None);
        });
        assert_eq!(db.get(b"k"), None);
        assert_eq!(AsyncKv::stats(&*kv).puts.load(Ordering::Relaxed), 2);
        assert_eq!(AsyncKv::lock_name(&*kv), db.lock_name());
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let db: Db<Hemlock> = Db::new(Options::default());
        db.put(b"a", b"1");
        assert_eq!(db.get(b"a"), Some(b"1".to_vec()));
        db.delete(b"a");
        assert_eq!(db.get(b"a"), None);
        assert_eq!(db.get(b"missing"), None);
    }

    #[test]
    fn freeze_preserves_visibility() {
        let db: Db<Hemlock> = Db::new(tiny_opts());
        for i in 0..200u32 {
            db.put(format!("key{i:05}").as_bytes(), &i.to_be_bytes());
        }
        assert!(db.run_count() > 0, "memtable must have frozen");
        for i in 0..200u32 {
            assert_eq!(
                db.get(format!("key{i:05}").as_bytes()),
                Some(i.to_be_bytes().to_vec()),
                "key{i:05}"
            );
        }
    }

    #[test]
    fn compaction_bounds_run_count() {
        let db: Db<Hemlock> = Db::new(tiny_opts());
        for i in 0..2000u32 {
            db.put(format!("key{i:05}").as_bytes(), &i.to_be_bytes());
        }
        assert!(db.run_count() <= tiny_opts().max_runs + 1);
        assert!(db.stats().compactions.load(Ordering::Relaxed) > 0);
        // Spot-check visibility after compactions.
        for i in (0..2000u32).step_by(97) {
            assert!(db.get(format!("key{i:05}").as_bytes()).is_some());
        }
    }

    #[test]
    fn overwrites_resolve_to_newest_across_runs() {
        let db: Db<Hemlock> = Db::new(tiny_opts());
        for round in 0..5u32 {
            for i in 0..100u32 {
                db.put(
                    format!("key{i:03}").as_bytes(),
                    format!("v{round}").as_bytes(),
                );
            }
        }
        for i in 0..100u32 {
            assert_eq!(
                db.get(format!("key{i:03}").as_bytes()),
                Some(b"v4".to_vec())
            );
        }
    }

    #[test]
    fn delete_shadows_older_runs() {
        let db: Db<Hemlock> = Db::new(tiny_opts());
        for i in 0..300u32 {
            db.put(format!("key{i:05}").as_bytes(), b"live");
        }
        for i in (0..300u32).step_by(2) {
            db.delete(format!("key{i:05}").as_bytes());
        }
        for i in 0..300u32 {
            let got = db.get(format!("key{i:05}").as_bytes());
            if i % 2 == 0 {
                assert_eq!(got, None, "key{i:05} deleted");
            } else {
                assert_eq!(got, Some(b"live".to_vec()));
            }
        }
    }

    #[test]
    fn a_held_snapshot_survives_compaction() {
        let db: Db<Hemlock> = Db::new(tiny_opts());
        let keys: Vec<Vec<u8>> = (0..100u32)
            .map(|i| format!("key{i:05}").into_bytes())
            .collect();
        for k in &keys {
            db.put(k, b"old");
        }
        // Taken the way `get` takes it.
        let snapshot: Vec<Arc<Run>> = DbReadGuard::lock(&db).runs().clone();
        assert!(snapshot.len() >= 2, "the snapshot must hold mergeable runs");
        let lens: Vec<usize> = snapshot.iter().map(|r| r.len()).collect();
        let held_answers_old = |snapshot: &[Arc<Run>]| {
            for run in snapshot {
                for k in &keys {
                    if let Some(slot) = run.get(k) {
                        assert_eq!(slot.as_deref(), Some(b"old".as_slice()));
                    }
                }
            }
        };
        held_answers_old(&snapshot);
        let stat = |c: &AtomicU64| c.load(Ordering::Relaxed);
        // `stats()` counts this database alone; the registry is
        // process-wide, so only its rise is checked.
        let reg_copies = || hemlock_obs::registry().minikv_compaction_copies.get();
        let (reg0, copies0) = (reg_copies(), stat(&db.stats().compaction_copies));
        let overwrite_until_compaction = |value: &[u8]| {
            let start = stat(&db.stats().compactions);
            for _ in 0..50 {
                for k in &keys {
                    db.put(k, value);
                }
                if stat(&db.stats().compactions) > start {
                    return;
                }
            }
            panic!("no compaction after 50 rounds of overwrites");
        };

        // Copy path: the merged runs are still held by the snapshot.
        overwrite_until_compaction(b"new");
        let copies1 = stat(&db.stats().compaction_copies);
        assert!(copies1 > copies0, "merging held runs must copy them");
        assert!(reg_copies() > reg0, "the registry must count the copy");
        assert_eq!(snapshot.iter().map(|r| r.len()).collect::<Vec<_>>(), lens);
        held_answers_old(&snapshot);
        for k in &keys {
            assert_eq!(db.get(k), Some(b"new".to_vec()));
        }

        // Move path: nothing but the run list holds a run any more.
        drop(snapshot);
        overwrite_until_compaction(b"newer");
        assert_eq!(stat(&db.stats().compaction_copies), copies1);
        for k in &keys {
            assert_eq!(db.get(k), Some(b"newer".to_vec()));
        }
    }

    #[test]
    fn seeded_mixed_ops_match_a_btreemap_oracle() {
        use std::collections::BTreeMap;
        let db: Db<Hemlock> = Db::new(tiny_opts());
        let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        // splitmix64, fixed seed: the same op sequence on every run.
        let mut state = 0x5EED_u64;
        let mut draw = |n: u64| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) % n
        };
        let mut issued = 0u32;
        while issued < 6_000 {
            issued += 1;
            let (kind, key, value) = (draw(8), draw(256), draw(1 << 32) as u32);
            let key = format!("k{key:03}").into_bytes();
            let value = value.to_be_bytes().to_vec();
            match kind {
                0..=2 => {
                    db.put(&key, &value);
                    oracle.insert(key, value);
                }
                3 => {
                    db.delete(&key);
                    oracle.remove(&key);
                }
                4 | 5 => assert_eq!(db.get(&key), oracle.get(&key).cloned(), "op {issued}"),
                _ => {
                    // A batch of up to 8 ops, answered positionally as if
                    // issued one by one.
                    let mut ops = Vec::new();
                    let mut expect = Vec::new();
                    for _ in 0..=draw(8) {
                        let key = format!("k{:03}", draw(256)).into_bytes();
                        let value = (draw(1 << 32) as u32).to_be_bytes().to_vec();
                        match draw(3) {
                            0 => {
                                oracle.insert(key.clone(), value.clone());
                                ops.push(KvOp::Put(key, value));
                                expect.push(KvResult::Done);
                            }
                            1 => {
                                oracle.remove(&key);
                                ops.push(KvOp::Delete(key));
                                expect.push(KvResult::Done);
                            }
                            _ => {
                                expect.push(KvResult::Value(oracle.get(&key).cloned()));
                                ops.push(KvOp::Get(key));
                            }
                        }
                    }
                    issued += ops.len() as u32 - 1;
                    assert_eq!(db.apply_batch(&ops), expect, "batch ending at op {issued}");
                }
            }
        }
        for k in 0..256u32 {
            let key = format!("k{k:03}").into_bytes();
            assert_eq!(db.get(&key), oracle.get(&key).cloned(), "final k{k:03}");
        }
        let compactions = db.stats().compactions.load(Ordering::Relaxed);
        assert!(compactions >= 20, "only {compactions} compactions");
    }

    #[test]
    fn memtable_census_reflects_sharded_fast_path() {
        let db: Db<Hemlock> = Db::new(tiny_opts());
        assert_eq!(db.memtable_shards(), 4);
        db.put(b"k", b"v");
        db.get(b"k");
        // One shard acquisition for the put, one for the memtable probe.
        assert!(db.memtable_stats().acquisitions() >= 2);
    }

    fn concurrent_readers_with_writer<L: RawLock + 'static>() {
        let db: Arc<Db<L>> = Arc::new(Db::new(tiny_opts()));
        for i in 0..500u32 {
            db.put(format!("key{i:05}").as_bytes(), &i.to_be_bytes());
        }
        std::thread::scope(|s| {
            for t in 0..3 {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    for i in 0..2_000u32 {
                        let k = (i * 7 + t * 13) % 500;
                        let got = db.get(format!("key{k:05}").as_bytes());
                        assert!(got.is_some(), "key{k:05} must exist");
                    }
                });
            }
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in 500..1_000u32 {
                    db.put(format!("key{i:05}").as_bytes(), &i.to_be_bytes());
                }
            });
        });
        assert_eq!(db.stats().gets.load(Ordering::Relaxed), 6_000);
    }

    #[test]
    fn try_get_and_try_put_roundtrip_when_uncontended() {
        let db: Db<Hemlock> = Db::new(tiny_opts());
        let t = Duration::from_millis(20);
        db.try_put(b"a", b"1", t).unwrap();
        assert_eq!(db.try_get(b"a", t).unwrap(), Some(b"1".to_vec()));
        db.try_delete(b"a", t).unwrap();
        assert_eq!(db.try_get(b"a", t).unwrap(), None);
        assert_eq!(db.try_get(b"missing", t).unwrap(), None);
        // The timed paths share the blocking paths' stats.
        assert_eq!(db.stats().puts.load(Ordering::Relaxed), 2);
        assert_eq!(db.stats().gets.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn timed_writes_survive_freezes_and_stay_visible() {
        let db: Db<Hemlock> = Db::new(tiny_opts());
        let t = Duration::from_millis(50);
        for i in 0..300u32 {
            db.try_put(format!("key{i:05}").as_bytes(), &i.to_be_bytes(), t)
                .unwrap();
        }
        // Opportunistic freezes still happen on the uncontended path.
        assert!(db.run_count() > 0, "timed puts must still freeze");
        for i in (0..300u32).step_by(17) {
            assert_eq!(
                db.try_get(format!("key{i:05}").as_bytes(), t).unwrap(),
                Some(i.to_be_bytes().to_vec())
            );
        }
    }

    #[test]
    fn try_get_would_block_behind_a_held_central_mutex() {
        let db: Arc<Db<Hemlock>> = Arc::new(Db::new(tiny_opts()));
        for i in 0..300u32 {
            db.put(format!("key{i:05}").as_bytes(), &i.to_be_bytes());
        }
        assert!(db.run_count() > 0, "need runs so misses hit tier 2");
        // Hold the central mutex, standing in for a long compaction.
        db.mu.lock();
        let blocked = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let t0 = std::time::Instant::now();
                // A key that misses the memtable must consult the run
                // list — and give up within bound instead of stalling.
                let r = db.try_get(b"key00000-missing", Duration::from_millis(15));
                (r, t0.elapsed())
            })
        };
        let (r, waited) = blocked.join().unwrap();
        assert_eq!(r, Err(WouldBlock));
        assert!(waited >= Duration::from_millis(15));
        assert!(
            waited < Duration::from_secs(5),
            "must be bounded, not stalled"
        );
        // Safety: held by this thread since the lock() above.
        unsafe { db.mu.unlock() };
        // After the "compaction" ends, the same read succeeds.
        assert_eq!(
            db.try_get(b"key00000-missing", Duration::from_millis(50))
                .unwrap(),
            None
        );
    }

    #[test]
    fn try_put_defers_the_freeze_instead_of_stalling_behind_the_central_mutex() {
        let db: Arc<Db<Hemlock>> = Arc::new(Db::new(tiny_opts()));
        // Hold the central mutex, standing in for a long compaction.
        db.mu.lock();
        let writer = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let t0 = std::time::Instant::now();
                // Far past the 512-byte budget: every one of these trips
                // the freeze check, which must be *skipped*, not waited on.
                for i in 0..200u32 {
                    db.try_put(
                        format!("key{i:05}").as_bytes(),
                        &[0u8; 32],
                        Duration::from_millis(50),
                    )
                    .unwrap();
                }
                t0.elapsed()
            })
        };
        let elapsed = writer.join().unwrap();
        assert!(
            elapsed < Duration::from_secs(5),
            "timed puts stalled behind the central mutex: {elapsed:?}"
        );
        // Safety: this thread holds `mu`, so reading the run list is safe.
        let runs_while_held = unsafe { &*db.runs.get() }.len();
        assert_eq!(runs_while_held, 0, "freeze must have been deferred");
        // Safety: held by this thread since the lock() above.
        unsafe { db.mu.unlock() };
        // The deferred freeze is picked up by the next writer to trip the
        // budget now that the central mutex is free.
        db.put(b"one-more", &[0u8; 32]);
        assert!(db.run_count() > 0, "deferred freeze must eventually run");
        for i in (0..200u32).step_by(23) {
            assert!(db.get(format!("key{i:05}").as_bytes()).is_some());
        }
    }

    #[test]
    fn async_ops_roundtrip_and_are_send() {
        use hemlock_harness::executor::block_on;
        fn assert_send<T: Send>(t: T) -> T {
            t
        }
        let db: Db<Hemlock> = Db::new(tiny_opts());
        block_on(async {
            assert_send(db.put_async(b"a", b"1")).await;
            assert_eq!(assert_send(db.get_async(b"a")).await, Some(b"1".to_vec()));
            assert_send(db.delete_async(b"a")).await;
            assert_eq!(db.get_async(b"a").await, None);
            assert_eq!(db.get_async(b"missing").await, None);
        });
        assert_eq!(db.stats().puts.load(Ordering::Relaxed), 2);
        assert_eq!(db.stats().gets.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn put_async_awaits_the_freeze_instead_of_deferring_it() {
        use hemlock_harness::executor::block_on;
        let db: Db<Hemlock> = Db::new(tiny_opts());
        block_on(async {
            // Far past the 512-byte budget: the tripped freezes must RUN
            // (awaited), not be deferred as try_put does.
            for i in 0..100u32 {
                db.put_async(format!("key{i:05}").as_bytes(), &[0u8; 32])
                    .await;
            }
        });
        assert!(db.run_count() > 0, "awaited freezes must have run");
        block_on(async {
            for i in (0..100u32).step_by(13) {
                assert!(db
                    .get_async(format!("key{i:05}").as_bytes())
                    .await
                    .is_some());
            }
        });
    }

    #[test]
    fn get_async_parks_behind_a_held_central_mutex_then_completes() {
        use hemlock_harness::executor::TaskPool;
        let db: Arc<Db<Hemlock>> = Arc::new(Db::new(tiny_opts()));
        for i in 0..300u32 {
            db.put(format!("key{i:05}").as_bytes(), &i.to_be_bytes());
        }
        assert!(db.run_count() > 0, "need runs so misses hit tier 2");
        // Hold the central mutex, standing in for a long compaction.
        db.mu.lock();
        let pool = TaskPool::new(2);
        let h = {
            let db = Arc::clone(&db);
            pool.spawn(async move {
                // Misses the memtable -> must await the run snapshot,
                // parking (not spinning a worker) behind the "compaction".
                db.get_async(b"key00000-missing").await
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!h.is_finished(), "get_async must wait for the mutex");
        // Safety: held by this thread since the lock() above.
        unsafe { db.mu.unlock() };
        db.mu_wakers.notify_all(); // what a DbGuard drop would have done
        assert_eq!(h.join(), None);
    }

    #[test]
    fn mixed_async_tasks_and_sync_threads_share_the_db() {
        use hemlock_harness::executor::TaskPool;
        let db: Arc<Db<Hemlock>> = Arc::new(Db::new(tiny_opts()));
        let pool = TaskPool::new(2);
        let handles: Vec<_> = (0..2u32)
            .map(|t| {
                let db = Arc::clone(&db);
                pool.spawn(async move {
                    for i in 0..300u32 {
                        let key = format!("async{t}k{i:05}");
                        db.put_async(key.as_bytes(), &i.to_be_bytes()).await;
                        assert_eq!(
                            db.get_async(key.as_bytes()).await,
                            Some(i.to_be_bytes().to_vec())
                        );
                    }
                })
            })
            .collect();
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    for i in 0..300u32 {
                        let key = format!("sync{t}k{i:05}");
                        db.put(key.as_bytes(), &i.to_be_bytes());
                        assert_eq!(db.get(key.as_bytes()), Some(i.to_be_bytes().to_vec()));
                    }
                });
            }
        });
        for h in handles {
            h.join();
        }
        // Every key from both worlds is visible afterwards.
        for prefix in ["async0", "async1", "sync0", "sync1"] {
            for i in (0..300u32).step_by(41) {
                let key = format!("{prefix}k{i:05}");
                assert!(db.get(key.as_bytes()).is_some(), "{key}");
            }
        }
        assert_eq!(db.stats().puts.load(Ordering::Relaxed), 1_200);
    }

    #[test]
    fn apply_batch_roundtrip_is_positional() {
        let db: Db<Hemlock> = Db::new(tiny_opts());
        let out = db.apply_batch(&[
            KvOp::Put(b"a".to_vec(), b"1".to_vec()),
            KvOp::Get(b"a".to_vec()),
            KvOp::Put(b"a".to_vec(), b"2".to_vec()),
            KvOp::Get(b"a".to_vec()),
            KvOp::Delete(b"a".to_vec()),
            KvOp::Get(b"a".to_vec()),
            KvOp::Get(b"missing".to_vec()),
        ]);
        assert_eq!(
            out,
            vec![
                KvResult::Done,
                KvResult::Value(Some(b"1".to_vec())),
                KvResult::Done,
                KvResult::Value(Some(b"2".to_vec())),
                KvResult::Done,
                KvResult::Value(None),
                KvResult::Value(None),
            ]
        );
        // The batch shares the point paths' counters: 4 gets, 3 writes.
        assert_eq!(db.stats().gets.load(Ordering::Relaxed), 4);
        assert_eq!(db.stats().puts.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn batched_gets_reach_the_run_tier_and_tombstones_shadow_it() {
        let db: Db<Hemlock> = Db::new(tiny_opts());
        for i in 0..300u32 {
            db.put(format!("key{i:05}").as_bytes(), &i.to_be_bytes());
        }
        assert!(db.run_count() > 0, "need runs so misses hit tier 2");
        // One batch: a delete whose tombstone must shadow the run entry,
        // then gets that miss the memtable and fall through to the runs.
        let out = db.apply_batch(&[
            KvOp::Delete(b"key00007".to_vec()),
            KvOp::Get(b"key00007".to_vec()),
            KvOp::Get(b"key00042".to_vec()),
            KvOp::Get(b"key99999".to_vec()),
        ]);
        assert_eq!(out[0], KvResult::Done);
        assert_eq!(out[1], KvResult::Value(None), "tombstone shadows the run");
        assert_eq!(out[2], KvResult::Value(Some(42u32.to_be_bytes().to_vec())));
        assert_eq!(out[3], KvResult::Value(None));
    }

    #[test]
    fn apply_batch_trips_the_freeze_once_per_batch() {
        let db: Db<Hemlock> = Db::new(tiny_opts());
        // Far past the 512-byte budget in one batch: the freeze check runs
        // after the batch and must fold everything into a run.
        let ops: Vec<KvOp> = (0..100u32)
            .map(|i| KvOp::Put(format!("key{i:05}").into_bytes(), vec![0u8; 32]))
            .collect();
        db.apply_batch(&ops);
        assert!(db.run_count() > 0, "batched writes must still freeze");
        for i in (0..100u32).step_by(13) {
            assert!(db.get(format!("key{i:05}").as_bytes()).is_some());
        }
    }

    #[test]
    fn apply_batch_async_matches_sync_through_the_trait_object() {
        use hemlock_harness::executor::block_on;
        let db: Arc<Db<Hemlock>> = Arc::new(Db::new(tiny_opts()));
        for i in 0..300u32 {
            db.put(format!("key{i:05}").as_bytes(), &i.to_be_bytes());
        }
        assert!(db.run_count() > 0, "need runs so misses hit tier 2");
        let kv: Arc<dyn AsyncKv> = Arc::clone(&db).into_async_kv();
        let ops = vec![
            KvOp::Put(b"fresh".to_vec(), b"x".to_vec()),
            KvOp::Get(b"fresh".to_vec()),
            KvOp::Get(b"key00042".to_vec()),
            KvOp::Delete(b"key00042".to_vec()),
            KvOp::Get(b"key00042".to_vec()),
        ];
        let out = block_on(async { kv.apply_batch_async(&ops).await });
        assert_eq!(
            out,
            vec![
                KvResult::Done,
                KvResult::Value(Some(b"x".to_vec())),
                KvResult::Value(Some(42u32.to_be_bytes().to_vec())),
                KvResult::Done,
                KvResult::Value(None),
            ]
        );
        // And the writes are visible to the synchronous point API.
        assert_eq!(db.get(b"fresh"), Some(b"x".to_vec()));
        assert_eq!(db.get(b"key00042"), None);
    }

    #[test]
    fn concurrent_batches_and_point_ops_share_the_db() {
        let db: Arc<Db<Hemlock>> = Arc::new(Db::new(tiny_opts()));
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    for round in 0..100u32 {
                        let ops: Vec<KvOp> = (0..8u32)
                            .map(|i| {
                                KvOp::Put(
                                    format!("b{t}r{round:03}k{i}").into_bytes(),
                                    round.to_be_bytes().to_vec(),
                                )
                            })
                            .collect();
                        let out = db.apply_batch(&ops);
                        assert!(out.iter().all(|r| *r == KvResult::Done));
                    }
                });
            }
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in 0..500u32 {
                    let key = format!("point{i:05}");
                    db.put(key.as_bytes(), &i.to_be_bytes());
                    assert_eq!(db.get(key.as_bytes()), Some(i.to_be_bytes().to_vec()));
                }
            });
        });
        // Every batched write is visible afterwards, across any freezes.
        for t in 0..2u32 {
            for round in (0..100u32).step_by(17) {
                for i in 0..8u32 {
                    let key = format!("b{t}r{round:03}k{i}");
                    assert_eq!(
                        db.get(key.as_bytes()),
                        Some(round.to_be_bytes().to_vec()),
                        "{key}"
                    );
                }
            }
        }
    }

    #[test]
    fn concurrent_access_under_hemlock() {
        concurrent_readers_with_writer::<Hemlock>();
    }

    #[test]
    fn concurrent_access_under_mcs() {
        concurrent_readers_with_writer::<McsLock>();
    }

    #[test]
    fn concurrent_access_under_clh() {
        concurrent_readers_with_writer::<ClhLock>();
    }

    #[test]
    fn concurrent_access_under_ticket() {
        concurrent_readers_with_writer::<TicketLock>();
    }

    #[test]
    fn concurrent_access_under_hemlock_rw() {
        // The RW lock drives both tiers: memtable probes and run snapshots
        // run in shared mode, structural transitions exclusively.
        concurrent_readers_with_writer::<hemlock_locks::rw::HemlockRw>();
    }

    #[test]
    fn concurrent_access_under_rw_adapter() {
        concurrent_readers_with_writer::<hemlock_locks::rw::RwFromRaw<McsLock>>();
    }

    #[test]
    fn rw_point_reads_share_the_run_snapshot() {
        use hemlock_locks::rw::HemlockRw;
        let db: Arc<Db<HemlockRw>> = Arc::new(Db::new(tiny_opts()));
        for i in 0..300u32 {
            db.put(format!("key{i:05}").as_bytes(), &i.to_be_bytes());
        }
        assert!(db.run_count() > 0, "the memtable must have frozen");
        // Many concurrent getters: every lock they take is in read mode,
        // so this also smoke-tests reader-reader admission end to end.
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    for i in 0..1_000u32 {
                        let k = (i * 13 + t * 7) % 300;
                        assert_eq!(
                            db.get(format!("key{k:05}").as_bytes()),
                            Some(k.to_be_bytes().to_vec())
                        );
                    }
                });
            }
        });
        assert_eq!(db.stats().gets.load(Ordering::Relaxed), 4_000);
    }
}
