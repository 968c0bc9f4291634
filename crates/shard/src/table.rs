//! The sharded lock table: [`ShardedTable`].
//!
//! Keys hash onto a fixed, power-of-two array of shards; each shard is a
//! `HashMap` behind its own [`Mutex<_, L>`](hemlock_core::Mutex). Because
//! the stripe count never changes, a shard's lock is the *only*
//! synchronization any operation takes — no global epoch, no directory
//! lock — so aggregate throughput scales with the number of independent
//! shards until the machine, not the lock, is the bottleneck. A compact
//! lock algorithm (Hemlock's one-word body) is what makes large stripe
//! counts affordable; [`ShardedTable::footprint_bytes`] prices exactly
//! that, straight from the algorithm's [`LockMeta`].
//!
//! Read-only operations ([`ShardedTable::get`], [`ShardedTable::with`],
//! [`ShardedTable::contains_key`], iteration, sizing) take the shard in
//! *read* mode via [`RawLock::read_lock`]: with an RW-capable algorithm
//! (`LockMeta::rw`, e.g. `hemlock_locks::rw::HemlockRw` or any `rw.*` catalog
//! entry) readers of a hot shard are admitted concurrently and only
//! writers serialize; with an exclusive-only algorithm the read mode
//! degrades to the ordinary lock, so nothing changes for existing users.

use crate::stats::{ShardStats, TableStats};
use core::mem::ManuallyDrop;
use core::ops::{Deref, DerefMut};
use core::task::Poll;
use hemlock_core::hemlock::Hemlock;
use hemlock_core::meta::LockMeta;
use hemlock_core::raw::{RawLock, RawTryLock};
use hemlock_core::wakerset::WakerSet;
use hemlock_core::{Mutex, MutexGuard, ReadGuard};
use hemlock_obs::trace;
use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// One stripe: a map plus its lock, contention census, and the
/// flat-combining publication list ([`crate::batch`]).
struct Shard<K, V, L: RawLock> {
    map: Mutex<HashMap<K, V>, L>,
    stats: ShardStats,
    /// Posted-but-unserviced batch groups awaiting this shard's lock
    /// holder; drained only by the batch paths (see `crate::batch`).
    pubs: crate::batch::PubList<K, V>,
}

impl<K, V, L: RawLock> Default for Shard<K, V, L> {
    fn default() -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            stats: ShardStats::default(),
            pubs: crate::batch::PubList::default(),
        }
    }
}

/// A concurrent keyed table striped over independently locked shards.
///
/// The lock algorithm `L` is a type parameter exactly as in
/// [`Mutex<T, L>`](hemlock_core::Mutex); benchmark binaries select it at
/// runtime by monomorphizing through `hemlock_locks::catalog::with_lock_type`
/// (see `shardkv`), so any catalog entry can guard the shards.
///
/// ```
/// use hemlock_shard::ShardedTable;
/// use hemlock_core::hemlock::Hemlock;
///
/// let t: ShardedTable<u64, u64, Hemlock> = ShardedTable::with_shards(16);
/// std::thread::scope(|s| {
///     for tid in 0..4u64 {
///         let t = &t;
///         s.spawn(move || {
///             for i in 0..100 {
///                 t.insert(tid * 1_000 + i, i);
///             }
///         });
///     }
/// });
/// assert_eq!(t.len(), 400);
/// ```
pub struct ShardedTable<K, V, L: RawLock = Hemlock> {
    shards: Box<[Shard<K, V, L>]>,
    mask: usize,
    hasher: RandomState,
    /// Parked asynchronous waiters (the `*_async` operations). One set for
    /// the whole table — a per-shard set would cost tens of bytes per
    /// shard, working against the compact-footprint story; the price is
    /// that a release may spuriously wake a waiter of another shard, which
    /// simply re-tries. Every guard release notifies (see [`ShardGuard`]),
    /// so synchronous and asynchronous users can mix freely on one shard
    /// without lost wakeups.
    wakers: WakerSet,
}

impl<K: Hash + Eq, V, L: RawLock> Default for ShardedTable<K, V, L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, L: RawLock> core::fmt::Debug for ShardedTable<K, V, L> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ShardedTable")
            .field("lock", &L::META.name)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl<K: Hash + Eq, V, L: RawLock> ShardedTable<K, V, L> {
    /// Creates a table with a shard count sized to the machine: the next
    /// power of two above 4× the available parallelism (at least 16), so
    /// that even an adversarial schedule leaves most acquisitions
    /// uncontended.
    pub fn new() -> Self {
        let hw = std::thread::available_parallelism().map_or(4, |n| n.get());
        Self::with_shards((4 * hw).max(16))
    }

    /// Creates a table with `shards` stripes, rounded up to a power of two
    /// (and at least 1). The count is fixed for the table's lifetime — the
    /// resize-free design is what keeps every operation single-lock.
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n).map(|_| Shard::default()).collect(),
            mask: n - 1,
            hasher: RandomState::new(),
            wakers: WakerSet::new(),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The stripe `key` maps to, in `0..self.shards()`. Accepts any
    /// borrowed form of the key (`Borrow` guarantees equal hashes, so a
    /// `&[u8]` probe lands on the same shard as its owning `Box<[u8]>`).
    pub fn shard_index<Q>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Hash + ?Sized,
    {
        // Power-of-two masking keeps this a single AND; SipHash (the std
        // default) already mixes the low bits well.
        (self.hasher.hash_one(key) as usize) & self.mask
    }

    /// Locks shard `idx` directly, recording the contention census.
    fn lock_shard(&self, idx: usize) -> ShardGuard<'_, K, V, L> {
        let shard = &self.shards[idx];
        let contended = shard.map.raw().is_locked_hint() == Some(true);
        let guard = shard.map.lock();
        // Count after acquiring: a panicking probe can't skew the census.
        shard.stats.note_acquisition(contended);
        ShardGuard::wrap(guard, &self.wakers)
    }

    /// Locks shard `idx` in *read* mode, recording the contention census.
    /// With an RW-capable `L` ([`LockMeta::rw`]) concurrent readers of the
    /// same shard are admitted together; otherwise this is `lock_shard`
    /// with a read-only guard.
    fn read_shard(&self, idx: usize) -> ShardReadGuard<'_, K, V, L>
    where
        K: Sync,
        V: Sync,
    {
        let shard = &self.shards[idx];
        // Census: on an RW-capable lock an engaged hint usually means
        // *coexisting readers* — which this acquisition joins without
        // waiting — so counting it as contended would invert the statistic
        // exactly when sharing works. The indicator cannot distinguish a
        // present writer generically, so RW read acquisitions are recorded
        // uncontended; exclusive-only locks keep the engaged-hint probe.
        let contended = !L::META.rw && shard.map.raw().is_locked_hint() == Some(true);
        let guard = shard.map.read();
        shard.stats.note_acquisition(contended);
        ShardReadGuard::wrap(guard, &self.wakers)
    }

    /// Acquires the shard holding `key` in read mode, returning a shared
    /// guard over that shard's whole map — the read-side counterpart of
    /// [`Self::guard`] for multi-probe read-only critical sections.
    pub fn read_guard<Q>(&self, key: &Q) -> ShardReadGuard<'_, K, V, L>
    where
        K: Borrow<Q> + Sync,
        Q: Hash + ?Sized,
        V: Sync,
    {
        self.read_shard(self.shard_index(key))
    }

    /// Acquires shard `idx` (for whole-table maintenance such as draining
    /// one stripe at a time). Panics when `idx >= self.shards()`.
    pub fn guard_shard(&self, idx: usize) -> ShardGuard<'_, K, V, L> {
        assert!(idx < self.shards.len(), "shard index out of range");
        self.lock_shard(idx)
    }

    /// Acquires the shard holding `key`, returning a guard over that
    /// shard's whole map. This is the primitive the closure APIs build on;
    /// use it directly for multi-operation critical sections on one shard
    /// (e.g. check-then-insert without a second hash).
    pub fn guard<Q>(&self, key: &Q) -> ShardGuard<'_, K, V, L>
    where
        K: Borrow<Q>,
        Q: Hash + ?Sized,
    {
        self.lock_shard(self.shard_index(key))
    }

    /// Inserts or overwrites, returning the previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.guard(&key).insert(key, value)
    }

    /// Removes `key`, returning the value it held.
    pub fn remove<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.guard(key).remove(key)
    }

    /// True when `key` is present (shard taken in read mode).
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q> + Sync,
        Q: Hash + Eq + ?Sized,
        V: Sync,
    {
        self.read_guard(key).contains_key(key)
    }

    /// Runs `f` on the slot for `key` (shared view) under the shard lock,
    /// taken in *read* mode: when `L` is RW-capable, concurrent `with`/
    /// [`Self::get`] calls on the same shard proceed together and only
    /// writers ([`Self::guard`], [`Self::insert`], …) exclude them.
    pub fn with<Q, R>(&self, key: &Q, f: impl FnOnce(Option<&V>) -> R) -> R
    where
        K: Borrow<Q> + Sync,
        Q: Hash + Eq + ?Sized,
        V: Sync,
    {
        f(self.read_guard(key).get(key))
    }

    /// Read-modify-write on the slot for `key` under the shard lock:
    /// `f` receives the current slot (`None` when absent) and may fill,
    /// replace, or empty it. Returns `f`'s result. If `f` unwinds, the
    /// slot's content at the moment of the panic is preserved in the table
    /// (the entry does not vanish) before the panic propagates.
    pub fn update<R>(&self, key: K, f: impl FnOnce(&mut Option<V>) -> R) -> R {
        let mut g = self.guard(&key);
        update_slot(&mut g, key, f)
    }

    /// Total entries, summed shard by shard (each shard read-locked
    /// briefly; the answer is exact only while no writer runs
    /// concurrently).
    pub fn len(&self) -> usize
    where
        K: Sync,
        V: Sync,
    {
        (0..self.shards.len())
            .map(|i| self.read_shard(i).len())
            .sum()
    }

    /// True when every shard is empty (same caveat as [`Self::len`]).
    pub fn is_empty(&self) -> bool
    where
        K: Sync,
        V: Sync,
    {
        (0..self.shards.len()).all(|i| self.read_shard(i).is_empty())
    }

    /// Removes every entry, **one shard at a time** — there is no
    /// table-wide consistent cut. A concurrent writer may repopulate
    /// already-cleared shards before later shards are reached, so the
    /// table is only guaranteed empty at return if no writer ran
    /// concurrently. What *is* guaranteed is per-shard atomicity: each
    /// shard transitions from its current contents to empty under its own
    /// lock, so operations that complete within one shard (point ops, a
    /// batch's same-shard group) are never observed half-cleared.
    pub fn clear(&self) {
        for i in 0..self.shards.len() {
            self.lock_shard(i).clear();
        }
    }

    /// Drains the whole table into a vector, shard by shard (unordered).
    /// Same cut semantics as [`Self::clear`]: per-shard atomic, no
    /// table-wide snapshot — entries written concurrently to
    /// already-drained shards are missed, entries written to
    /// not-yet-drained shards are included.
    pub fn drain(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            out.extend(std::mem::take(&mut *self.lock_shard(i)));
        }
        out
    }

    /// Visits every entry, one shard *read* lock at a time. Entries
    /// inserted or removed concurrently in not-yet-visited shards may or
    /// may not be seen — the usual sharded-iteration contract.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V))
    where
        K: Sync,
        V: Sync,
    {
        for i in 0..self.shards.len() {
            let g = self.read_shard(i);
            for (k, v) in g.iter() {
                f(k, v);
            }
        }
    }

    /// Snapshot of the per-shard contention census.
    pub fn stats(&self) -> TableStats {
        TableStats {
            shards: self.shards.iter().map(|s| s.stats.snapshot()).collect(),
        }
    }

    /// Zeroes the contention census (between benchmark phases).
    pub fn reset_stats(&self) {
        for s in self.shards.iter() {
            s.stats.reset();
        }
    }

    /// The shard-lock algorithm's descriptor.
    pub fn lock_meta(&self) -> LockMeta {
        L::META
    }

    /// Quiescent lock-space cost of this table when used by `threads`
    /// threads: `shards` lock bodies plus padded per-thread state, from
    /// [`LockMeta::footprint_bytes`] — plus the flat-combining layer,
    /// priced the same way: one compact Hemlock word guarding each
    /// shard's publication list, and the list header itself. (Posted
    /// records are transient, like engagement queue elements, and are
    /// excluded — this is the *resting* space cost the paper's Table 1
    /// compares.)
    pub fn footprint_bytes(&self, threads: usize) -> usize {
        let n = self.shards.len();
        L::META.footprint_bytes(n, threads)
            + Hemlock::META.footprint_bytes(n, 0)
            + n * core::mem::size_of::<Vec<()>>()
    }
}

impl<K, V, L: RawLock> ShardedTable<K, V, L> {
    /// Shard `idx`'s publication list (the batch paths' combining seam).
    /// Unbounded on `K`/`V` so the batch layer's drop guards can
    /// withdraw records without carrying the table's op bounds.
    pub(crate) fn shard_pubs(&self, idx: usize) -> &crate::batch::PubList<K, V> {
        &self.shards[idx].pubs
    }

    /// The table-wide waiter registry, shared by the async point ops and
    /// the batch posters (sync and async alike).
    pub(crate) fn wakerset(&self) -> &WakerSet {
        &self.wakers
    }
}

impl<K: Hash + Eq, V: Clone, L: RawLock> ShardedTable<K, V, L> {
    /// Point lookup (clones the value out so the shard lock is held only
    /// for the probe). The shard is taken in *read* mode: with an
    /// RW-capable `L`, concurrent `get`s on the same shard are admitted
    /// together.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q> + Sync,
        Q: Hash + Eq + ?Sized,
        V: Sync,
    {
        self.read_guard(key).get(key).cloned()
    }
}

impl<K: Hash + Eq, V, L: RawTryLock> ShardedTable<K, V, L> {
    /// Non-blocking [`Self::guard`]: `None` when the shard's lock is busy
    /// (counted as a contended acquisition in the census).
    pub fn try_guard(&self, key: &K) -> Option<ShardGuard<'_, K, V, L>> {
        self.try_lock_shard_idx(self.shard_index(key))
    }

    /// Non-blocking [`Self::with`]: runs `f` on the slot for `key` only if
    /// the owning shard's lock is free right now; `None` (without running
    /// `f`) when it is busy. The bounded-wait building block for callers
    /// that must not stall behind a slow shard holder.
    pub fn try_with<Q, R>(&self, key: &Q, f: impl FnOnce(Option<&V>) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let g = self.try_lock_shard_idx(self.shard_index(key))?;
        Some(f(g.get(key)))
    }

    /// Timed [`Self::guard`]: gives up once `timeout` elapses (counted as
    /// a contended acquisition in the census), after which the waiter is
    /// guaranteed never to receive the shard lock from this call. Only
    /// meaningful when `L` advertises
    /// [`LockMeta::abortable`](hemlock_core::LockMeta).
    pub fn try_guard_for<Q>(
        &self,
        key: &Q,
        timeout: std::time::Duration,
    ) -> Option<ShardGuard<'_, K, V, L>>
    where
        K: Borrow<Q>,
        Q: Hash + ?Sized,
    {
        let shard = &self.shards[self.shard_index(key)];
        match shard.map.try_lock_for(timeout) {
            Some(guard) => {
                shard.stats.note_acquisition(false);
                Some(ShardGuard::wrap(guard, &self.wakers))
            }
            None => {
                shard.stats.note_acquisition(true);
                None
            }
        }
    }

    /// Timed [`Self::read_guard`]: the shared-mode counterpart of
    /// [`Self::try_guard_for`]. With an RW-capable `L`, concurrent timed
    /// readers of a hot shard are admitted together and a timed-out reader
    /// genuinely withdraws from the read indicator.
    pub fn try_read_guard_for<Q>(
        &self,
        key: &Q,
        timeout: std::time::Duration,
    ) -> Option<ShardReadGuard<'_, K, V, L>>
    where
        K: Borrow<Q> + Sync,
        Q: Hash + ?Sized,
        V: Sync,
    {
        let shard = &self.shards[self.shard_index(key)];
        match shard.map.try_read_for(timeout) {
            Some(guard) => {
                shard.stats.note_acquisition(false);
                Some(ShardReadGuard::wrap(guard, &self.wakers))
            }
            None => {
                shard.stats.note_acquisition(true);
                None
            }
        }
    }

    /// Atomic read-modify-write over **two** slots that may live on
    /// different shards — the multi-shard transaction primitive. `f`
    /// receives both slots (`None` when absent) with [`Self::update`]'s
    /// fill/replace/empty semantics and panic-safety (slot contents at the
    /// moment of a panic are preserved).
    ///
    /// Deadlock freedom: the two shard locks are taken in **index order**
    /// — the lower-index shard blocking, the higher by *try-acquire with
    /// backoff* (on failure both are dropped and the attempt restarts), so
    /// two `with_two` calls with crossing key pairs can never hold-and-wait
    /// in opposite orders, and a blocking holder of the higher shard is
    /// never waited on while the lower is held longer than one trylock.
    /// Same-shard pairs degrade to a single guard. This protocol is
    /// model-checked: the **`proto.with-two`** scenario
    /// (`hemlock_simlock::protocols::twoshard`, explored exhaustively by
    /// `hemlock-model` and the `model-check` CI job) proves
    /// deadlock-freedom and `no-torn-pair` over every interleaving at
    /// small scope; an unordered blocking acquire
    /// (`TwoShardBug::BlockingUnordered`) is caught as the classic ABBA
    /// deadlock.
    ///
    /// Panics when `a == b` (two `&mut` views of one slot are
    /// ill-defined); route single-key updates through [`Self::update`].
    pub fn with_two<R>(
        &self,
        a: K,
        b: K,
        f: impl FnOnce(&mut Option<V>, &mut Option<V>) -> R,
    ) -> R {
        assert!(a != b, "with_two requires distinct keys");
        let (ia, ib) = (self.shard_index(&a), self.shard_index(&b));
        if ia == ib {
            let mut g = self.lock_shard(ia);
            return rmw_two_same_shard(&mut g, a, b, f);
        }
        // Cross-shard: ordered acquire, try + backoff on the second lock.
        let (lo, hi) = (ia.min(ib), ia.max(ib));
        let mut spin = hemlock_core::spin::SpinWait::new();
        let (g_lo, g_hi) = loop {
            let g_lo = self.lock_shard(lo);
            match self.shards[hi].map.try_lock() {
                Some(guard) => {
                    self.shards[hi].stats.note_acquisition(false);
                    break (g_lo, ShardGuard::wrap(guard, &self.wakers));
                }
                None => {
                    self.shards[hi].stats.note_acquisition(true);
                    drop(g_lo); // release before backing off: no hold-and-wait
                    spin.wait();
                }
            }
        };
        let (mut g_a, mut g_b) = if ia == lo { (g_lo, g_hi) } else { (g_hi, g_lo) };
        rmw_two_cross_shard(&mut g_a, &mut g_b, a, b, f)
    }

    /// One non-blocking attempt on shard `idx`, with census accounting —
    /// the building block every `*_async` poll and every batch step uses.
    pub(crate) fn try_lock_shard_idx(&self, idx: usize) -> Option<ShardGuard<'_, K, V, L>> {
        let shard = &self.shards[idx];
        match shard.map.try_lock() {
            Some(guard) => {
                shard.stats.note_acquisition(false);
                Some(ShardGuard::wrap(guard, &self.wakers))
            }
            None => {
                shard.stats.note_acquisition(true);
                None
            }
        }
    }

    /// One non-blocking *read-mode* attempt on shard `idx`
    /// ([`hemlock_core::RawTryLock::try_read_lock`]): with an RW-capable
    /// `L`, probes of a read-held shard succeed together.
    fn try_read_shard_idx(&self, idx: usize) -> Option<ShardReadGuard<'_, K, V, L>>
    where
        K: Sync,
        V: Sync,
    {
        let shard = &self.shards[idx];
        match shard.map.try_read() {
            Some(guard) => {
                shard.stats.note_acquisition(false);
                Some(ShardReadGuard::wrap(guard, &self.wakers))
            }
            None => {
                shard.stats.note_acquisition(true);
                None
            }
        }
    }

    /// Acquires the shard holding `key` **asynchronously**: the fast path
    /// is one raw trylock; a busy shard parks the task in the table's
    /// [`WakerSet`] (register → re-try → suspend, the lost-wakeup-free
    /// protocol) until some release notifies. Cancel-safe: dropping the
    /// future leaves at most a stale waker, which the next notification
    /// drains — it can never acquire anything.
    pub async fn guard_async<Q>(&self, key: &Q) -> ShardGuard<'_, K, V, L>
    where
        K: Borrow<Q>,
        Q: Hash + ?Sized,
    {
        let idx = self.shard_index(key);
        let mut waiter = trace::Waiter::new();
        std::future::poll_fn(|cx| match self.try_lock_shard_idx(idx) {
            Some(g) => {
                waiter.finish("shard.lock_wait");
                Poll::Ready(g)
            }
            None => {
                waiter.arm(trace::current());
                self.wakers.register_current(cx);
                match self.try_lock_shard_idx(idx) {
                    Some(g) => {
                        waiter.finish("shard.lock_wait");
                        Poll::Ready(g)
                    }
                    None => Poll::Pending,
                }
            }
        })
        .await
    }

    /// Asynchronous [`Self::read_guard`]: like [`Self::guard_async`] but
    /// in read mode, so RW-capable algorithms admit concurrent async
    /// readers of a hot shard together.
    pub async fn read_guard_async<Q>(&self, key: &Q) -> ShardReadGuard<'_, K, V, L>
    where
        K: Borrow<Q> + Sync,
        Q: Hash + ?Sized,
        V: Sync,
    {
        let idx = self.shard_index(key);
        let mut waiter = trace::Waiter::new();
        std::future::poll_fn(|cx| match self.try_read_shard_idx(idx) {
            Some(g) => {
                waiter.finish("shard.lock_wait");
                Poll::Ready(g)
            }
            None => {
                waiter.arm(trace::current());
                self.wakers.register_current(cx);
                match self.try_read_shard_idx(idx) {
                    Some(g) => {
                        waiter.finish("shard.lock_wait");
                        Poll::Ready(g)
                    }
                    None => Poll::Pending,
                }
            }
        })
        .await
    }

    /// Asynchronous [`Self::with`]: runs `f` on the slot for `key` under
    /// the shard's read mode, awaiting a busy shard instead of spinning a
    /// thread on it. `f` runs synchronously within one poll — the guard
    /// never lives across a suspension point.
    pub async fn with_async<Q, R>(&self, key: &Q, f: impl FnOnce(Option<&V>) -> R) -> R
    where
        K: Borrow<Q> + Sync,
        Q: Hash + Eq + ?Sized,
        V: Sync,
    {
        let g = self.read_guard_async(key).await;
        f(g.get(key))
    }

    /// Asynchronous [`Self::update`]: read-modify-write on `key`'s slot,
    /// awaiting the owning shard. Same fill/replace/empty and
    /// panic-preservation semantics.
    pub async fn update_async<R>(&self, key: K, f: impl FnOnce(&mut Option<V>) -> R) -> R {
        let mut g = self.guard_async(&key).await;
        update_slot(&mut g, key, f)
    }

    /// Asynchronous [`Self::with_two`]: the atomic two-slot RMW, awaiting
    /// both shards instead of spinning. Deadlock freedom carries over from
    /// the synchronous protocol — shards are taken in index order, the
    /// higher by trylock, and on failure **both** are dropped before the
    /// task parks (no hold-and-wait across a suspension, ever). Each full
    /// attempt runs within a single poll, so cancellation between attempts
    /// leaves no locks held.
    ///
    /// Panics when `a == b`, as [`Self::with_two`] does.
    pub async fn with_two_async<R>(
        &self,
        a: K,
        b: K,
        f: impl FnOnce(&mut Option<V>, &mut Option<V>) -> R,
    ) -> R {
        assert!(a != b, "with_two_async requires distinct keys");
        let (ia, ib) = (self.shard_index(&a), self.shard_index(&b));
        if ia == ib {
            let mut g = self.guard_async(&a).await;
            return rmw_two_same_shard(&mut g, a, b, f);
        }
        let (lo, hi) = (ia.min(ib), ia.max(ib));
        let mut waiter = trace::Waiter::new();
        let (g_lo, g_hi) = std::future::poll_fn(|cx| {
            // One ordered attempt per poll: lo by trylock (parking when
            // busy), then hi by trylock (dropping lo and parking when
            // busy). Registration always precedes the re-try, so the
            // releases that matter cannot slip between.
            let g_lo = match self.try_lock_shard_idx(lo) {
                Some(g) => g,
                None => {
                    waiter.arm(trace::current());
                    self.wakers.register_current(cx);
                    match self.try_lock_shard_idx(lo) {
                        Some(g) => g,
                        None => return Poll::Pending,
                    }
                }
            };
            match self.try_lock_shard_idx(hi) {
                Some(g_hi) => {
                    waiter.finish("shard.lock_wait");
                    Poll::Ready((g_lo, g_hi))
                }
                None => {
                    waiter.arm(trace::current());
                    self.wakers.register_current(cx);
                    match self.try_lock_shard_idx(hi) {
                        Some(g_hi) => {
                            waiter.finish("shard.lock_wait");
                            Poll::Ready((g_lo, g_hi))
                        }
                        None => {
                            drop(g_lo); // no hold-and-wait across the park
                            Poll::Pending
                        }
                    }
                }
            }
        })
        .await;
        let (mut g_a, mut g_b) = if ia == lo { (g_lo, g_hi) } else { (g_hi, g_lo) };
        rmw_two_cross_shard(&mut g_a, &mut g_b, a, b, f)
    }
}

impl<K: Hash + Eq, V: Clone, L: RawTryLock> ShardedTable<K, V, L> {
    /// Asynchronous [`Self::get`]: a point lookup that *awaits* a busy
    /// shard (read mode) instead of blocking a thread on it.
    pub async fn get_async<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q> + Sync,
        Q: Hash + Eq + ?Sized,
        V: Sync,
    {
        self.read_guard_async(key).await.get(key).cloned()
    }
}

/// The [`ShardedTable::update`] body, shared with the async variant:
/// fill/replace/empty semantics, slot contents preserved across a panic.
fn update_slot<K: Hash + Eq, V, R>(
    map: &mut HashMap<K, V>,
    key: K,
    f: impl FnOnce(&mut Option<V>) -> R,
) -> R {
    use std::collections::hash_map::Entry;
    match map.entry(key) {
        Entry::Vacant(e) => {
            let mut slot = None;
            let r = f(&mut slot);
            if let Some(v) = slot {
                e.insert(v);
            }
            r
        }
        Entry::Occupied(e) => {
            let (key, v) = e.remove_entry();
            let mut slot = Some(v);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut slot)));
            // Restore before unwinding further: a panicking closure must
            // not delete the entry as a side effect.
            if let Some(v) = slot {
                map.insert(key, v);
            }
            match r {
                Ok(r) => r,
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    }
}

/// The same-shard [`ShardedTable::with_two`] body, shared with the async
/// variant: both slots taken out, run, restored (panic-safely).
fn rmw_two_same_shard<K: Hash + Eq, V, R>(
    map: &mut HashMap<K, V>,
    a: K,
    b: K,
    f: impl FnOnce(&mut Option<V>, &mut Option<V>) -> R,
) -> R {
    let mut slot_a = map.remove(&a);
    let mut slot_b = map.remove(&b);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut slot_a, &mut slot_b)));
    if let Some(v) = slot_a {
        map.insert(a, v);
    }
    if let Some(v) = slot_b {
        map.insert(b, v);
    }
    match r {
        Ok(r) => r,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// The cross-shard [`ShardedTable::with_two`] body, shared with the async
/// variant (both shard guards already held, in index order).
fn rmw_two_cross_shard<K: Hash + Eq, V, R>(
    map_a: &mut HashMap<K, V>,
    map_b: &mut HashMap<K, V>,
    a: K,
    b: K,
    f: impl FnOnce(&mut Option<V>, &mut Option<V>) -> R,
) -> R {
    let mut slot_a = map_a.remove(&a);
    let mut slot_b = map_b.remove(&b);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut slot_a, &mut slot_b)));
    if let Some(v) = slot_a {
        map_a.insert(a, v);
    }
    if let Some(v) = slot_b {
        map_b.insert(b, v);
    }
    match r {
        Ok(r) => r,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// RAII guard over one shard's map; releases the shard lock on drop, then
/// notifies the table's parked asynchronous waiters ([`WakerSet`]) — the
/// release-then-notify order is what keeps the sync and async user
/// populations of one shard free of lost wakeups.
///
/// Derefs to the shard's `HashMap`, so the full map API is available for
/// the duration of the critical section. `!Send`, like every guard in this
/// workspace: queue locks and Hemlock's Grant protocol require the unlock
/// to run on the acquiring thread.
pub struct ShardGuard<'a, K, V, L: RawLock> {
    /// `ManuallyDrop` so `Drop` can release the raw lock *before* the
    /// waker notification (plain field order would notify first, opening a
    /// park-after-notify window).
    guard: ManuallyDrop<MutexGuard<'a, HashMap<K, V>, L>>,
    wakers: &'a WakerSet,
    /// Trace id of the sampled request holding this guard (0 = untraced);
    /// drop emits a `shard.lock_hold` span covering acquire-to-release.
    trace: u64,
    /// Acquire timestamp for the hold span (unset when untraced).
    trace_t0: u64,
}

impl<'a, K, V, L: RawLock> ShardGuard<'a, K, V, L> {
    fn wrap(guard: MutexGuard<'a, HashMap<K, V>, L>, wakers: &'a WakerSet) -> Self {
        // One relaxed load when tracing is off (`trace::current`'s gate).
        let trace = trace::current();
        Self {
            guard: ManuallyDrop::new(guard),
            wakers,
            trace,
            trace_t0: if trace != 0 { trace::now_ns() } else { 0 },
        }
    }
}

impl<K, V, L: RawLock> Deref for ShardGuard<'_, K, V, L> {
    type Target = HashMap<K, V>;
    #[inline]
    fn deref(&self) -> &HashMap<K, V> {
        &self.guard
    }
}

impl<K, V, L: RawLock> DerefMut for ShardGuard<'_, K, V, L> {
    #[inline]
    fn deref_mut(&mut self) -> &mut HashMap<K, V> {
        &mut self.guard
    }
}

impl<K, V, L: RawLock> Drop for ShardGuard<'_, K, V, L> {
    #[inline]
    fn drop(&mut self) {
        // Safety: dropped exactly once, here; the field is never touched
        // again. Release first, notify second (see the type docs).
        unsafe { ManuallyDrop::drop(&mut self.guard) };
        self.wakers.notify_all();
        if self.trace != 0 {
            // Async kind: `with_two` drops its two guards in declaration
            // order, so hold intervals on one thread may overlap without
            // nesting — b/e events tolerate that, "X" events do not.
            trace::span_at(
                self.trace,
                "shard.lock_hold",
                self.trace_t0,
                trace::now_ns(),
                trace::SpanKind::Async,
            );
        }
    }
}

/// Shared RAII guard over one shard's map; releases the shard's read mode
/// on drop (then notifies async waiters, as [`ShardGuard`] does). `Deref`
/// only — with an RW-capable lock algorithm, several of these may view the
/// same shard concurrently, so no `&mut` is ever handed out. `!Send` like
/// [`ShardGuard`].
pub struct ShardReadGuard<'a, K, V, L: RawLock> {
    /// See [`ShardGuard::guard`] for the `ManuallyDrop` rationale.
    guard: ManuallyDrop<ReadGuard<'a, HashMap<K, V>, L>>,
    wakers: &'a WakerSet,
    /// See [`ShardGuard`]: hold-span trace id (0 = untraced) and start.
    trace: u64,
    trace_t0: u64,
}

impl<'a, K, V, L: RawLock> ShardReadGuard<'a, K, V, L> {
    fn wrap(guard: ReadGuard<'a, HashMap<K, V>, L>, wakers: &'a WakerSet) -> Self {
        let trace = trace::current();
        Self {
            guard: ManuallyDrop::new(guard),
            wakers,
            trace,
            trace_t0: if trace != 0 { trace::now_ns() } else { 0 },
        }
    }
}

impl<K, V, L: RawLock> Deref for ShardReadGuard<'_, K, V, L> {
    type Target = HashMap<K, V>;
    #[inline]
    fn deref(&self) -> &HashMap<K, V> {
        &self.guard
    }
}

impl<K, V, L: RawLock> Drop for ShardReadGuard<'_, K, V, L> {
    #[inline]
    fn drop(&mut self) {
        // Safety: dropped exactly once, here. Release, then notify.
        unsafe { ManuallyDrop::drop(&mut self.guard) };
        self.wakers.notify_all();
        if self.trace != 0 {
            trace::span_at(
                self.trace,
                "shard.lock_hold",
                self.trace_t0,
                trace::now_ns(),
                trace::SpanKind::Async,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Table<K, V> = ShardedTable<K, V, Hemlock>;

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        for (ask, got) in [(1, 1), (2, 2), (3, 4), (5, 8), (64, 64), (100, 128)] {
            let t: Table<u32, u32> = ShardedTable::with_shards(ask);
            assert_eq!(t.shards(), got);
        }
        let t: Table<u32, u32> = ShardedTable::with_shards(0);
        assert_eq!(t.shards(), 1);
        assert!(ShardedTable::<u32, u32, Hemlock>::new().shards() >= 16);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let t: Table<&'static str, i32> = ShardedTable::with_shards(8);
        assert_eq!(t.insert("a", 1), None);
        assert_eq!(t.insert("a", 2), Some(1));
        assert_eq!(t.get(&"a"), Some(2));
        assert!(t.contains_key(&"a"));
        assert_eq!(t.remove(&"a"), Some(2));
        assert_eq!(t.get(&"a"), None);
        assert!(t.is_empty());
    }

    #[test]
    fn update_covers_insert_mutate_delete() {
        let t: Table<u32, u32> = ShardedTable::with_shards(4);
        // Absent -> filled.
        t.update(7, |slot| {
            assert_eq!(*slot, None);
            *slot = Some(1);
        });
        // Present -> mutated, returning a value.
        let doubled = t.update(7, |slot| {
            let v = slot.unwrap() * 2;
            *slot = Some(v);
            v
        });
        assert_eq!(doubled, 2);
        // Present -> emptied.
        t.update(7, |slot| *slot = None);
        assert_eq!(t.get(&7), None);
    }

    #[test]
    fn with_observes_without_mutating() {
        let t: Table<u32, String> = ShardedTable::with_shards(2);
        t.insert(1, "one".into());
        assert_eq!(t.with(&1, |s| s.map(String::len)), Some(3));
        assert!(!t.with(&2, |s| s.is_some()));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn guard_allows_multi_op_critical_sections() {
        let t: Table<u32, u32> = ShardedTable::with_shards(1);
        {
            let mut g = t.guard(&1);
            g.entry(1).or_insert(10); // full HashMap API through the guard
            g.insert(2, 20); // single shard: same guard covers both keys
        }
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        let t: Table<u64, ()> = ShardedTable::with_shards(32);
        for k in 0..1000u64 {
            let i = t.shard_index(&k);
            assert!(i < t.shards());
            assert_eq!(i, t.shard_index(&k), "same key, same shard");
        }
    }

    #[test]
    fn distribution_spreads_across_shards() {
        let t: Table<u64, ()> = ShardedTable::with_shards(16);
        let mut counts = vec![0usize; t.shards()];
        for k in 0..16_000u64 {
            counts[t.shard_index(&k)] += 1;
        }
        // Uniform share is 1000; SipHash should keep every shard within a
        // generous ±50% band (binomial σ ≈ 31, so ±500 is > 16σ).
        for (i, &c) in counts.iter().enumerate() {
            assert!((500..=1500).contains(&c), "shard {i} got {c} of 16000");
        }
    }

    #[test]
    fn stats_census_counts_acquisitions() {
        let t: Table<u32, u32> = ShardedTable::with_shards(4);
        for k in 0..100 {
            t.insert(k, k);
        }
        let stats = t.stats();
        assert_eq!(stats.acquisitions(), 100);
        assert_eq!(stats.contended(), 0, "single thread never contends");
        assert_eq!(stats.shards.len(), 4);
        t.reset_stats();
        assert_eq!(t.stats().acquisitions(), 0);
    }

    #[test]
    fn try_guard_reports_busy_shards() {
        let t: Table<u32, u32> = ShardedTable::with_shards(1);
        let g = t.guard(&1);
        assert!(t.try_guard(&1).is_none());
        drop(g);
        assert!(t.try_guard(&1).is_some());
        let stats = t.stats();
        assert_eq!(stats.acquisitions(), 3);
        assert_eq!(stats.contended(), 1);
    }

    #[test]
    fn try_with_and_timed_guards_respect_a_busy_shard() {
        use std::time::Duration;
        let t: Table<u32, u32> = ShardedTable::with_shards(1);
        t.insert(1, 10);
        // Free: all bounded paths succeed.
        assert_eq!(t.try_with(&1, |v| v.copied()), Some(Some(10)));
        assert!(t.try_guard_for(&1, Duration::from_millis(5)).is_some());
        assert!(t.try_read_guard_for(&1, Duration::from_millis(5)).is_some());
        // Busy: they refuse or time out instead of stalling.
        let g = t.guard(&1);
        assert_eq!(t.try_with(&1, |_| ()), None);
        let t0 = std::time::Instant::now();
        assert!(t.try_guard_for(&1, Duration::from_millis(10)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert!(t
            .try_read_guard_for(&1, Duration::from_millis(10))
            .is_none());
        drop(g);
        // The aborted attempts left the shard fully usable.
        assert_eq!(t.get(&1), Some(10));
    }

    #[test]
    fn with_two_moves_value_across_shards_atomically() {
        let t: Table<u32, u32> = ShardedTable::with_shards(8);
        t.insert(3, 30);
        // Transfer: drain one slot into the other, across shard locks.
        let moved = t.with_two(3, 4, |a, b| {
            let v = a.take().expect("source present");
            *b = Some(b.take().unwrap_or(0) + v);
            v
        });
        assert_eq!(moved, 30);
        assert_eq!(t.get(&3), None);
        assert_eq!(t.get(&4), Some(30));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn with_two_same_shard_and_panic_preserve_slots() {
        let t: Table<u32, u32> = ShardedTable::with_shards(1); // force same shard
        t.insert(1, 10);
        t.insert(2, 20);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.with_two(1, 2, |a, _b| {
                *a = Some(11); // applied before the panic
                panic!("mid-transaction");
            })
        }));
        assert!(r.is_err());
        // Slot contents at panic time survived; nothing vanished.
        assert_eq!(t.get(&1), Some(11));
        assert_eq!(t.get(&2), Some(20));
    }

    #[test]
    fn crossing_with_two_pairs_never_deadlock() {
        use std::sync::Arc;
        // Two shards, two threads, opposite key orders: the ordered
        // try+backoff protocol must make progress on every schedule.
        let t: Arc<Table<u32, u64>> = Arc::new(ShardedTable::with_shards(2));
        // Find two keys on distinct shards.
        let (ka, kb) = {
            let mut ka = 0;
            let mut kb = 1;
            'outer: for a in 0..64u32 {
                for b in 0..64u32 {
                    if a != b && t.shard_index(&a) != t.shard_index(&b) {
                        ka = a;
                        kb = b;
                        break 'outer;
                    }
                }
            }
            (ka, kb)
        };
        t.insert(ka, 0);
        t.insert(kb, 0);
        std::thread::scope(|s| {
            for flip in [false, true] {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let (x, y) = if flip { (kb, ka) } else { (ka, kb) };
                    for _ in 0..2_000 {
                        t.with_two(x, y, |a, b| {
                            *a = Some(a.unwrap_or(0) + 1);
                            *b = Some(b.unwrap_or(0) + 1);
                        });
                    }
                });
            }
        });
        // Both transactions fully applied: each key saw every increment.
        assert_eq!(t.get(&ka), Some(4_000));
        assert_eq!(t.get(&kb), Some(4_000));
    }

    #[test]
    fn footprint_prices_shards_threads_and_the_combining_layer() {
        let t: Table<u32, u32> = ShardedTable::with_shards(64);
        assert_eq!(t.lock_meta().name, "Hemlock");
        // Shard locks + thread state, plus the combining layer: one
        // Hemlock word per publication-list lock and the list header.
        let combining = Hemlock::META.footprint_bytes(64, 0) + 64 * core::mem::size_of::<Vec<()>>();
        assert_eq!(
            t.footprint_bytes(8),
            Hemlock::META.footprint_bytes(64, 8) + combining
        );
        // One-word locks: 64 shards cost 64 words of lock space.
        assert_eq!(
            Hemlock::META.footprint_bytes(64, 0),
            64 * core::mem::size_of::<usize>()
        );
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        let t: Table<u64, u64> = ShardedTable::with_shards(8);
        let threads = 4u64;
        let per = 2_000u64;
        std::thread::scope(|s| {
            for tid in 0..threads {
                let t = &t;
                s.spawn(move || {
                    // Disjoint key ranges: every write must survive.
                    for i in 0..per {
                        let k = tid * per + i;
                        t.insert(k, k);
                        assert_eq!(t.get(&k), Some(k));
                        if i % 3 == 0 {
                            t.remove(&k);
                        }
                    }
                });
            }
        });
        let expect: usize = (0..threads * per).filter(|i| i % per % 3 != 0).count();
        assert_eq!(t.len(), expect);
        assert!(t.stats().acquisitions() >= threads * per * 2);
    }

    #[test]
    fn update_preserves_the_entry_when_the_closure_panics() {
        let t: Table<u32, u32> = ShardedTable::with_shards(2);
        t.insert(1, 10);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.update(1, |slot| {
                *slot = Some(11); // applied before the panic
                panic!("mid-update");
            })
        }));
        assert!(r.is_err());
        // The slot's content at panic time survived; nothing vanished.
        assert_eq!(t.get(&1), Some(11));
        // A panicking closure on a vacant slot leaves the key absent.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.update(2, |_| panic!("vacant"))
        }));
        assert!(r.is_err());
        assert_eq!(t.get(&2), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn rw_lock_admits_concurrent_readers_of_one_shard() {
        use hemlock_locks::rw::HemlockRw;
        // One shard: every key contends on the same lock, so a concurrent
        // reader completing while we hold a read guard proves sharing.
        let t: ShardedTable<u32, u32, HemlockRw> = ShardedTable::with_shards(1);
        t.insert(1, 10);
        let g = t.read_guard(&1);
        assert_eq!(g.get(&1), Some(&10));
        std::thread::scope(|s| {
            s.spawn(|| {
                // Must not block behind the main thread's read hold.
                assert_eq!(t.get(&1), Some(10));
                assert!(t.contains_key(&1));
                assert_eq!(t.with(&1, |v| v.copied()), Some(10));
            });
        });
        drop(g);
        // Writers still exclude: the census keeps counting both modes.
        t.insert(1, 11);
        assert_eq!(t.get(&1), Some(11));
        assert!(t.stats().acquisitions() >= 6);
    }

    #[test]
    fn async_ops_roundtrip_uncontended() {
        use hemlock_harness::executor::block_on;
        let t: Table<u32, u32> = ShardedTable::with_shards(4);
        block_on(async {
            t.update_async(1, |slot| *slot = Some(10)).await;
            assert_eq!(t.get_async(&1).await, Some(10));
            assert_eq!(t.with_async(&1, |v| v.copied()).await, Some(10));
            let moved = t
                .with_two_async(1, 2, |a, b| {
                    let v = a.take().expect("present");
                    *b = Some(v + 1);
                    v
                })
                .await;
            assert_eq!(moved, 10);
            assert_eq!(t.get_async(&1).await, None);
            assert_eq!(t.get_async(&2).await, Some(11));
        });
    }

    #[test]
    fn async_tasks_and_sync_threads_share_the_table() {
        use hemlock_harness::executor::TaskPool;
        use std::sync::Arc;
        // One shard: every operation contends on a single lock, so async
        // waiters park behind sync holders and vice versa — completion
        // proves the release-notification protocol loses no wakeups.
        let t: Arc<Table<u32, u64>> = Arc::new(ShardedTable::with_shards(1));
        t.insert(0, 0);
        let pool = TaskPool::new(2);
        let per = 500u64;
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let t = Arc::clone(&t);
                pool.spawn(async move {
                    for _ in 0..per {
                        t.update_async(0, |slot| *slot = Some(slot.unwrap_or(0) + 1))
                            .await;
                    }
                })
            })
            .collect();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for _ in 0..per {
                        t.update(0, |slot| *slot = Some(slot.unwrap_or(0) + 1));
                    }
                });
            }
        });
        for h in handles {
            h.join();
        }
        assert_eq!(t.get(&0), Some(5 * per));
    }

    #[test]
    fn crossing_with_two_async_pairs_never_deadlock() {
        use hemlock_harness::executor::TaskPool;
        use std::sync::Arc;
        let t: Arc<Table<u32, u64>> = Arc::new(ShardedTable::with_shards(2));
        let (ka, kb) = {
            let (mut ka, mut kb) = (0, 1);
            'outer: for a in 0..64u32 {
                for b in 0..64u32 {
                    if a != b && t.shard_index(&a) != t.shard_index(&b) {
                        ka = a;
                        kb = b;
                        break 'outer;
                    }
                }
            }
            (ka, kb)
        };
        let pool = TaskPool::new(2);
        let handles: Vec<_> = [false, true]
            .into_iter()
            .map(|flip| {
                let t = Arc::clone(&t);
                pool.spawn(async move {
                    let (x, y) = if flip { (kb, ka) } else { (ka, kb) };
                    for _ in 0..1_000 {
                        t.with_two_async(x, y, |a, b| {
                            *a = Some(a.unwrap_or(0) + 1);
                            *b = Some(b.unwrap_or(0) + 1);
                        })
                        .await;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(t.get(&ka), Some(2_000));
        assert_eq!(t.get(&kb), Some(2_000));
    }

    #[test]
    fn dropped_async_guard_future_leaves_the_shard_usable() {
        use std::future::Future;
        use std::sync::Arc;
        use std::task::{Context, Wake, Waker};
        struct Noop;
        impl Wake for Noop {
            fn wake(self: Arc<Self>) {}
        }
        let t: Table<u32, u32> = ShardedTable::with_shards(1);
        let held = t.guard(&1);
        {
            let fut = t.guard_async(&1);
            let mut fut = Box::pin(fut);
            let waker = Waker::from(Arc::new(Noop));
            assert!(fut
                .as_mut()
                .poll(&mut Context::from_waker(&waker))
                .is_pending());
            // Dropping the pending future (cancellation) must not wedge
            // the shard: the registered waker is stale, nothing more.
        }
        drop(held);
        t.insert(1, 1);
        assert_eq!(t.get(&1), Some(1));
    }

    #[test]
    fn guard_drop_on_panic_releases_the_shard() {
        let t: Table<u32, u32> = ShardedTable::with_shards(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = t.guard(&1);
            g.insert(1, 1);
            panic!("inside shard critical section");
        }));
        assert!(r.is_err());
        // The shard is usable again and the write persisted.
        assert_eq!(t.get(&1), Some(1));
        t.insert(1, 2);
        assert_eq!(t.get(&1), Some(2));
    }
}
