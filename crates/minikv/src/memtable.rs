//! The mutable in-memory table — now sharded.
//!
//! Plays the role of LevelDB's active memtable: a map from keys to values
//! (or tombstones) with an approximate byte budget that triggers a freeze
//! into an immutable [`crate::run::Run`]. The original revision was a plain
//! `BTreeMap` that could only be touched under the database's central
//! mutex; this one is a [`ShardedTable`] from `hemlock-shard`, so point
//! reads and writes synchronize on one *shard* lock each and run
//! concurrently — the central mutex is reserved for structural transitions
//! (freeze, compaction, run-list snapshots; see [`crate::db`]). Point
//! *reads* ([`Memtable::get`], [`Memtable::get_vec`]) take their shard in
//! read mode, so an RW-capable lock algorithm lets readers of the same hot
//! shard proceed together. Batches ([`Memtable::apply_batch`] and its
//! async form, the path every async caller takes) go through the table's
//! flat-combining layer and take each shard they touch exclusively.
//!
//! The shard locks use the same algorithm `L` as the database's central
//! mutex, so a benchmark that swaps `--lock` swaps *every* lock in the
//! system, exactly like the paper's process-wide `LD_PRELOAD`
//! interposition.

use crate::op::KvOp;
use core::sync::atomic::{AtomicIsize, Ordering};
use hemlock_core::hemlock::Hemlock;
use hemlock_core::raw::{RawLock, RawTryLock};
use hemlock_shard::{ShardedTable, TableOp, TableResult, TableStats};

/// A value or a deletion marker.
pub type Slot = Option<Box<[u8]>>;

/// Fixed per-entry overhead charged to the byte budget (map node + size
/// bookkeeping), as in the original accounting.
const ENTRY_OVERHEAD: usize = 16;

fn entry_bytes(key: &[u8], slot: &Slot) -> isize {
    (key.len() + slot.as_ref().map_or(0, |v| v.len()) + ENTRY_OVERHEAD) as isize
}

/// Byte-budget delta of writing a `new_len`-byte slot over `old` (the
/// displaced slot, `None` for a fresh key). The single accounting formula
/// both `insert` and the batch path charge, so the two write paths cannot
/// drift apart.
fn insert_delta(key: &[u8], new_len: usize, old: Option<&Slot>) -> isize {
    match old {
        Some(old) => new_len as isize - old.as_ref().map_or(0, |v| v.len()) as isize,
        None => (key.len() + new_len + ENTRY_OVERHEAD) as isize,
    }
}

/// Mutable concurrent table: keys scatter over independently locked shards.
///
/// All operations take `&self`; the per-shard locks (and, for the byte
/// budget, a relaxed atomic) provide the synchronization.
#[derive(Debug, Default)]
pub struct Memtable<L: RawLock = Hemlock> {
    map: ShardedTable<Box<[u8]>, Slot, L>,
    /// Approximate live bytes. Updated inside the owning shard's critical
    /// section so that a draining freeze and a racing insert can never
    /// double-count (signed: an overwrite by a smaller value shrinks it).
    approx_bytes: AtomicIsize,
}

impl<L: RawLock> Memtable<L> {
    /// Creates an empty memtable with a machine-sized shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty memtable striped over `shards` locks (rounded up
    /// to a power of two); `0` picks the machine-sized default, matching
    /// the `Options::mem_shards` contract.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            map: if shards == 0 {
                ShardedTable::new()
            } else {
                ShardedTable::with_shards(shards)
            },
            approx_bytes: AtomicIsize::new(0),
        }
    }

    /// Number of shard locks guarding this table.
    pub fn shards(&self) -> usize {
        self.map.shards()
    }

    /// Inserts or overwrites `key`. `None` is a tombstone.
    pub fn insert(&self, key: &[u8], value: Slot) {
        let vlen = value.as_ref().map_or(0, |v| v.len());
        self.map.update(key.into(), |slot| {
            let delta = insert_delta(key, vlen, slot.as_ref());
            *slot = Some(value);
            // Inside the shard critical section: drain subtracts
            // what it actually removes, so the budget can never leak.
            self.approx_bytes.fetch_add(delta, Ordering::Relaxed);
        });
    }

    /// Point lookup. Outer `None` = key unknown here; `Some(None)` = known
    /// deleted (tombstone). Clones the slot out so the shard lock is held
    /// only for the probe.
    pub fn get(&self, key: &[u8]) -> Option<Slot> {
        self.map.with(key, |slot| slot.cloned())
    }

    /// Point lookup materializing the value as a `Vec` in a single copy
    /// (the shape `Db::get` returns), made under the shard lock.
    pub fn get_vec(&self, key: &[u8]) -> Option<Option<Vec<u8>>> {
        self.map
            .with(key, |slot| slot.map(|s| s.as_deref().map(<[u8]>::to_vec)))
    }

    /// Number of entries (including tombstones).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Lowers a [`KvOp`] batch onto the sharded table's vocabulary. A
    /// `Delete` becomes a tombstone *write* (`Put(key, None)`), never a
    /// [`TableOp::Remove`]: removing the entry would resurrect whatever an
    /// older run holds for the key, exactly the bug LSM tombstones exist
    /// to prevent.
    fn lower_batch(ops: &[KvOp]) -> Vec<TableOp<Box<[u8]>, Slot>> {
        ops.iter()
            .map(|op| match op {
                KvOp::Get(k) => TableOp::Get(k.as_slice().into()),
                KvOp::Put(k, v) => TableOp::Put(k.as_slice().into(), Some(v.as_slice().into())),
                KvOp::Delete(k) => TableOp::Put(k.as_slice().into(), None),
            })
            .collect()
    }

    /// Charges the byte budget for a completed batch, **post-hoc** from the
    /// displaced slots the writes returned. Unlike the point paths, which
    /// charge inside the shard critical section, the batch may have been
    /// serviced by a *combiner* on another thread — so the charge happens
    /// here, after completion. This stays exact under racing drains because
    /// the accounting telescopes: every write's delta is computed against
    /// the slot it actually displaced (serialized per shard), and
    /// [`Memtable::drain`] subtracts the bytes it actually removes.
    /// The one leak is an *async batch cancelled after its ops were
    /// claimed*: the ops land but the discarded results are never charged,
    /// leaving `approx_bytes` to understate until the next freeze re-zeroes
    /// it — acceptable for an approximate budget whose only job is to trip
    /// freezes.
    fn charge_batch(&self, ops: &[TableOp<Box<[u8]>, Slot>], results: &[TableResult<Slot>]) {
        let mut delta = 0isize;
        for (op, res) in ops.iter().zip(results) {
            if let (TableOp::Put(key, slot), TableResult::Prev(prev)) = (op, res) {
                let vlen = slot.as_ref().map_or(0, |v| v.len());
                delta += insert_delta(key, vlen, prev.as_ref());
            }
        }
        if delta != 0 {
            self.approx_bytes.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Applies a [`KvOp`] batch through the sharded table's flat-combining
    /// layer ([`ShardedTable::apply_batch`]): one lock acquisition per
    /// shard touched, posted to a combiner when the shard is contended.
    /// Results are positional and in the raw table vocabulary — the caller
    /// ([`crate::Db`]) distinguishes a memtable miss (`Value(None)`) from a
    /// tombstone hit (`Value(Some(None))`) to decide which gets still need
    /// the run tier.
    pub fn apply_batch(&self, ops: &[KvOp]) -> Vec<TableResult<Slot>>
    where
        L: RawTryLock,
    {
        let lowered = Self::lower_batch(ops);
        let results = self.map.apply_batch(&lowered);
        self.charge_batch(&lowered, &results);
        results
    }

    /// Asynchronous [`Memtable::apply_batch`]: a contended shard parks the
    /// task on its posted record instead of the thread.
    pub async fn apply_batch_async(&self, ops: &[KvOp]) -> Vec<TableResult<Slot>>
    where
        L: RawTryLock,
    {
        let lowered = Self::lower_batch(ops);
        let results = self.map.apply_batch_async(&lowered).await;
        self.charge_batch(&lowered, &results);
        results
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate heap footprint driving freeze decisions.
    pub fn approximate_bytes(&self) -> usize {
        self.approx_bytes.load(Ordering::Relaxed).max(0) as usize
    }

    /// Drains the table into `(key, slot)` pairs, in no particular order,
    /// one shard at a time, returning the byte budget to zero for
    /// everything removed. Entries inserted concurrently into
    /// already-drained shards survive into the next generation (the caller
    /// — the freeze path — holds the central mutex, so at most one drain
    /// runs at a time).
    pub fn drain(&self) -> Vec<(Box<[u8]>, Slot)> {
        let mut out = Vec::new();
        for i in 0..self.map.shards() {
            let mut g = self.map.guard_shard(i);
            let drained: isize = g.iter().map(|(k, s)| entry_bytes(k, s)).sum();
            self.approx_bytes.fetch_sub(drained, Ordering::Relaxed);
            out.extend(std::mem::take(&mut *g));
        }
        out
    }

    /// Consumes the table into `(key, slot)` pairs, in no particular order.
    pub fn into_entries(self) -> Vec<(Box<[u8]>, Slot)> {
        self.drain()
    }

    /// Per-shard lock census (diagnostics; see `hemlock-shard`).
    pub fn shard_stats(&self) -> TableStats {
        self.map.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Mem = Memtable<Hemlock>;

    #[test]
    fn insert_get_roundtrip() {
        let m = Mem::new();
        m.insert(b"k1", Some(b"v1".to_vec().into()));
        assert_eq!(m.get(b"k1"), Some(Some(b"v1".to_vec().into())));
        assert_eq!(m.get(b"nope"), None);
    }

    #[test]
    fn tombstone_is_distinguishable_from_absence() {
        let m = Mem::new();
        m.insert(b"k", None);
        assert_eq!(m.get(b"k"), Some(None));
        assert_eq!(m.get(b"other"), None);
    }

    #[test]
    fn overwrite_updates_size_accounting() {
        let m = Mem::new();
        m.insert(b"k", Some(vec![0u8; 100].into()));
        let s1 = m.approximate_bytes();
        m.insert(b"k", Some(vec![0u8; 10].into()));
        assert!(m.approximate_bytes() < s1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn into_entries_returns_every_entry() {
        let m = Mem::new();
        for k in [b"c".as_slice(), b"a", b"b"] {
            m.insert(k, Some(k.to_vec().into()));
        }
        let mut entries = m.into_entries();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let keys: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"b", b"c"]);
        assert!(entries.iter().all(|(k, v)| v.as_deref() == Some(&**k)));
    }

    #[test]
    fn drain_zeroes_the_byte_budget_exactly() {
        let m = Mem::with_shards(8);
        for i in 0..500u32 {
            m.insert(format!("key{i:04}").as_bytes(), Some(vec![1; 32].into()));
        }
        // Overwrites and tombstones stress both accounting arms.
        for i in 0..250u32 {
            m.insert(format!("key{i:04}").as_bytes(), Some(vec![2; 8].into()));
        }
        m.insert(b"key0000", None);
        assert!(m.approximate_bytes() > 0);
        let drained = m.drain();
        assert_eq!(drained.len(), 500);
        assert_eq!(m.approximate_bytes(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn batch_byte_accounting_matches_the_point_paths() {
        // The same op sequence, issued point-wise and batched, must leave
        // the byte budget identical — overwrites, tombstones, and fresh
        // keys exercise both arms of `insert_delta`.
        let point = Mem::with_shards(4);
        let batched = Mem::with_shards(4);
        let ops = vec![
            KvOp::Put(b"a".to_vec(), vec![1; 100]),
            KvOp::Put(b"b".to_vec(), vec![2; 50]),
            KvOp::Put(b"a".to_vec(), vec![3; 10]), // shrink overwrite
            KvOp::Delete(b"b".to_vec()),           // tombstone overwrite
            KvOp::Delete(b"c".to_vec()),           // fresh tombstone
            KvOp::Get(b"a".to_vec()),
        ];
        for op in &ops {
            match op {
                KvOp::Put(k, v) => point.insert(k, Some(v.as_slice().into())),
                KvOp::Delete(k) => point.insert(k, None),
                KvOp::Get(k) => {
                    point.get(k);
                }
            }
        }
        let results = batched.apply_batch(&ops);
        assert_eq!(batched.approximate_bytes(), point.approximate_bytes());
        assert!(batched.approximate_bytes() > 0);
        // Positional answers: the get sees the shrunken overwrite.
        assert_eq!(
            results[5],
            TableResult::Value(Some(Some(vec![3u8; 10].into())))
        );
        // Draining still returns the budget to exactly zero.
        batched.drain();
        assert_eq!(batched.approximate_bytes(), 0);
    }

    #[test]
    fn concurrent_inserts_from_many_threads_all_land() {
        let m = Mem::with_shards(16);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..1_000u32 {
                        let key = format!("t{t}k{i:05}");
                        m.insert(key.as_bytes(), Some(key.clone().into_bytes().into()));
                    }
                });
            }
        });
        // Every insert took exactly one shard-lock acquisition (snapshot
        // before the verification reads below add their own).
        assert_eq!(m.shard_stats().acquisitions(), 4_000);
        assert_eq!(m.len(), 4_000);
        for t in 0..4u32 {
            for i in (0..1_000u32).step_by(37) {
                let key = format!("t{t}k{i:05}");
                assert_eq!(m.get(key.as_bytes()), Some(Some(key.into_bytes().into())));
            }
        }
    }
}
