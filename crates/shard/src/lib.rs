//! # hemlock-shard
//!
//! A striped/sharded lock-table subsystem — the "millions of locks" side of
//! the Hemlock paper's headline claim. Hemlock's lock body is one word
//! (Table 1), so the marginal cost of another lock instance is negligible;
//! this crate spends that budget on *parallelism*: keyed state is split
//! across a fixed power-of-two number of shards, each guarded by its own
//! [`Mutex`](hemlock_core::Mutex) over any [`RawLock`](hemlock_core::RawLock) algorithm from the
//! workspace (selectable at runtime through `hemlock_locks::catalog`, as
//! every bench binary does).
//!
//! - [`ShardedTable<K, V, L>`](table::ShardedTable) — a concurrent hash
//!   table with per-shard locking, guard-returning access
//!   ([`table::ShardedTable::guard`]) plus closure APIs (`get`/`with`/
//!   `update`), and a per-shard contention census ([`stats::TableStats`]);
//! - [`ShardedCounter<L>`](counter::ShardedCounter) — a striped counter
//!   where each stripe is its own lock-guarded cell, the smallest possible
//!   demonstration of trading lock *instances* for coherence traffic;
//! - a **flat-combining batch layer** ([`batch`]) —
//!   [`ShardedTable::apply_batch`](table::ShardedTable::apply_batch) /
//!   [`apply_batch_async`](table::ShardedTable::apply_batch_async) run a
//!   whole batch with one lock acquisition per shard touched, and
//!   contending batches *post* their ops on a per-shard publication list
//!   for the current lock holder to service instead of spinning.
//!
//! The design is deliberately **resize-free**: the stripe count is fixed at
//! construction, so a shard's lock is the only synchronization any
//! operation needs — no seqlock over a growing directory, no RCU epoch.
//! Space accounting comes straight from the algorithm's
//! [`LockMeta`](hemlock_core::LockMeta):
//! [`footprint_bytes`](table::ShardedTable::footprint_bytes) reports what a
//! given shard count costs, which is how the `shardkv` benchmark prices the
//! space/throughput trade-off explored by the Hapax-Locks line of work.
//!
//! ```
//! use hemlock_core::hemlock::Hemlock;
//! use hemlock_shard::ShardedTable;
//!
//! let t: ShardedTable<String, u64, Hemlock> = ShardedTable::with_shards(64);
//! t.insert("alice".into(), 1);
//! t.update("alice".into(), |slot| *slot = slot.map(|n| n + 1));
//! assert_eq!(t.get("alice"), Some(2)); // borrowed-form lookup, as HashMap
//! assert_eq!(t.shards(), 64);
//! ```

#![deny(missing_docs)]

pub mod batch;
pub mod counter;
pub mod stats;
pub mod table;

pub use batch::{TableOp, TableResult};
pub use counter::ShardedCounter;
pub use stats::{ShardSnapshot, TableStats};
pub use table::{ShardGuard, ShardReadGuard, ShardedTable};

#[cfg(test)]
mod proptests {
    use crate::ShardedTable;
    use hemlock_core::hemlock::Hemlock;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u16, u32),
        Remove(u16),
        Update(u16, u32),
        Get(u16),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            any::<u16>().prop_map(Op::Remove),
            (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Update(k, v)),
            any::<u16>().prop_map(Op::Get),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Sequential oracle: a sharded table behaves exactly like a
        /// HashMap, regardless of how keys scatter over shards.
        #[test]
        fn table_matches_hashmap_oracle(
            shards in 1usize..40,
            ops in proptest::collection::vec(op_strategy(), 1..200),
        ) {
            let t: ShardedTable<u16, u32, Hemlock> = ShardedTable::with_shards(shards);
            let mut oracle: HashMap<u16, u32> = HashMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        prop_assert_eq!(t.insert(k, v), oracle.insert(k, v));
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(t.remove(&k), oracle.remove(&k));
                    }
                    Op::Update(k, v) => {
                        // Increment-or-insert, exercising both entry arms.
                        t.update(k, |slot| {
                            *slot = Some(slot.unwrap_or(v).wrapping_add(1));
                        });
                        let e = oracle.entry(k).or_insert(v);
                        *e = e.wrapping_add(1);
                    }
                    Op::Get(k) => {
                        prop_assert_eq!(t.get(&k), oracle.get(&k).copied());
                    }
                }
            }
            prop_assert_eq!(t.len(), oracle.len());
            for (k, v) in &oracle {
                prop_assert_eq!(t.get(k), Some(*v));
            }
            let mut drained = t.drain();
            drained.sort_unstable();
            let mut expect: Vec<(u16, u32)> = oracle.into_iter().collect();
            expect.sort_unstable();
            prop_assert_eq!(drained, expect);
            prop_assert!(t.is_empty());
        }
    }
}

/// Satellite proptest for the flat-combining layer: `apply_batch` mixed
/// with concurrent point ops and a cancelled async batch future, run
/// over **every** `async.*` catalog lock (each algorithm monomorphized
/// as the shard guard). Invariants checked per case:
///
/// - results are positional and match a sequential oracle (the batch's
///   keyspace is disjoint from the interferers', so its region must be
///   bit-identical to single-threaded execution);
/// - concurrent point ops lose nothing (their region matches their own
///   oracle);
/// - a cancelled async batch is per-shard-group all-or-nothing — every
///   group is either fully applied (claimed before the withdrawal) or
///   fully absent (withdrawn), never partial and never doubled.
#[cfg(test)]
mod combining_proptests {
    use crate::batch::{TableOp, TableResult};
    use crate::ShardedTable;
    use hemlock_core::raw::RawTryLock;
    use hemlock_locks::catalog::{self, CatalogEntry, TimedLockVisitor, View};
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::future::Future;

    #[derive(Clone, Debug)]
    enum BOp {
        Put(u16, u32),
        Remove(u16),
        Get(u16),
    }

    fn bop() -> impl Strategy<Value = BOp> {
        prop_oneof![
            (0u16..24, any::<u32>()).prop_map(|(k, v)| BOp::Put(k, v)),
            (0u16..24).prop_map(BOp::Remove),
            (0u16..24).prop_map(BOp::Get),
        ]
    }

    /// Shifts an op into a disjoint key region.
    fn to_table_op(op: &BOp, region: u16) -> TableOp<u16, u32> {
        match *op {
            BOp::Put(k, v) => TableOp::Put(region + k, v),
            BOp::Remove(k) => TableOp::Remove(region + k),
            BOp::Get(k) => TableOp::Get(region + k),
        }
    }

    struct Case {
        shards: usize,
        batch: Vec<BOp>,
        point: Vec<BOp>,
        cancel: Vec<BOp>,
    }

    impl TimedLockVisitor for &Case {
        type Output = ();
        fn visit<L: RawTryLock + 'static>(self, _e: &'static CatalogEntry) -> Self::Output {
            run_case::<L>(self);
        }
    }

    /// Applies `ops` to a sequential oracle, returning per-op results in
    /// the batch result encoding.
    fn oracle_apply(
        oracle: &mut HashMap<u16, u32>,
        ops: &[TableOp<u16, u32>],
    ) -> Vec<TableResult<u32>> {
        ops.iter()
            .map(|op| match op {
                TableOp::Get(k) => TableResult::Value(oracle.get(k).copied()),
                TableOp::Put(k, v) => TableResult::Prev(oracle.insert(*k, *v)),
                TableOp::Remove(k) => TableResult::Prev(oracle.remove(k)),
            })
            .collect()
    }

    fn run_case<L: RawTryLock>(case: &Case) {
        let t: ShardedTable<u16, u32, L> = ShardedTable::with_shards(case.shards);
        let batch_ops: Vec<_> = case.batch.iter().map(|o| to_table_op(o, 0)).collect();
        let point_ops: Vec<_> = case.point.iter().map(|o| to_table_op(o, 1000)).collect();
        let cancel_ops: Vec<_> = case.cancel.iter().map(|o| to_table_op(o, 2000)).collect();

        // Phase 1: the batch races point ops in a disjoint key region.
        let (batch_out, point_out) = std::thread::scope(|s| {
            let t = &t;
            let pt = s.spawn(|| {
                point_ops
                    .iter()
                    .map(|op| match op {
                        TableOp::Get(k) => TableResult::Value(t.get(k)),
                        TableOp::Put(k, v) => TableResult::Prev(t.insert(*k, *v)),
                        TableOp::Remove(k) => TableResult::Prev(t.remove(k)),
                    })
                    .collect::<Vec<_>>()
            });
            let b = t.apply_batch(&batch_ops);
            (b, pt.join().expect("point thread"))
        });

        // Positional results, oracle-exact in both disjoint regions.
        let mut b_oracle = HashMap::new();
        assert_eq!(&batch_out, &oracle_apply(&mut b_oracle, &batch_ops));
        let mut p_oracle = HashMap::new();
        assert_eq!(&point_out, &oracle_apply(&mut p_oracle, &point_ops));

        // Phase 2: an async batch cancelled mid-wait. Holding the first
        // op's shard forces at least that group onto the publication
        // list before the single poll; dropping the future withdraws it.
        if let Some(first) = cancel_ops.first() {
            let k = match first {
                TableOp::Get(k) | TableOp::Put(k, _) | TableOp::Remove(k) => *k,
            };
            let held = t.guard_shard(t.shard_index(&k));
            {
                use std::task::{Context, Wake, Waker};
                struct Noop;
                impl Wake for Noop {
                    fn wake(self: std::sync::Arc<Self>) {}
                }
                let fut = t.apply_batch_async(&cancel_ops);
                let mut fut = Box::pin(fut);
                let waker = Waker::from(std::sync::Arc::new(Noop));
                // Pending (the held shard blocks its group) or Ready
                // (every other group ran fast-path) — both legal; the
                // all-or-nothing check below covers both.
                let _ = fut.as_mut().poll(&mut Context::from_waker(&waker));
            }
            drop(held);
        }

        // Per-shard-group all-or-nothing for the cancelled batch: group
        // the ops as apply_batch does and compare each group's keys
        // against its own sequential oracle — fully applied or fully
        // untouched (region 2000+ starts empty), never partial.
        let mut groups: HashMap<usize, Vec<&TableOp<u16, u32>>> = HashMap::new();
        for op in &cancel_ops {
            let k = match op {
                TableOp::Get(k) | TableOp::Put(k, _) | TableOp::Remove(k) => k,
            };
            groups.entry(t.shard_index(k)).or_default().push(op);
        }
        for (shard, group) in groups {
            let mut g_oracle: HashMap<u16, u32> = HashMap::new();
            for op in &group {
                match op {
                    TableOp::Get(_) => {}
                    TableOp::Put(k, v) => {
                        g_oracle.insert(*k, *v);
                    }
                    TableOp::Remove(k) => {
                        g_oracle.remove(k);
                    }
                }
            }
            let keys: std::collections::HashSet<u16> = group
                .iter()
                .map(|op| match op {
                    TableOp::Get(k) | TableOp::Put(k, _) | TableOp::Remove(k) => *k,
                })
                .collect();
            let applied = keys.iter().all(|k| t.get(k) == g_oracle.get(k).copied());
            let untouched = keys.iter().all(|k| t.get(k).is_none());
            assert!(
                applied || untouched,
                "shard {} group neither fully applied nor fully withdrawn",
                shard
            );
        }

        // No interference bled across regions.
        for (k, v) in &b_oracle {
            assert_eq!(t.get(k), Some(*v));
        }
        for (k, v) in &p_oracle {
            assert_eq!(t.get(k), Some(*v));
        }
    }

    fn cases() -> u32 {
        if cfg!(miri) {
            2
        } else {
            16
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]
        #[test]
        fn combining_layer_is_linearizable_per_shard_over_every_async_lock(
            shards in 1usize..8,
            batch in proptest::collection::vec(bop(), 1..20),
            point in proptest::collection::vec(bop(), 1..20),
            cancel in proptest::collection::vec(bop(), 1..12),
        ) {
            let case = Case { shards, batch, point, cancel };
            for entry in catalog::entries(View::Async) {
                catalog::with_timed_lock_type(entry, &case)
                    .expect("async entries are trylock-capable");
            }
        }
    }
}
