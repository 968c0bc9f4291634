//! Stress/property suite for `hemlock-shard` across the whole catalog:
//! every lock algorithm must drive a `ShardedTable` correctly — concurrent
//! insert/read/remove with disjoint and overlapping keys, panic-safe shard
//! guards, a truthful acquisition census, and a sane shard-index
//! distribution. Static dispatch comes from `for_each_lock!`, so a lock
//! added to the catalog is automatically covered here.

use hemlock_core::raw::RawLock;
use hemlock_shard::ShardedTable;
use std::sync::atomic::{AtomicU64, Ordering};

/// Mixed concurrent workload under lock `L`: writers own disjoint key
/// ranges (every surviving write must be visible), plus all threads hammer
/// one shared hot key with blind increments tallied on the side.
fn stress<L: RawLock + 'static>(key: &str) {
    const THREADS: u64 = 4;
    const PER: u64 = 600;
    const HOT: u64 = u64::MAX; // hashes to some shard like any other key

    let table: ShardedTable<u64, u64, L> = ShardedTable::with_shards(8);
    table.insert(HOT, 0);
    let hot_adds = AtomicU64::new(0);

    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let table = &table;
            let hot_adds = &hot_adds;
            s.spawn(move || {
                for i in 0..PER {
                    let k = tid * PER + i;
                    table.insert(k, k);
                    assert_eq!(table.get(&k), Some(k), "{key}: lost private write");
                    if i % 3 == 0 {
                        assert_eq!(table.remove(&k), Some(k), "{key}: lost removal");
                    }
                    if i % 5 == 0 {
                        // Overlapping read-modify-write on the hot key.
                        table.update(HOT, |slot| {
                            *slot = Some(slot.expect("hot key always present") + 1);
                        });
                        hot_adds.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let expect_private: usize = (0..THREADS * PER).filter(|i| i % PER % 3 != 0).count();
    assert_eq!(table.len(), expect_private + 1, "{key}: entry census");
    assert_eq!(
        table.get(&HOT),
        Some(hot_adds.load(Ordering::Relaxed)),
        "{key}: hot-key increments lost under contention"
    );
    let stats = table.stats();
    // insert + get (+ remove/update) per iteration, minimum 2 each.
    assert!(
        stats.acquisitions() >= 2 * THREADS * PER,
        "{key}: census undercounts ({})",
        stats.acquisitions()
    );
}

/// Unwinding out of a shard critical section must release that shard and
/// leave every other shard untouched, for every algorithm.
fn guard_drop_on_panic<L: RawLock + 'static>(key: &str) {
    let table: ShardedTable<u32, u32, L> = ShardedTable::with_shards(4);
    for k in 0..64 {
        table.insert(k, k);
    }
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut g = table.guard(&7);
        g.insert(7, 777);
        panic!("inside shard critical section");
    }));
    assert!(r.is_err());
    // The poisoned-free contract: the shard is immediately reusable and the
    // pre-panic write survived.
    assert_eq!(table.get(&7), Some(777), "{key}");
    table.insert(7, 8);
    assert_eq!(table.get(&7), Some(8), "{key}");
    assert_eq!(table.len(), 64, "{key}: other shards disturbed");
}

macro_rules! gen_shard_suite {
    ($(($key:literal, $aliases:tt, $ty:ty, $($rest:tt)*)),+ $(,)?) => {
        #[test]
        fn concurrent_stress_under_every_catalog_lock() {
            $( stress::<$ty>($key); )+
        }

        #[test]
        fn guard_drop_on_panic_under_every_catalog_lock() {
            $( guard_drop_on_panic::<$ty>($key); )+
        }
    };
}
hemlock_locks::for_each_lock!(gen_shard_suite);

#[test]
fn shard_index_distribution_is_uniform_enough() {
    // Hashing is lock-independent; one algorithm suffices.
    let table: ShardedTable<u64, (), hemlock_core::hemlock::Hemlock> =
        ShardedTable::with_shards(32);
    let n = 32_000u64;
    let mut counts = vec![0u64; table.shards()];
    for k in 0..n {
        counts[table.shard_index(&k)] += 1;
    }
    let ideal = n / table.shards() as u64; // 1000
    for (i, &c) in counts.iter().enumerate() {
        assert!(
            c >= ideal / 2 && c <= ideal * 2,
            "shard {i}: {c} of {n} keys (ideal {ideal})"
        );
    }
}

#[test]
fn census_spreads_with_the_keys() {
    let table: ShardedTable<u64, u64, hemlock_core::hemlock::Hemlock> =
        ShardedTable::with_shards(16);
    for k in 0..4_000 {
        table.insert(k, k);
    }
    let stats = table.stats();
    assert_eq!(stats.acquisitions(), 4_000);
    // No shard should see more than 4x its uniform share of acquisitions.
    assert!(
        stats.imbalance() < 4.0,
        "imbalance {:.2} suggests clumped striping",
        stats.imbalance()
    );
}
