//! # hemlock-minikv
//!
//! A LevelDB-shaped in-memory key-value store, built as the substrate for
//! the Hemlock paper's Figure 8 ("LevelDB readrandom"). The paper measured
//! LevelDB 1.20 with its coarse-grained central mutex (`DBImpl::Mutex`)
//! swapped between lock algorithms via `LD_PRELOAD`; this crate reproduces
//! the relevant code path:
//!
//! - an LSM-shaped store: active **memtable** + immutable hash-indexed
//!   **runs** (in-memory SSTables, probed by one hash lookup each) with
//!   foreground merge compaction that moves runs rather than copying them;
//! - a **sharded memtable** (`hemlock-shard`'s `ShardedTable`): point
//!   reads/writes take one shard lock; the **central mutex** — generic
//!   over [`hemlock_core::RawLock`] like every lock here — guards the run
//!   list, freeze, and compaction, and reads still snapshot run handles
//!   under it before searching runs outside, as LevelDB's `Get` does;
//! - `db_bench`-style drivers: [`fill_seq`] and the fixed-duration
//!   [`read_random`] the paper's harness modification added.
//!
//! ```
//! use hemlock_minikv::{Db, fill_seq, key_for};
//! use hemlock_core::hemlock::Hemlock;
//!
//! let db: Db<Hemlock> = Db::new(Default::default());
//! fill_seq(&db, 100, 16);
//! assert!(db.get(&key_for(42)).is_some());
//! ```

#![warn(missing_docs)]

pub mod bench;
pub mod db;
pub mod memtable;
pub mod op;
pub mod run;

pub use bench::{fill_seq, key_for, read_random, value_for, ReadBenchResult};
pub use db::{AsyncKv, BoxKvFuture, Db, DbStats, Options, WouldBlock};
pub use memtable::Memtable;
pub use op::{KvOp, KvResult};
pub use run::Run;

#[cfg(test)]
mod proptests {
    use super::*;
    use hemlock_core::hemlock::Hemlock;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Clone, Debug)]
    enum DbOp {
        Put(u8, u8),
        Delete(u8),
        Get(u8),
    }

    fn op_strategy() -> impl Strategy<Value = DbOp> {
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(k, v)| DbOp::Put(k, v)),
            any::<u8>().prop_map(DbOp::Delete),
            any::<u8>().prop_map(DbOp::Get),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Sequential oracle: the database behaves exactly like a BTreeMap,
        /// across memtable freezes and compactions.
        #[test]
        fn db_matches_btreemap_oracle(ops in proptest::collection::vec(op_strategy(), 1..300)) {
            let db: Db<Hemlock> = Db::new(Options {
                memtable_bytes: 256,
                max_runs: 2,
                mem_shards: 2,
            });
            let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for op in ops {
                match op {
                    DbOp::Put(k, v) => {
                        let key = format!("k{k:03}").into_bytes();
                        db.put(&key, &[v]);
                        oracle.insert(key, vec![v]);
                    }
                    DbOp::Delete(k) => {
                        let key = format!("k{k:03}").into_bytes();
                        db.delete(&key);
                        oracle.remove(&key);
                    }
                    DbOp::Get(k) => {
                        let key = format!("k{k:03}").into_bytes();
                        prop_assert_eq!(db.get(&key), oracle.get(&key).cloned());
                    }
                }
            }
            // Final sweep over the whole keyspace.
            for k in 0u16..256 {
                let key = format!("k{k:03}").into_bytes();
                prop_assert_eq!(db.get(&key), oracle.get(&key).cloned());
            }
        }
    }
}
