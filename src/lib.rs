//! # hemlock-suite
//!
//! Workspace umbrella for the Hemlock (SPAA 2021) reproduction: re-exports
//! every crate so that examples and integration tests have a single import
//! surface. The interesting code lives in the member crates:
//!
//! - [`hemlock_core`] — the Hemlock lock family (the paper's contribution),
//!   plus the typed core (`RawLock` + `LockMeta`) and the object-safe
//!   dynamic layer (`DynLock` / `DynMutex`, exclusive and shared modes) of
//!   the three-layer lock API.
//! - [`hemlock_locks`] — MCS / CLH / Ticket / TAS / TTAS / Anderson
//!   baselines; the reader-writer locks ([`rw`]: native `HemlockRw`, a
//!   striped read-indicator over the grant protocol, and the `RwFromRaw`
//!   adapter); and the one lock catalog (`hemlock_locks::catalog`) mapping
//!   string keys — exclusive, `rw.*` and `async.*` — to every algorithm
//!   for runtime selection (`--lock`).
//! - [`hemlock_async`] — waker-parking async locks over the catalog's
//!   asyncable rows.
//! - [`hemlock_shard`] — the sharded lock-table subsystem
//!   (`ShardedTable`, `ShardedCounter`).
//! - [`hemlock_simlock`] — lock algorithms as deterministic state machines.
//! - [`hemlock_model`] — schedule exploration checking the §3 theorems.
//! - [`hemlock_coherence`] — MESI/MESIF/MOESI simulator (Table 2, §5.5).
//! - [`hemlock_minikv`] — LevelDB-shaped KV store (Figure 8).
//! - [`hemlock_net`] — networked minikv front-end: length-prefixed wire
//!   protocol, async TCP server on the in-tree `TaskPool`, pipelining
//!   client.
//! - [`hemlock_harness`] — MutexBench and friends (Figures 2–9), plus
//!   the executor/reactor runtime the async subsystems run on.

pub use hemlock_coherence as coherence;
pub use hemlock_core as core;
pub use hemlock_harness as harness;
pub use hemlock_locks as locks;
pub use hemlock_locks::rw;
pub use hemlock_minikv as minikv;
pub use hemlock_model as model;
pub use hemlock_net as net;
pub use hemlock_shard as shard;
pub use hemlock_simlock as simlock;
