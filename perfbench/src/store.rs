//! `store-uniform`: an in-process `Db` driven through `Db::apply_batch`
//! by two threads, 8 ops per batch, half GETs and half PUTs over 65,536
//! uniform keys with 100-byte values (about 8 MB live, eight times the
//! 1 MiB memtable, so freezes and compactions cycle all run long).
//! No network, executor or task parking is involved.
//!
//! The live set is kept small enough to stay in the last-level cache: at
//! 262,144 keys (30 MB) run lookups and compaction copies were bound by
//! memory, and throughput followed the shared machine's memory traffic
//! from run to run by up to 35%.

use crate::gen::{key_bytes, value_bytes, Batch, Expect, KeyDist, Keys, Rng, Versions};
use crate::phase::{Phase, Plan, Sampler, Tally, Window};
use crate::timed;
use hemlock_core::raw::{RawLock, RawTryLock};
use hemlock_minikv::{Db, KvOp, KvResult, Options};
use hemlock_shard::{ShardedTable, TableStats};
use std::sync::atomic::Ordering;
use std::time::Instant;

pub const THREADS: usize = 2;
pub const KEYS: u64 = 65_536;
const BATCH: usize = 8;
const READ_PCT: u64 = 50;
/// Batches each thread runs before the window opens.
const WARMUP_BATCHES: u64 = 5_000;
const PRELOAD_CHUNK: usize = 256;

/// Writes version 0 of every key; returns the number of failed writes.
pub fn preload<L: RawTryLock>(db: &Db<L>, keys: &[Vec<u8>]) -> u64 {
    let mut failed = 0;
    for (c, chunk) in keys.chunks(PRELOAD_CHUNK).enumerate() {
        let ops: Vec<KvOp> = chunk
            .iter()
            .enumerate()
            .map(|(i, k)| KvOp::Put(k.clone(), value_bytes((c * PRELOAD_CHUNK + i) as u64, 0)))
            .collect();
        let out = db.apply_batch(&ops);
        failed += ops.len() as u64 - out.iter().filter(|r| **r == KvResult::Done).count() as u64;
    }
    failed
}

/// The batch as store ops.
pub fn kv_ops(b: &Batch, keys: &[Vec<u8>]) -> Vec<KvOp> {
    b.keys
        .iter()
        .zip(&b.puts)
        .map(|(&k, put)| {
            let key = keys[k as usize].clone();
            match put {
                Some(v) => KvOp::Put(key, v.clone()),
                None => KvOp::Get(key),
            }
        })
        .collect()
}

/// Checks positional results; returns (failed, values verified).
pub fn check(b: &Batch, out: &[KvResult], v: &Versions) -> (u64, u64) {
    if out.len() != b.expect.len() {
        return (b.expect.len() as u64, 0);
    }
    let (mut failed, mut verified) = (0, 0);
    for (i, r) in out.iter().enumerate() {
        let ok = match (b.expect[i], r) {
            (Expect::Done, KvResult::Done) => true,
            (Expect::Value { .. }, KvResult::Value(got)) => {
                verified += 1;
                b.check_get(i, got.as_deref(), v)
            }
            _ => false,
        };
        failed += u64::from(!ok);
    }
    (failed, verified)
}

fn worker<L: RawTryLock>(
    db: &Db<L>,
    keys: &[Vec<u8>],
    phase: &Phase,
    plan: &Plan,
    me: u64,
) -> (Tally, u64) {
    let mut rng = Rng::new(plan.seed, me);
    let mut versions = Versions::new(me, THREADS as u64, KEYS);
    let sampler = Keys::new(KEYS, KeyDist::Uniform);
    let mut warmup_failed = 0;
    for _ in 0..WARMUP_BATCHES {
        let b = Batch::draw(BATCH, READ_PCT, &sampler, &mut rng, &mut versions);
        warmup_failed += check(&b, &db.apply_batch(&kv_ops(&b, keys)), &versions).0;
    }
    let start = phase.enter();
    let mut tally = Tally::new(start, plan);
    while !phase.stopped() {
        let b = Batch::draw(BATCH, READ_PCT, &sampler, &mut rng, &mut versions);
        let ops = kv_ops(&b, keys);
        let t0 = Instant::now();
        let out = db.apply_batch(&ops);
        let t1 = Instant::now();
        let (failed, verified) = check(&b, &out, &versions);
        tally.attempted += BATCH as u64;
        tally.failed += failed;
        tally.verified += verified;
        let call_ns = t1.duration_since(t0).as_nanos() as u64;
        tally.completed(BATCH as u64 - failed, t1);
        tally.latency(t1, call_ns, 1);
    }
    (tally, warmup_failed)
}

/// The resting lock space of a `Db`: its sharded memtable, priced by the
/// table's own accounting for `threads` users, plus the central mutex.
pub fn db_lock_bytes<L: RawLock>(shards: usize, threads: usize) -> f64 {
    let table = ShardedTable::<Vec<u8>, (), L>::with_shards(shards);
    (table.footprint_bytes(threads) + L::META.footprint_bytes(1, 0)) as f64
}

/// A `Db`'s own counters at one instant.
pub struct StoreMark {
    mem: TableStats,
    freezes: u64,
    compactions: u64,
}

impl StoreMark {
    pub fn take<L: RawLock>(db: &Db<L>) -> Self {
        Self {
            mem: db.memtable_stats(),
            freezes: db.stats().freezes.load(Ordering::Relaxed),
            compactions: db.stats().compactions.load(Ordering::Relaxed),
        }
    }

    /// The `shard` and store-structure metrics of the `ops` completed in
    /// the `elapsed_s` seconds since this mark.
    pub fn layers_since<L: RawLock>(
        &self,
        db: &Db<L>,
        ops: u64,
        elapsed_s: f64,
    ) -> Vec<(&'static str, f64)> {
        let now = Self::take(db);
        let acquisitions = now.mem.acquisitions() - self.mem.acquisitions();
        let contended = now.mem.contended() - self.mem.contended();
        vec![
            (
                "shard.acquisitions_per_op",
                acquisitions as f64 / ops.max(1) as f64,
            ),
            (
                "shard.contended_frac",
                contended as f64 / acquisitions.max(1) as f64,
            ),
            (
                "minikv.freezes_per_s",
                (now.freezes - self.freezes) as f64 / elapsed_s,
            ),
            (
                "minikv.compactions_per_s",
                (now.compactions - self.compactions) as f64 / elapsed_s,
            ),
        ]
    }
}

pub fn measure<L: RawTryLock + 'static>(plan: &Plan) -> Window {
    let keys: Vec<Vec<u8>> = (0..KEYS).map(key_bytes).collect();
    let mut w = Window::default();
    for rep in 0..plan.setup_reps {
        let measured = rep == 0;
        let t0 = Instant::now();
        let db = Db::<L>::new(Options::default());
        let preload_failed = preload(&db, &keys);
        let phase = Phase::new(THREADS);
        let mark = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS as u64)
                .map(|me| {
                    let (db, keys, phase) = (&db, &keys[..], &phase);
                    s.spawn(move || worker(db, keys, phase, plan, me))
                })
                .collect();
            phase.await_ready();
            w.setup_s.push(t0.elapsed().as_secs_f64());
            let mark = StoreMark::take(&db);
            let start = phase.open(measured);
            if measured {
                timed::set_recording(plan.traced);
                w.host = Sampler::start(start, plan).finish();
                phase.close();
                timed::set_recording(false);
                w.elapsed_s = start.elapsed().as_secs_f64();
            }
            for h in handles {
                let (tally, warmup_failed) = h.join().expect("store worker panicked");
                if measured {
                    w.failed += warmup_failed;
                    w.absorb(tally);
                }
            }
            mark
        });
        if !measured {
            continue;
        }
        w.failed += preload_failed;
        w.lock_bytes = db_lock_bytes::<L>(db.memtable_shards(), THREADS);
        if plan.traced {
            w.layers = mark.layers_since(&db, w.ops(), w.elapsed_s);
            let calls = w.lat();
            let ops_in_window: u64 = w.slots.iter().map(|s| s.ops).sum();
            w.layers.extend([
                ("minikv.call_ns.p50", calls.quantile(0.5)),
                ("minikv.call_ns.p99", calls.quantile(0.99)),
                (
                    "minikv.ops_per_call",
                    ops_in_window as f64 / calls.count().max(1) as f64,
                ),
            ]);
        }
    }
    w
}
