//! Asynchronous KV traffic: many tasks, few threads, zero parked threads.
//!
//! Demonstrates the `hemlock-async` subsystem end to end:
//!
//! - an [`AsyncMutex`] protecting shared state, with a cancel-safe `lock()`
//!   future (dropping it withdraws the pending acquisition);
//! - minikv's `AsyncKv::{put_async, get_async}`: one-op batches that
//!   *await* a busy memtable shard or a freeze/compaction holding the
//!   central mutex instead of stalling a thread;
//! - the in-tree executor (`block_on` + `TaskPool`) — no external runtime.
//!
//! Run with: `cargo run --release --example async_kv`

use hemlock_async::AsyncMutex;
use hemlock_core::hemlock::Hemlock;
use hemlock_harness::executor::{block_on, TaskPool};
use hemlock_minikv::{AsyncKv, Db, Options};
use std::sync::Arc;

fn main() {
    // 256 logical writers multiplexed over 4 worker threads: the regime a
    // thread-per-waiter design cannot reach. Every contended lock inside —
    // memtable shards, the central run-list mutex — parks the *task*.
    let pool = TaskPool::new(4);
    let db: Arc<Db<Hemlock>> = Arc::new(Db::new(Options {
        memtable_bytes: 16 << 10, // small budget: freezes happen constantly
        ..Options::default()
    }));
    let total_puts = Arc::new(AsyncMutex::<u64>::new(0));

    let tasks = 256;
    let per_task = 100u32;
    let handles: Vec<_> = (0..tasks)
        .map(|t| {
            let db = Arc::clone(&db);
            let total_puts = Arc::clone(&total_puts);
            pool.spawn(async move {
                for i in 0..per_task {
                    let key = format!("task{t:03}-key{i:03}");
                    // A tripped byte budget makes this *await* the freeze
                    // (and any compaction) rather than skip or block.
                    db.put_async(key.as_bytes(), &i.to_be_bytes()).await;
                    *total_puts.lock().await += 1;
                }
                // Read own writes back through the async read path.
                for i in (0..per_task).step_by(17) {
                    let key = format!("task{t:03}-key{i:03}");
                    assert_eq!(
                        db.get_async(key.as_bytes()).await,
                        Some(i.to_be_bytes().to_vec())
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }

    let puts = block_on(async { *total_puts.lock().await });
    println!(
        "async_kv: {} tasks x {} puts on {} workers -> {} puts, {} freezes, {} compactions, {} runs",
        tasks,
        per_task,
        pool.workers(),
        puts,
        db.stats().freezes.load(std::sync::atomic::Ordering::Relaxed),
        db.stats().compactions.load(std::sync::atomic::Ordering::Relaxed),
        db.run_count(),
    );
    assert_eq!(puts, tasks as u64 * per_task as u64);
}
