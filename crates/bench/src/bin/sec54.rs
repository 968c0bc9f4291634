//! §5.4 characterization: instrumented lock-usage censuses on the KV
//! workload.
//!
//! The paper: "Using an instrumented version of Hemlock we characterized
//! the application behavior of LevelDB [...] At 64 threads, during a 50
//! second run, we found 24 instances of calls to lock where a thread
//! already held at least one other lock [...] The maximum number of locks
//! held simultaneously by any thread was 2. The maximum number of threads
//! waiting simultaneously on any Grant field was 1, thus the application
//! enjoyed purely local spinning."
//!
//! We run `readrandom` over minikv with the catalog-selected lock as the
//! central mutex (default: `hemlock.instr`, the instrumented build) and
//! print the same censuses. minikv takes one lock per operation (single
//! `DBImpl::Mutex` analog), so lock-while-holding should be 0, max-held 1,
//! and — the §5.4 punchline — max waiters on any Grant word 1: purely
//! local spinning for this workload class. Other locks may be selected for
//! throughput comparison; the census only exists for the instrumented
//! variant.

use hemlock_bench::locks_from_args;
use hemlock_core::raw::RawLock;
use hemlock_harness::Spec;
use hemlock_locks::catalog::{self, CatalogEntry, LockVisitor};
use hemlock_minikv::{fill_seq, read_random, Db, ReadBenchResult};
use std::time::Duration;

struct KvRun {
    entries: u64,
    threads: usize,
    duration: Duration,
    /// Runs between fillseq and readrandom, so the census covers only the
    /// measured workload (the paper's §5.4 numbers are readrandom-only).
    before_read: fn(),
}

impl LockVisitor for KvRun {
    type Output = ReadBenchResult;
    fn visit<L: RawLock + 'static>(self, _entry: &'static CatalogEntry) -> ReadBenchResult {
        let db: Db<L> = Db::new(Default::default());
        fill_seq(&db, self.entries, 100);
        (self.before_read)();
        read_random(&db, self.threads, self.entries, self.duration)
    }
}

fn main() {
    let args = Spec::new("sec54", "§5.4: instrumented lock-usage characterization")
        .sweep()
        .value("threads", "reader thread count")
        .value("entries", "rows loaded by the fillseq phase")
        .parse_env();
    let locks = locks_from_args(&args, "hemlock.instr");
    let quick = args.has("quick");
    let entries: u64 = args.get("entries", if quick { 10_000 } else { 100_000 });
    let threads = args.get("threads", 4usize);
    let duration = args.duration("secs", if quick { 0.2 } else { 2.0 });

    eprintln!("# §5.4 reproduction: instrumented lock censuses under the KV workload");
    // The censuses live in hemlock-obs now: plug its sink into the core
    // event seam so HemlockInstrumented's emissions are counted.
    hemlock_obs::census::install();
    for entry in &locks {
        let instrumented = entry.key == "hemlock.instr";
        let before_read: fn() = if instrumented {
            hemlock_obs::census::reset
        } else {
            || {}
        };
        let result = catalog::with_lock_type(
            entry,
            KvRun {
                entries,
                threads,
                duration,
                before_read,
            },
        );
        eprintln!(
            "# [{}] {} reads across {threads} threads in {:?} ({:.0} ops/s)",
            entry.meta.name,
            result.ops,
            result.elapsed,
            result.ops_per_sec()
        );
        if !instrumented {
            eprintln!(
                "# (no census: {} is not the instrumented build)",
                entry.meta.name
            );
            continue;
        }
        let report = hemlock_obs::census::report();
        println!("{report}");
        println!();
        if report.max_grant_waiters <= 1 {
            eprintln!(
                "# => purely local spinning (max Grant waiters = {}), matching §5.4",
                report.max_grant_waiters
            );
        } else {
            eprintln!(
                "# => multi-waiting observed (max Grant waiters = {})",
                report.max_grant_waiters
            );
        }
    }
    eprintln!(
        "# Paper (LevelDB, 64 threads, 50 s): 24 lock-while-holding calls (startup only), \
         max 2 locks held, max 1 Grant waiter."
    );
}
