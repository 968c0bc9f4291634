//! Table 1: space usage of the catalog-selected lock algorithms.
//!
//! Columns, as in the paper: lock-body words, space per held lock, space
//! per waited-on lock, per-thread state, FIFO, and whether construction /
//! destruction is non-trivial. `E` is a padded queue element (one cache
//! line). All values come from each algorithm's [`LockMeta`] descriptor in
//! the catalog; the body column is cross-checked against the measured
//! `size_of` of the actual Rust type.

use hemlock_core::meta::LockMeta;
use hemlock_core::pad::CACHE_LINE;
use hemlock_core::raw::RawLock;
use hemlock_harness::{Spec, Table};
use hemlock_locks::catalog::{self, CatalogEntry, LockVisitor, View};

const WORD: usize = core::mem::size_of::<usize>();

/// Measured size of the lock body, for the meta cross-check.
struct MeasuredWords;
impl LockVisitor for MeasuredWords {
    type Output = usize;
    fn visit<L: RawLock + 'static>(self, _entry: &'static CatalogEntry) -> usize {
        core::mem::size_of::<L>().div_ceil(WORD)
    }
}

fn thread_space(meta: &LockMeta) -> String {
    match meta.thread_words {
        0 => "0".to_string(),
        1 => "1 (Grant word, padded)".to_string(),
        n => format!("{n} words (padded)"),
    }
}

fn main() {
    let args = Spec::new("table1", "Table 1: space usage, from LockMeta")
        .sweep() // secs/runs/max-threads are no-ops here; accepted so driver
        // scripts can pass one uniform option set to every binary
        .parse_env();
    let locks = hemlock_bench::locks_from_args(&args, hemlock_bench::FIGURE_LOCKS);

    eprintln!("# Table 1 reproduction: space usage (from the catalog's LockMeta descriptors)");
    eprintln!(
        "# E = padded queue element = {CACHE_LINE} bytes ({} words)",
        CACHE_LINE / WORD
    );
    let mut t = Table::new(vec![
        "Lock",
        "Body(words)",
        "Body measured",
        "Held",
        "Wait",
        "Thread",
        "FIFO",
        "Init",
        "Paper",
    ]);
    for entry in &locks {
        let meta = &entry.meta;
        let measured = catalog::with_lock_type(entry, MeasuredWords);
        let body = if meta.nontrivial_init {
            format!("{}+E", meta.lock_words) // CLH: dummy element installed at init
        } else {
            meta.lock_words.to_string()
        };
        t.row(vec![
            meta.name.to_string(),
            body,
            measured.to_string(),
            meta.held_space(),
            meta.wait_space(),
            thread_space(meta),
            if meta.fifo { "yes" } else { "no" }.to_string(),
            if meta.nontrivial_init { "yes" } else { "no" }.to_string(),
            meta.paper_ref.to_string(),
        ]);
    }
    print!(
        "{}",
        if args.has("csv") {
            t.to_csv()
        } else {
            t.render()
        }
    );

    // Worked example from §2.3: lock L owned by T1 with T2, T3 waiting.
    if let (Some(mcs), Some(hemlock)) = (
        catalog::find(View::Lock, "mcs"),
        catalog::find(View::Lock, "hemlock"),
    ) {
        let mcs_total = mcs.meta.lock_bytes()
            + 3 * (mcs.meta.held_elements.max(mcs.meta.wait_elements)) * CACHE_LINE;
        let hemlock_total = hemlock.meta.lock_bytes() + 3 * hemlock.meta.thread_words * CACHE_LINE;
        println!();
        eprintln!("# Worked example from §2.3: lock L owned by T1 with T2, T3 waiting:");
        eprintln!(
            "#   MCS:     {} byte body + 3*E = {mcs_total} bytes",
            mcs.meta.lock_bytes()
        );
        eprintln!(
            "#   Hemlock: {} byte body + 3 padded thread Grant words = {hemlock_total} bytes \
             (Grant is per-THREAD, amortized over all locks; the marginal cost of this lock is {} bytes)",
            hemlock.meta.lock_bytes(),
            hemlock.meta.lock_bytes()
        );
    }
    eprintln!("# Cache line: {CACHE_LINE} bytes");
}
