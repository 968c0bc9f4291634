//! The lock catalog: one registry for every lock in the workspace.
//!
//! Each algorithm has one row in [`for_each_lock!`](crate::for_each_lock):
//! the Hemlock family from `hemlock-core`, the `obs.hemlock` census build,
//! and the baselines in this crate. A row maps a stable key (`"hemlock"`,
//! `"hemlock.v1"`, `"mcs"`, …) to its type, its [`LockMeta`] descriptor
//! (the Table 1 axes + capabilities), and a factory for type-erased
//! [`DynLock`] handles ([`DynMutex`]).
//!
//! Three [`View`]s of the rows serve the binaries:
//!
//! - [`View::Lock`] — the rows themselves: every figure and table binary;
//! - [`View::Rw`] — every row's `rw.*` reader-writer twin: the native
//!   [`HemlockRw`](crate::rw::HemlockRw) for `hemlock`,
//!   [`RwFromRaw`](crate::rw::RwFromRaw) over the row's lock for the rest
//!   (`rwbench` takes these next to the `Lock` names);
//! - [`View::Async`] — `async.*`: the rows whose `asyncable` bit is set,
//!   each guarding a waker queue in `hemlock-async` (`asyncbench`,
//!   `loadgen`, `kvserver`). CLH and Anderson are left out: a waiter that
//!   cannot withdraw cannot back a cancel-safe future.
//!
//! This is the Rust analog of the paper's `LD_PRELOAD` interposition setup
//! (§5): the binaries in `hemlock-bench` take `--lock <key>[,<key>…]` and
//! resolve algorithms here instead of each carrying a private hard-coded
//! type list. [`find`], [`resolve_list`] and [`keys`] serve every view.
//!
//! Two dispatch styles are offered:
//!
//! - **dynamic** — [`dyn_lock`] / [`dyn_mutex`] (or an entry's `make`)
//!   build boxed handles; one vtable call per lock operation;
//! - **static** — [`with_lock_type`] (any entry, `RawLock` bound) and
//!   [`with_timed_lock_type`] (trylock-capable entries, `RawTryLock`
//!   bound) monomorphize a generic visitor for the entry's type, so
//!   benchmark inner loops stay as tight as the hand-written originals.

use hemlock_core::dynlock::{DynAdapter, DynLock, DynMutex, DynTryAdapter};
use hemlock_core::meta::LockMeta;
use hemlock_core::raw::{RawLock, RawTryLock};

/// Re-exports of every catalogued lock type, so `for_each_lock!` callers
/// (and the macro's own `$crate::catalog::types::…` paths) resolve without
/// depending on `hemlock-core` directly.
pub mod types {
    pub use crate::rw::{HemlockRw, RwFromRaw};
    pub use crate::{AndersonLock, ClhLock, McsLock, TasLock, TicketLock, TtasLock};
    pub use hemlock_core::hemlock::{
        Hemlock, HemlockAh, HemlockChain, HemlockInstrumented, HemlockNaive, HemlockOverlap,
        HemlockParking, HemlockV1, HemlockV2,
    };
    pub use hemlock_obs::ObservedHemlock;
}

/// Invokes a callback macro with the catalog: one comma-separated
/// `(key, [aliases…], Type, capability, RwTwin, [rw aliases…], [async
/// aliases…])` tuple per algorithm.
///
/// - The capability token is `try` (implements `RawTryLock`, including the
///   timed `try_lock_for` family) or `no_try` (CLH, Anderson: a waiter
///   cannot withdraw once advertised, so there is neither a trylock nor an
///   abortable path — their `LockMeta` reports both honestly).
/// - `RwTwin` is the reader-writer type behind the row's `rw.` key.
/// - The alias lists hold the extra spellings each view accepts, in full
///   (`"async.hemlock.ctr"`).
///
/// Use it to generate per-algorithm code (tests, tables) without
/// re-listing the algorithms:
///
/// ```
/// macro_rules! count_locks {
///     ($(($key:literal, $($rest:tt)*)),+ $(,)?) => {
///         const N: usize = 0 $(+ { let _ = $key; 1 })+;
///     };
/// }
/// hemlock_locks::for_each_lock!(count_locks);
/// use hemlock_locks::catalog::{keys, View};
/// assert_eq!(N, keys(View::Lock).len());
/// assert_eq!(N, keys(View::Rw).len());
/// ```
#[macro_export]
macro_rules! for_each_lock {
    ($cb:path) => {
        $crate::for_each_lock! { @paths $cb;
            ("hemlock", ["hemlock.ctr"], Hemlock, try, HemlockRw, ["hemlock.rw"], ["async.hemlock.ctr"]),
            ("hemlock.naive", ["hemlock-"], HemlockNaive, try, RwFromRaw<HemlockNaive>, [], []),
            ("hemlock.overlap", [], HemlockOverlap, try, RwFromRaw<HemlockOverlap>, [], []),
            ("hemlock.ah", [], HemlockAh, try, RwFromRaw<HemlockAh>, [], []),
            ("hemlock.v1", ["hemlock.hov1"], HemlockV1, try, RwFromRaw<HemlockV1>, [], []),
            ("hemlock.v2", ["hemlock.hov2"], HemlockV2, try, RwFromRaw<HemlockV2>, [], []),
            ("hemlock.parking", ["hemlock.cv"], HemlockParking, try, RwFromRaw<HemlockParking>, [], []),
            ("hemlock.chain", [], HemlockChain, try, RwFromRaw<HemlockChain>, [], []),
            ("hemlock.instr", ["hemlock.instrumented"], HemlockInstrumented, try, RwFromRaw<HemlockInstrumented>, [], []),
            ("obs.hemlock", ["hemlock.obs"], ObservedHemlock, try, RwFromRaw<ObservedHemlock>, ["rw.hemlock.obs"], ["async.hemlock.obs"]),
            ("mcs", [], McsLock, try, RwFromRaw<McsLock>, [], []),
            ("clh", [], ClhLock, no_try, RwFromRaw<ClhLock>, [], []),
            ("ticket", [], TicketLock, try, RwFromRaw<TicketLock>, [], []),
            ("tas", [], TasLock, try, RwFromRaw<TasLock>, [], []),
            ("ttas", [], TtasLock, try, RwFromRaw<TtasLock>, [], []),
            ("anderson", [], AndersonLock, no_try, RwFromRaw<AndersonLock>, [], []),
        }
    };
    // Qualifies the rows' type names with `$crate::catalog::types::`.
    (@paths $cb:path; $((
        $key:literal, $aliases:tt, $ty:ident, $cap:ident,
        $rw:ident $(<$gate:ident>)?, $rw_aliases:tt, $async_aliases:tt
    )),+ $(,)?) => {
        $cb! { $((
            $key, $aliases, $crate::catalog::types::$ty, $cap,
            $crate::catalog::types::$rw $(<$crate::catalog::types::$gate>)?,
            $rw_aliases, $async_aliases
        )),+ }
    };
}

/// Which family of names a lookup serves (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum View {
    /// The exclusive keys: `"hemlock"`, `"mcs"`, ….
    Lock,
    /// The `rw.*` reader-writer twins of every row.
    Rw,
    /// The `async.*` keys of the asyncable rows; they dispatch the row's
    /// own lock, which guards the waker queue.
    Async,
}

impl View {
    /// The word error messages put before "lock".
    fn adjective(self) -> &'static str {
        match self {
            View::Lock => "",
            View::Rw => "RW ",
            View::Async => "async ",
        }
    }
}

/// One catalog entry: a row as seen through one [`View`].
#[derive(Debug)]
pub struct CatalogEntry {
    /// The view this entry belongs to.
    pub(crate) view: View,
    /// Canonical selector key (`--lock` spelling): the row's key, prefixed
    /// `rw.` or `async.` outside [`View::Lock`], e.g. `"rw.hemlock.v1"`.
    pub key: &'static str,
    /// Alternate accepted spellings.
    pub aliases: &'static [&'static str],
    /// The descriptor of the type the entry dispatches. An `rw.` twin that
    /// inherits its gate's name is shown as `RW-<name>` (`"RW-MCS"`).
    pub meta: LockMeta,
    /// Builds a fresh, unlocked, type-erased handle on this entry's type.
    pub make: fn() -> Box<dyn DynLock>,
}

impl CatalogEntry {
    /// True when `name` selects this entry: matches the key, an alias, or
    /// the display name, ASCII-case-insensitively. Async entries share
    /// their row's display name, which stays a [`View::Lock`] name.
    pub fn matches(&self, name: &str) -> bool {
        self.key.eq_ignore_ascii_case(name)
            || self.aliases.iter().any(|a| a.eq_ignore_ascii_case(name))
            || (self.view != View::Async && self.meta.name.eq_ignore_ascii_case(name))
    }
}

/// The descriptor of an `rw.` twin: the twin type's own `META`, with a
/// twin that reports its gate's name (every `RwFromRaw<L>`) renamed
/// `RW-<name>`. Rust has no `const` string concatenation over generic
/// names, so the bytes are spliced here per row.
macro_rules! twin_meta {
    ($ty:ty, $rw:ty) => {{
        const GATE: &str = <$ty as RawLock>::META.name;
        const TWIN: LockMeta = <$rw as RawLock>::META;
        const LEN: usize = 3 + GATE.len();
        const BYTES: [u8; LEN] = {
            let mut out = [0u8; LEN];
            let mut i = 0;
            while i < LEN {
                out[i] = if i < 3 {
                    b"RW-"[i]
                } else {
                    GATE.as_bytes()[i - 3]
                };
                i += 1;
            }
            out
        };
        const NAME: &str = match core::str::from_utf8(&BYTES) {
            Ok(name) => name,
            Err(_) => panic!("lock names are UTF-8"),
        };
        let mut m = TWIN;
        if same_str(TWIN.name, GATE) {
            m.name = NAME;
        }
        m
    }};
}

const fn same_str(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

macro_rules! gen_catalog {
    ($((
        $key:literal, [$($alias:literal),*], $ty:ty, $cap:ident,
        $rw:ty, [$($rw_alias:literal),*], [$($async_alias:literal),*]
    )),+ $(,)?) => {
        /// Every row through every view, in row order. Async entries exist
        /// for every row; [`entries`] admits those whose `asyncable` bit
        /// is set.
        static ENTRIES: &[CatalogEntry] = &[
            $(
                CatalogEntry {
                    view: View::Lock,
                    key: $key,
                    aliases: &[$($alias),*],
                    meta: <$ty as RawLock>::META,
                    make: || gen_catalog!(@handle $cap, $ty, <$ty as RawLock>::META),
                },
                {
                    const META: LockMeta = twin_meta!($ty, $rw);
                    CatalogEntry {
                        view: View::Rw,
                        key: concat!("rw.", $key),
                        aliases: &[$($rw_alias),*],
                        meta: META,
                        make: || gen_catalog!(@handle $cap, $rw, META),
                    }
                },
                CatalogEntry {
                    view: View::Async,
                    key: concat!("async.", $key),
                    aliases: &[$($async_alias),*],
                    meta: <$ty as RawLock>::META,
                    make: || gen_catalog!(@handle $cap, $ty, <$ty as RawLock>::META),
                },
            )+
        ];

        /// Statically dispatches `visitor` on `entry`'s type: the visitor's
        /// generic `visit` is monomorphized for it, so the hot path carries
        /// no vtable indirection.
        pub fn with_lock_type<V: LockVisitor>(entry: &'static CatalogEntry, visitor: V) -> V::Output {
            match entry.key {
                $(
                    $key | concat!("async.", $key) => visitor.visit::<$ty>(entry),
                    concat!("rw.", $key) => visitor.visit::<$rw>(entry),
                )+
                _ => unreachable!("catalog key missing from the dispatch table"),
            }
        }

        /// Statically dispatches `visitor` on `entry`'s type when it is
        /// trylock/timed-capable. Returns `None` for entries without a
        /// trylock path (CLH, Anderson and their `rw.` twins) — check
        /// [`CatalogEntry::meta`]`.abortable` to know in advance.
        pub fn with_timed_lock_type<V: TimedLockVisitor>(
            entry: &'static CatalogEntry,
            visitor: V,
        ) -> Option<V::Output> {
            match entry.key {
                $(
                    $key | concat!("async.", $key) => gen_catalog!(@timed $cap, $ty, visitor, entry),
                    concat!("rw.", $key) => gen_catalog!(@timed $cap, $rw, visitor, entry),
                )+
                _ => unreachable!("catalog key missing from the dispatch table"),
            }
        }
    };
    (@handle try, $ty:ty, $meta:expr) => { Box::new(DynTryAdapter::<$ty>::with_meta($meta)) };
    (@handle no_try, $ty:ty, $meta:expr) => { Box::new(DynAdapter::<$ty>::with_meta($meta)) };
    (@timed try, $ty:ty, $visitor:ident, $entry:ident) => { Some($visitor.visit::<$ty>($entry)) };
    (@timed no_try, $ty:ty, $visitor:ident, $entry:ident) => {{
        let _ = $visitor;
        None
    }};
}
for_each_lock!(gen_catalog);

/// The entries of `view`, in row order.
pub fn entries(view: View) -> impl Iterator<Item = &'static CatalogEntry> {
    ENTRIES
        .iter()
        .filter(move |e| e.view == view && (view != View::Async || e.meta.asyncable))
}

/// Looks up one entry of `view` by key, alias, or display name
/// (case-insensitive).
pub fn find(view: View, name: &str) -> Option<&'static CatalogEntry> {
    let name = name.trim();
    entries(view).find(|e| e.matches(name))
}

/// [`find`], with an error listing the view's keys when nothing matches.
pub fn lookup(view: View, name: &str) -> Result<&'static CatalogEntry, String> {
    find(view, name).ok_or_else(|| {
        let adj = view.adjective();
        format!(
            "unknown {adj}lock {name:?}; known {adj}locks: {}",
            keys(view).join(", ")
        )
    })
}

/// Resolves a comma-separated selector list (the `--lock` argument) to
/// entries of `view`, preserving order and rejecting unknown or duplicate
/// names with a message that lists the valid keys.
pub fn resolve_list(view: View, list: &str) -> Result<Vec<&'static CatalogEntry>, String> {
    let mut out: Vec<&'static CatalogEntry> = Vec::new();
    for name in list.split(',') {
        let name = name.trim();
        if name.is_empty() {
            return Err(format!(
                "empty lock name in {list:?}; expected a comma-separated subset of: {}",
                keys(view).join(", ")
            ));
        }
        let entry = lookup(view, name)?;
        if out.iter().any(|e| core::ptr::eq(*e, entry)) {
            return Err(format!("lock {name:?} selected twice in {list:?}"));
        }
        out.push(entry);
    }
    Ok(out)
}

/// The canonical keys of `view`, in row order.
pub fn keys(view: View) -> Vec<&'static str> {
    entries(view).map(|e| e.key).collect()
}

/// Entries suited to *many-instance* deployments such as sharded lock
/// tables: compact bodies (≤ 2 words) and trivial construction, judged from
/// each entry's [`LockMeta`]. This is the paper's headline trade-off — a
/// one-word lock makes millions of instances affordable — so `shardkv` and
/// `hemlock-shard` default to this subset (excluding CLH, whose per-lock
/// dummy element costs a padded cache line, and Anderson's waiting array).
pub fn shard_friendly() -> Vec<&'static CatalogEntry> {
    entries(View::Lock)
        .filter(|e| e.meta.lock_words <= 2 && !e.meta.nontrivial_init)
        .collect()
}

/// Entries supporting **abortable (timed) acquisition** — `try_lock_for`
/// returns within the deadline bound and an aborted waiter never acquires
/// later — judged from each entry's [`LockMeta`]. `timeoutbench` sweeps
/// exactly this subset; CLH and Anderson are excluded because a waiter
/// cannot withdraw once it has advertised itself (CLH's tail link,
/// Anderson's claimed array slot).
pub fn abortable() -> Vec<&'static CatalogEntry> {
    entries(View::Lock).filter(|e| e.meta.abortable).collect()
}

/// Builds a runtime lock handle for `name` in `view`.
pub fn dyn_lock(view: View, name: &str) -> Result<Box<dyn DynLock>, String> {
    Ok((lookup(view, name)?.make)())
}

/// Builds a [`DynMutex`] protecting `value` with the algorithm `name` in
/// `view`.
pub fn dyn_mutex<T>(view: View, name: &str, value: T) -> Result<DynMutex<T>, String> {
    Ok(DynMutex::new(dyn_lock(view, name)?, value))
}

/// A generic computation instantiated per statically-dispatched lock type —
/// the visitor side of [`with_lock_type`].
pub trait LockVisitor {
    /// Result produced per lock type.
    type Output;
    /// Runs the computation with the entry's type as `L`.
    fn visit<L: RawLock + 'static>(self, entry: &'static CatalogEntry) -> Self::Output;
}

/// A generic computation instantiated per statically-dispatched
/// **trylock/timed-capable** lock type — the visitor side of
/// [`with_timed_lock_type`]. The `RawTryLock` bound gives the visitor's
/// body `try_lock` and the `try_lock_for` family at zero dispatch cost,
/// which is how `timeoutbench` keeps its measurement loop monomorphized.
pub trait TimedLockVisitor {
    /// Result produced per lock type.
    type Output;
    /// Runs the computation with the entry's type as `L`.
    fn visit<L: RawTryLock + 'static>(self, entry: &'static CatalogEntry) -> Self::Output;
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::time::Duration;

    fn all() -> impl Iterator<Item = &'static CatalogEntry> {
        [View::Lock, View::Rw, View::Async]
            .into_iter()
            .flat_map(entries)
    }

    #[test]
    fn finds_by_key_alias_display_name_case_insensitively() {
        assert_eq!(find(View::Lock, "hemlock").unwrap().meta.name, "Hemlock");
        assert_eq!(find(View::Lock, "hemlock.ctr").unwrap().key, "hemlock");
        assert_eq!(find(View::Lock, "Hemlock-").unwrap().key, "hemlock.naive");
        assert_eq!(find(View::Lock, "MCS").unwrap().key, "mcs");
        assert_eq!(find(View::Lock, "mCs").unwrap().key, "mcs");
        assert!(
            find(View::Lock, "rw.mcs").is_none(),
            "twins stay in their view"
        );
        assert!(find(View::Lock, "nope").is_none());
    }

    #[test]
    fn rw_finds_by_key_alias_display_name_case_insensitively() {
        assert_eq!(find(View::Rw, "rw.hemlock").unwrap().meta.name, "HemlockRw");
        assert_eq!(find(View::Rw, "HEMLOCKRW").unwrap().key, "rw.hemlock");
        assert_eq!(find(View::Rw, "hemlock.rw").unwrap().key, "rw.hemlock");
        assert_eq!(find(View::Rw, "RW-MCS").unwrap().key, "rw.mcs");
        assert!(find(View::Rw, "mcs").is_none(), "exclusive keys stay out");
        assert!(find(View::Rw, "nope").is_none());
    }

    #[test]
    fn resolve_list_preserves_order_and_reports_errors() {
        let picked = resolve_list(View::Lock, "mcs, clh,hemlock").unwrap();
        assert_eq!(
            picked.iter().map(|e| e.key).collect::<Vec<_>>(),
            ["mcs", "clh", "hemlock"]
        );
        assert!(resolve_list(View::Lock, "mcs,bogus")
            .unwrap_err()
            .contains("; known locks: hemlock,"));
        assert!(resolve_list(View::Lock, "mcs,,clh")
            .unwrap_err()
            .contains("empty lock name"));
        assert!(resolve_list(View::Lock, "mcs,MCS")
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn rw_resolve_list_preserves_order_and_reports_errors() {
        let picked = resolve_list(View::Rw, "rw.mcs, rw.clh,rw.hemlock").unwrap();
        assert_eq!(
            picked.iter().map(|e| e.key).collect::<Vec<_>>(),
            ["rw.mcs", "rw.clh", "rw.hemlock"]
        );
        assert!(resolve_list(View::Rw, "rw.mcs,bogus")
            .unwrap_err()
            .contains("known RW locks: rw.hemlock,"));
        assert!(resolve_list(View::Rw, "rw.mcs,,rw.clh")
            .unwrap_err()
            .contains("empty lock name"));
        assert!(resolve_list(View::Rw, "rw.mcs,RW-MCS")
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn every_entry_builds_a_working_dyn_lock() {
        for entry in all() {
            let lock = (entry.make)();
            assert_eq!(lock.meta(), entry.meta, "{}", entry.key);
            lock.lock();
            // Safety: acquired on this thread just above.
            unsafe { lock.unlock() };
        }
    }

    #[test]
    fn every_entry_builds_a_working_dyn_rw_lock() {
        for entry in entries(View::Rw) {
            let lock = (entry.make)();
            assert!(lock.meta().rw, "{}", entry.key);
            lock.lock();
            // Safety: acquired on this thread just above.
            unsafe { lock.unlock() };
            lock.read_lock();
            // Safety: read-acquired on this thread just above.
            unsafe { lock.read_unlock() };
        }
    }

    #[test]
    fn try_capability_agrees_between_meta_and_factory() {
        for entry in all() {
            let lock = (entry.make)();
            let outcome = lock.try_lock();
            if entry.meta.try_lock {
                assert_eq!(outcome, Ok(true), "{}", entry.key);
                // Safety: try_lock conferred ownership.
                unsafe { lock.unlock() };
            } else {
                assert!(outcome.is_err(), "{}", entry.key);
            }
        }
    }

    #[test]
    fn abortable_capability_agrees_between_meta_and_dyn_handle() {
        for entry in all() {
            let lock = (entry.make)();
            let outcome = lock.try_lock_for(Duration::from_millis(5));
            if entry.meta.abortable {
                assert_eq!(outcome, Ok(true), "{}: free timed acquire", entry.key);
                // Safety: the timed acquisition conferred ownership.
                unsafe { lock.unlock() };
            } else {
                assert!(outcome.is_err(), "{}", entry.key);
            }
        }
    }

    #[test]
    fn timed_capability_agrees_between_meta_and_dyn_handle() {
        let ms = Duration::from_millis(5);
        for entry in entries(View::Rw) {
            let lock = (entry.make)();
            let read = lock.try_read_lock_for(ms);
            let write = lock.try_lock_for(ms);
            if entry.meta.abortable {
                // Free lock: the read attempt must have been admitted; the
                // write attempt then timed out behind it (readers exclude
                // writers) — both through the vtable.
                assert_eq!(read, Ok(true), "{}", entry.key);
                assert_eq!(write, Ok(false), "{}: writer behind a reader", entry.key);
                // Safety: read-acquired just above on this thread.
                unsafe { lock.read_unlock() };
                assert_eq!(lock.try_lock_for(ms), Ok(true), "{}", entry.key);
                // Safety: write-acquired just above on this thread.
                unsafe { lock.unlock() };
            } else {
                assert!(read.is_err(), "{}", entry.key);
                assert!(write.is_err(), "{}", entry.key);
            }
        }
    }

    #[test]
    fn abortable_is_the_withdrawable_subset() {
        let timed = abortable();
        for must in ["hemlock", "hemlock.naive", "tas", "ttas", "ticket", "mcs"] {
            assert!(
                timed.iter().any(|e| e.key == must),
                "{must} must be abortable"
            );
        }
        // CLH's tail link and Anderson's array slot are commitments.
        assert!(!timed.iter().any(|e| e.key == "clh"));
        assert!(!timed.iter().any(|e| e.key == "anderson"));
        // Abortable without a trylock path would be incoherent.
        assert!(timed.iter().all(|e| e.meta.try_lock));
    }

    #[test]
    fn timed_dispatch_covers_exactly_the_try_capable_entries() {
        struct TimedProbe;
        impl TimedLockVisitor for TimedProbe {
            type Output = bool;
            fn visit<L: RawTryLock + 'static>(self, _entry: &'static CatalogEntry) -> bool {
                let l = L::default();
                let got = l.try_lock_for(Duration::from_millis(5));
                if got {
                    // Safety: the timed acquisition conferred ownership.
                    unsafe { l.unlock() };
                }
                got
            }
        }
        for entry in all() {
            let hit = with_timed_lock_type(entry, TimedProbe);
            assert_eq!(hit.is_some(), entry.meta.try_lock, "{}", entry.key);
            if let Some(acquired) = hit {
                assert!(acquired, "{}: free timed acquire must succeed", entry.key);
            }
        }
    }

    #[test]
    fn timed_dispatch_reaches_both_catalogs_and_skips_unwithdrawable_entries() {
        struct TimedRoundtrip;
        impl TimedLockVisitor for TimedRoundtrip {
            type Output = &'static str;
            fn visit<L: RawTryLock + 'static>(self, entry: &'static CatalogEntry) -> &'static str {
                let l = L::default();
                assert!(l.try_lock_for(Duration::from_millis(5)), "{}", entry.key);
                // Safety: the timed acquisition conferred ownership.
                unsafe { l.unlock() };
                assert!(
                    l.try_read_lock_for(Duration::from_millis(5)),
                    "{}",
                    entry.key
                );
                // Safety: the timed read acquisition succeeded above.
                unsafe { l.read_unlock() };
                entry.meta.name
            }
        }
        let at = |view, name| with_timed_lock_type(find(view, name).unwrap(), TimedRoundtrip);
        assert_eq!(at(View::Rw, "rw.hemlock"), Some("HemlockRw"));
        assert_eq!(at(View::Rw, "rw.mcs"), Some("RW-MCS"));
        assert_eq!(at(View::Lock, "hemlock"), Some("Hemlock"));
        assert_eq!(at(View::Lock, "ticket"), Some("Ticket"));
        // Known but unwithdrawable names dispatch to None in both views.
        assert_eq!(at(View::Rw, "rw.clh"), None);
        assert_eq!(at(View::Lock, "clh"), None);
    }

    #[test]
    fn dyn_mutex_by_name() {
        let m = dyn_mutex(View::Lock, "ticket", 41u32).unwrap();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.meta().name, "Ticket");
        assert!(dyn_mutex(View::Lock, "bogus", 0).is_err());
        assert!(dyn_mutex(View::Lock, "rw.ticket", 0).is_err());
    }

    #[test]
    fn dyn_rw_mutex_by_name() {
        let m = dyn_mutex(View::Rw, "rw.ticket", 41u32).unwrap();
        *m.lock() += 1;
        assert_eq!(*m.read(), 42);
        assert_eq!(m.meta().name, "RW-Ticket");
        assert!(dyn_mutex(View::Rw, "bogus", 0).is_err());
    }

    struct NameAndSize;
    impl LockVisitor for NameAndSize {
        type Output = (&'static str, usize);
        fn visit<L: RawLock + 'static>(self, _entry: &'static CatalogEntry) -> Self::Output {
            (L::META.name, core::mem::size_of::<L>())
        }
    }

    #[test]
    fn static_dispatch_reaches_the_right_type() {
        let mcs = with_lock_type(find(View::Lock, "mcs").unwrap(), NameAndSize);
        assert_eq!(mcs, ("MCS", core::mem::size_of::<crate::McsLock>()));
    }

    #[test]
    fn static_dispatch_reaches_both_catalogs() {
        let at = |view, name| with_lock_type(find(view, name).unwrap(), NameAndSize);
        let rw = core::mem::size_of::<crate::rw::RwFromRaw<crate::McsLock>>();
        // The twin type itself keeps its gate's name; the entry renames it.
        assert_eq!(at(View::Rw, "rw.mcs"), ("MCS", rw));
        assert_eq!(find(View::Rw, "rw.mcs").unwrap().meta.name, "RW-MCS");
        let native = core::mem::size_of::<crate::rw::HemlockRw>();
        assert_eq!(at(View::Rw, "rw.hemlock"), ("HemlockRw", native));
        // Same visitor over an exclusive entry: the degraded read path.
        assert!(!find(View::Lock, "mcs").unwrap().meta.rw);
    }

    #[test]
    fn shard_friendly_is_the_compact_subset() {
        let friendly = shard_friendly();
        assert!(friendly.iter().any(|e| e.key == "hemlock"));
        assert!(friendly.iter().any(|e| e.key == "mcs"));
        assert!(friendly.iter().any(|e| e.key == "ticket"));
        // CLH pays a padded dummy element per lock; Anderson a waiting array.
        assert!(!friendly.iter().any(|e| e.key == "clh"));
        assert!(!friendly.iter().any(|e| e.key == "anderson"));
        for e in &friendly {
            assert!(e.meta.lock_bytes() <= 2 * core::mem::size_of::<usize>());
        }
    }

    #[test]
    fn locked_hint_agrees_with_lock_state() {
        for entry in all() {
            let lock = (entry.make)();
            if let Some(held) = lock.is_locked_hint() {
                assert!(!held, "{} hints held while unlocked", entry.key);
                lock.lock();
                assert_eq!(
                    lock.is_locked_hint(),
                    Some(true),
                    "{} hints free while held",
                    entry.key
                );
                // Safety: acquired on this thread just above.
                unsafe { lock.unlock() };
                assert_eq!(lock.is_locked_hint(), Some(false), "{}", entry.key);
            }
        }
    }

    #[test]
    fn keys_are_unique_and_nonempty() {
        let keys: Vec<&str> = all().map(|e| e.key).collect();
        assert!(keys.len() >= 15);
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
    }

    #[test]
    fn rw_keys_are_unique_and_prefixed() {
        assert!(keys(View::Rw).iter().all(|k| k.starts_with("rw.")));
        assert_eq!(keys(View::Rw).len(), keys(View::Lock).len());
        assert!(entries(View::Rw).all(|e| e.meta.rw));
    }

    #[test]
    fn display_names_do_not_collide_with_exclusive_ones() {
        // `rwbench` looks names up in the rw view, then the lock view.
        for rw in entries(View::Rw) {
            assert!(
                find(View::Lock, rw.meta.name).is_none(),
                "{} shadows an exclusive display name",
                rw.meta.name
            );
        }
    }
}
