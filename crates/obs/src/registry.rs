//! The process-wide metrics registry and its [`Snapshot`].
//!
//! Every metric in the workspace is declared here, centrally, as one field
//! of a single `static` [`Registry`] — the crates above (`hemlock-shard`,
//! `hemlock-minikv`, `hemlock-net`, the harness `TaskPool`, …) call
//! [`registry()`] and bump the field they own. Central declaration is what
//! keeps this crate zero-dependency: there is no runtime registration, no
//! map lookup on the hot path, and a [`Registry::snapshot`] is a plain
//! struct walk.
//!
//! Naming follows `layer.metric`: `core.*` is the lock-event census fed by
//! [`crate::census`], `async.*` the WakerQueue, `shard.*` the sharded
//! table and its flat combiner, `minikv.*` the KV store, `net.*` the
//! server, and `pool.*` the harness `TaskPool`.
//!
//! A snapshot renders to a line-oriented text form (`key value`, one per
//! line — what the `STATS` wire opcode returns and `kvserver
//! --stats-interval` dumps) and flattens to `(key, f64)` pairs that drop
//! straight into `RecordBuilder` extras for the bench trajectory.

use crate::hist::{AtomicHist, Hist};
use crate::metrics::{Counter, Gauge};

macro_rules! define_registry {
    (
        counters { $($cname:ident => $ckey:literal,)* }
        gauges { $($gname:ident => $gkey:literal,)* }
        hists { $($hname:ident => $hkey:literal,)* }
    ) => {
        /// The full metric set. One `static` instance exists per process;
        /// reach it through [`registry()`].
        pub struct Registry {
            $(
                #[doc = concat!("Counter `", $ckey, "`.")]
                pub $cname: Counter,
            )*
            $(
                #[doc = concat!("Gauge `", $gkey, "`.")]
                pub $gname: Gauge,
            )*
            $(
                #[doc = concat!("Histogram `", $hkey, "`.")]
                pub $hname: AtomicHist,
            )*
        }

        impl Registry {
            const fn new() -> Self {
                Self {
                    $($cname: Counter::new(),)*
                    $($gname: Gauge::new(),)*
                    $($hname: AtomicHist::new(),)*
                }
            }

            /// Reads every metric into an owned, serializable [`Snapshot`].
            pub fn snapshot(&self) -> Snapshot {
                Snapshot {
                    counters: vec![$(($ckey, self.$cname.get()),)*],
                    gauges: vec![$(GaugeSnap {
                        key: $gkey,
                        cur: self.$gname.get(),
                        peak: self.$gname.peak(),
                    },)*],
                    hists: vec![$(($hkey, self.$hname.snapshot()),)*],
                }
            }

            /// Zeroes every metric (between benchmark configurations).
            pub fn reset(&self) {
                $(self.$cname.reset();)*
                $(self.$gname.reset();)*
                $(self.$hname.reset();)*
            }
        }

        /// Every counter key, in declaration order.
        pub const COUNTER_KEYS: &[&str] = &[$($ckey,)*];
        /// Every gauge key, in declaration order.
        pub const GAUGE_KEYS: &[&str] = &[$($gkey,)*];
        /// Every histogram key, in declaration order.
        pub const HIST_KEYS: &[&str] = &[$($hkey,)*];
    };
}

define_registry! {
    counters {
        core_acquires => "core.acquires",
        core_contended_acquires => "core.contended_acquires",
        core_contended_handovers => "core.contended_handovers",
        core_lock_while_holding => "core.lock_while_holding",
        core_releases => "core.releases",
        core_timeout_aborts => "core.timeout_aborts",
        async_parks => "async.parks",
        async_wakes => "async.wakes",
        async_cancels => "async.cancels",
        shard_acquisitions => "shard.acquisitions",
        shard_contended => "shard.contended",
        minikv_acquires => "minikv.acquires",
        minikv_gets => "minikv.gets",
        minikv_puts => "minikv.puts",
        minikv_deletes => "minikv.deletes",
        minikv_freezes => "minikv.freezes",
        minikv_compactions => "minikv.compactions",
        minikv_compaction_copies => "minikv.compaction_copies",
        minikv_stalls => "minikv.stalls",
        net_connections => "net.connections",
        net_requests => "net.requests",
        net_drop_protocol => "net.drop.protocol",
        pool_spawned => "pool.spawned",
        pool_wakes => "pool.wakes",
        pool_polls => "pool.polls",
        pool_completed => "pool.completed",
        pool_task_panics => "pool.task_panics",
    }
    gauges {
        core_locks_held => "core.locks_held",
        core_grant_waiters => "core.grant_waiters",
        async_queue_depth => "async.queue_depth",
        net_inflight => "net.inflight",
        pool_queue_depth => "pool.queue_depth",
    }
    hists {
        shard_batch_size => "shard.batch_size",
        minikv_batch_size => "minikv.batch_size",
        minikv_get_ns => "minikv.get_ns",
        minikv_put_ns => "minikv.put_ns",
        net_service_ns => "net.service_ns",
    }
}

static REGISTRY: Registry = Registry::new();

/// The process-wide registry.
#[inline]
pub fn registry() -> &'static Registry {
    &REGISTRY
}

/// One gauge, snapshotted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeSnap {
    /// Registry key.
    pub key: &'static str,
    /// Level at snapshot time.
    pub cur: i64,
    /// High-water mark since the last reset.
    pub peak: i64,
}

/// An owned point-in-time copy of the whole registry.
///
/// Serializes two ways:
/// - [`Snapshot::render_text`] — the line-oriented wire/stderr form;
/// - [`Snapshot::flatten`] — `(key, f64)` pairs for `RecordBuilder`
///   extras (gauges expand to `.cur`/`.peak`, histograms to
///   `.count`/`.mean`/`.p50`/`.p99`/`.p999`/`.max`).
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// `(key, total)` per counter.
    pub counters: Vec<(&'static str, u64)>,
    /// One entry per gauge.
    pub gauges: Vec<GaugeSnap>,
    /// `(key, histogram)` per histogram.
    pub hists: Vec<(&'static str, Hist)>,
}

impl Snapshot {
    /// Flattens every metric to `(key, value)` pairs, in registry order.
    pub fn flatten(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for &(k, v) in &self.counters {
            out.push((k.to_string(), v as f64));
        }
        for g in &self.gauges {
            out.push((format!("{}.cur", g.key), g.cur as f64));
            out.push((format!("{}.peak", g.key), g.peak as f64));
        }
        for (k, h) in &self.hists {
            let p = h.pcts();
            out.push((format!("{k}.count"), p.count as f64));
            out.push((format!("{k}.mean"), p.mean));
            out.push((format!("{k}.p50"), p.p50 as f64));
            out.push((format!("{k}.p99"), p.p99 as f64));
            out.push((format!("{k}.p999"), p.p999 as f64));
            out.push((format!("{k}.max"), p.max as f64));
        }
        out
    }

    /// Looks one flattened key up (e.g. `"net.service_ns.p99"`).
    pub fn get(&self, key: &str) -> Option<f64> {
        self.flatten()
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Renders the line-oriented text form: one `key value` pair per
    /// line, in sorted key order (deterministic across runs and
    /// declaration shuffles), parseable by [`Snapshot::parse_text`]. This
    /// is the payload of the `STATS` wire response and the
    /// `--stats-interval` dump.
    ///
    /// Beyond the flattened summary keys, every nonzero histogram bucket
    /// is emitted as `<hist>.bkt.<octave>.<sub> <count>` so a wire client
    /// can reconstruct the full distribution (and therefore diff two
    /// snapshots bucket-wise — percentiles cannot be subtracted, buckets
    /// can). Older clients skip the unknown keys by design.
    pub fn render_text(&self) -> String {
        let mut lines: Vec<(String, f64)> = self.flatten();
        for (k, h) in &self.hists {
            for (o, s, c) in h.nonzero_buckets() {
                lines.push((format!("{k}.bkt.{o}.{s}"), c as f64));
            }
        }
        lines.sort_by(|a, b| a.0.cmp(&b.0));
        let mut s = String::new();
        for (k, v) in lines {
            // Counters and quantiles are integral; only means carry a
            // fraction worth printing.
            if v.fract() == 0.0 && v.abs() < 9e15 {
                s.push_str(&format!("{} {}\n", k, v as i64));
            } else {
                s.push_str(&format!("{k} {v:.3}\n"));
            }
        }
        s
    }

    /// Parses [`Snapshot::render_text`] output back into `(key, value)`
    /// pairs, skipping malformed lines (forward compatibility: a newer
    /// server may emit keys an older client ignores).
    pub fn parse_text(text: &str) -> Vec<(String, f64)> {
        text.lines()
            .filter_map(|line| {
                let (k, v) = line.trim().rsplit_once(' ')?;
                Some((k.to_string(), v.parse::<f64>().ok()?))
            })
            .collect()
    }

    /// Reconstructs a full [`Snapshot`] from rendered text.
    ///
    /// Keys are matched against the compiled-in registry key set
    /// ([`COUNTER_KEYS`] / [`GAUGE_KEYS`] / [`HIST_KEYS`]); unknown keys
    /// are skipped. Histograms are rebuilt from their `.bkt.*` lines, so
    /// quantiles of the result — and of a [`Snapshot::delta`] between two
    /// results — are exact.
    pub fn parse_snapshot(text: &str) -> Snapshot {
        let kvs = Self::parse_text(text);
        let mut snap = Snapshot {
            counters: COUNTER_KEYS.iter().map(|&k| (k, 0)).collect(),
            gauges: GAUGE_KEYS
                .iter()
                .map(|&k| GaugeSnap {
                    key: k,
                    cur: 0,
                    peak: 0,
                })
                .collect(),
            hists: HIST_KEYS.iter().map(|&k| (k, Hist::new())).collect(),
        };
        // Buckets first so the summary pass can rely on counts.
        for (k, v) in &kvs {
            if let Some((hk, rest)) = k.split_once(".bkt.") {
                if let Some((o, s)) = rest.split_once('.') {
                    if let (Ok(o), Ok(s)) = (o.parse(), s.parse()) {
                        if let Some((_, h)) = snap.hists.iter_mut().find(|(name, _)| *name == hk) {
                            h.add_bucket(o, s, *v as u64);
                        }
                    }
                }
                continue;
            }
        }
        let mut hist_summaries: Vec<(&str, f64, u64)> =
            snap.hists.iter().map(|(k, _)| (*k, 0.0f64, 0u64)).collect();
        for (k, v) in &kvs {
            if let Some((_, c)) = snap.counters.iter_mut().find(|(ck, _)| ck == k) {
                *c = *v as u64;
            } else if let Some(gk) = k.strip_suffix(".cur") {
                if let Some(g) = snap.gauges.iter_mut().find(|g| g.key == gk) {
                    g.cur = *v as i64;
                }
            } else if let Some(gk) = k.strip_suffix(".peak") {
                if let Some(g) = snap.gauges.iter_mut().find(|g| g.key == gk) {
                    g.peak = *v as i64;
                }
            } else if let Some(hk) = k.strip_suffix(".mean") {
                if let Some(e) = hist_summaries.iter_mut().find(|(n, _, _)| *n == hk) {
                    e.1 = *v;
                }
            } else if let Some(hk) = k.strip_suffix(".max") {
                if let Some(e) = hist_summaries.iter_mut().find(|(n, _, _)| *n == hk) {
                    e.2 = *v as u64;
                }
            }
        }
        for (hk, mean, max) in hist_summaries {
            if let Some((_, h)) = snap.hists.iter_mut().find(|(name, _)| *name == hk) {
                h.set_summaries(mean, max);
            }
        }
        snap
    }

    /// The activity between `before` and `self` (two cumulative snapshots
    /// of one server): counters subtract, histograms diff bucket-wise
    /// (exact window quantiles), gauges keep `self`'s levels (a level has
    /// no meaningful difference).
    ///
    /// This is what makes STATS-derived `srv_*` extras honest across
    /// multi-phase or repeated runs against one long-lived server —
    /// cumulative totals would fold the preload and every earlier run
    /// into the measured window.
    pub fn delta(&self, before: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|&(k, v)| {
                    let prev = before
                        .counters
                        .iter()
                        .find(|(bk, _)| *bk == k)
                        .map_or(0, |(_, bv)| *bv);
                    (k, v.saturating_sub(prev))
                })
                .collect(),
            gauges: self.gauges.clone(),
            hists: self
                .hists
                .iter()
                .map(|(k, h)| {
                    let diffed = match before.hists.iter().find(|(bk, _)| bk == k) {
                        Some((_, bh)) => h.diff(bh),
                        None => h.clone(),
                    };
                    (*k, diffed)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrips_through_text() {
        let r = registry();
        r.net_requests.add(41);
        r.net_inflight.inc();
        r.net_service_ns.record(1_000);
        let snap = r.snapshot();
        let text = snap.render_text();
        let parsed = Snapshot::parse_text(&text);
        // Every flattened key parses back; `.bkt.*` lines ride along.
        assert!(parsed.len() >= snap.flatten().len());
        let lookup = |k: &str| {
            parsed
                .iter()
                .find(|(pk, _)| pk == k)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!(lookup("net.requests") >= 41.0);
        assert!(lookup("net.inflight.peak") >= 1.0);
        assert!(lookup("net.service_ns.count") >= 1.0);
        assert_eq!(
            lookup("net.service_ns.p50"),
            snap.get("net.service_ns.p50").unwrap()
        );
    }

    #[test]
    fn parse_skips_malformed_lines() {
        let parsed = Snapshot::parse_text("a 1\ngarbage\nb not-a-number\nc 2.5\n");
        assert_eq!(parsed, vec![("a".to_string(), 1.0), ("c".to_string(), 2.5)]);
    }

    #[test]
    fn render_text_is_sorted_and_reproduces_every_key() {
        let r = registry();
        r.net_requests.add(1);
        r.net_inflight.inc();
        r.net_service_ns.record(12_345);
        let snap = r.snapshot();
        let text = snap.render_text();
        let keys: Vec<&str> = text
            .lines()
            .filter_map(|l| l.rsplit_once(' ').map(|(k, _)| k))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "render_text keys must be sorted");
        // Every flattened registry key must round-trip through
        // parse_text: counters, gauge .cur/.peak, every hist suffix.
        let parsed = Snapshot::parse_text(&text);
        for (k, _) in snap.flatten() {
            assert!(
                parsed.iter().any(|(pk, _)| *pk == k),
                "key {k} missing from parse_text(render_text())"
            );
        }
    }

    #[test]
    fn parse_snapshot_reconstructs_distributions() {
        let r = registry();
        for v in [100u64, 1_000, 10_000, 100_000] {
            r.net_service_ns.record(v);
        }
        let snap = r.snapshot();
        let rebuilt = Snapshot::parse_snapshot(&snap.render_text());
        let orig = snap
            .hists
            .iter()
            .find(|(k, _)| *k == "net.service_ns")
            .unwrap();
        let got = rebuilt
            .hists
            .iter()
            .find(|(k, _)| *k == "net.service_ns")
            .unwrap();
        assert_eq!(got.1.count(), orig.1.count());
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(got.1.quantile(q), orig.1.quantile(q), "q={q}");
        }
        let (_, req) = rebuilt
            .counters
            .iter()
            .find(|(k, _)| *k == "net.requests")
            .unwrap();
        let (_, oreq) = snap
            .counters
            .iter()
            .find(|(k, _)| *k == "net.requests")
            .unwrap();
        assert_eq!(req, oreq);
    }

    #[test]
    fn delta_isolates_the_window() {
        let mut before = Snapshot::parse_snapshot("");
        let mut after = Snapshot::parse_snapshot("");
        // Simulate a preload of 1000 slow ops, then a window of 4 fast ones.
        if let Some((_, h)) = before
            .hists
            .iter_mut()
            .find(|(k, _)| *k == "net.service_ns")
        {
            for _ in 0..1000 {
                h.record(1_000_000);
            }
        }
        if let Some((_, h)) = after.hists.iter_mut().find(|(k, _)| *k == "net.service_ns") {
            for _ in 0..1000 {
                h.record(1_000_000);
            }
            for _ in 0..4 {
                h.record(500);
            }
        }
        if let Some((_, c)) = before
            .counters
            .iter_mut()
            .find(|(k, _)| *k == "net.requests")
        {
            *c = 1000;
        }
        if let Some((_, c)) = after
            .counters
            .iter_mut()
            .find(|(k, _)| *k == "net.requests")
        {
            *c = 1004;
        }
        let d = after.delta(&before);
        let (_, reqs) = d
            .counters
            .iter()
            .find(|(k, _)| *k == "net.requests")
            .unwrap();
        assert_eq!(*reqs, 4);
        let (_, h) = d
            .hists
            .iter()
            .find(|(k, _)| *k == "net.service_ns")
            .unwrap();
        assert_eq!(h.count(), 4);
        // The cumulative p50 would be 1ms; the window p50 must be ~500ns.
        assert!(h.quantile(0.5) < 1_000, "window p50 {}", h.quantile(0.5));
    }

    #[test]
    fn keys_are_unique() {
        let snap = registry().snapshot();
        let mut keys: Vec<String> = snap.flatten().into_iter().map(|(k, _)| k).collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "duplicate registry keys");
    }
}
