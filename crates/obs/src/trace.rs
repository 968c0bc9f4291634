//! Request-scoped causal tracing: spans from wire to lock.
//!
//! This module answers "where did this request's time go" — the question
//! the counter/gauge/histogram registry cannot. It samples 1-in-N requests
//! deterministically (seeded, so two runs against the same workload trace
//! the same requests), threads a `trace id` through the request path, and
//! records spans into per-thread checksummed wait-free ring buffers. The
//! same rings hold every observed lock event ([`crate::census::note`]).
//! A Chrome-trace-event exporter renders the rings into JSON that
//! `chrome://tracing` and Perfetto open directly.
//!
//! # Cost contract
//!
//! The PR 8 obs contract applies: **one relaxed load when disabled.**
//! Every hot-path entry point (`current()`, `active()`, `sample_request()`)
//! gates on a single relaxed load of the `SAMPLE_EVERY` atomic before touching any
//! thread-local or ring state. When sampling is off (the default), tracing
//! costs one `AtomicU32` load per call site.
//!
//! # Span kinds
//!
//! Chrome "X" (complete) events must nest within a thread track. On a
//! work-stealing task pool a task's await-spanning interval is *not*
//! nested with the other tasks the same worker polls during the
//! suspension, so:
//!
//! * [`SpanKind::Sync`] — duration events ("X"). Only for intervals during
//!   which the emitting thread runs nothing else: decode, encode, a
//!   combiner serving a posted record, a single task poll.
//! * [`SpanKind::Async`] — async begin/end pairs ("b"/"e"), matched by
//!   trace id + name, allowed to overlap and cross threads: whole-request,
//!   lock wait, lock hold, task suspension, flush.
//! * [`SpanKind::Instant`] — zero-duration markers ("i").
//! * [`SpanKind::Lock`] — a lock event, written whether or not the
//!   thread's request is sampled; an "i" marker named `<site>:<event>`.
//!
//! Every span is **one ring record** written at end time (t0, dur, trace
//! id, interned site, kind); the exporter synthesizes the "b"/"e" pair for
//! async spans. This keeps the hot-path store-count constant and makes
//! cancellation safe: dropping an [`AsyncSpan`] emits the record.
//!
//! # Ring ownership
//!
//! Each thread lazily registers one [`TraceRing`] on first write. A ring
//! outlives its thread (its records stay exportable), and the next thread
//! to register takes it over, so ring memory is bounded by the peak number
//! of live writing threads. Writers are wait-free single-producer; the
//! exporter is a racing reader that validates a per-slot checksum and
//! drops torn records.

use core::cell::Cell;
use core::fmt::Write as _;
use core::marker::PhantomData;
use core::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use hemlock_core::events::LockEvent;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace epoch (first call wins).
///
/// Monotonic, cheap (one `Instant::elapsed`), and shared by every span so
/// cross-thread timestamps are comparable. The epoch is pinned lazily; all
/// callers after the first see a consistent origin.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------------

/// 0 = sampling disabled (the default). N>0 = trace 1 in N requests.
static SAMPLE_EVERY: AtomicU32 = AtomicU32::new(0);
/// Seed mixed into the request counter so the sampled subset is
/// deterministic per seed, not per boot.
static SAMPLE_SEED: AtomicU64 = AtomicU64::new(0);
/// Global request sequence; drives deterministic 1-in-N selection.
static REQ_SEQ: AtomicU64 = AtomicU64::new(0);

/// Enable 1-in-`every` request sampling with a deterministic `seed`, or
/// disable tracing entirely with `every == 0`.
///
/// The seed offsets which residue class of the request sequence is
/// sampled, so repeated runs with the same seed trace the same requests.
pub fn set_sampling(every: u32, seed: u64) {
    SAMPLE_SEED.store(seed, Ordering::Relaxed);
    SAMPLE_EVERY.store(every, Ordering::Relaxed);
}

/// Is sampling configured at all? One relaxed load — the disabled-cost
/// contract every hot path relies on.
#[inline]
pub fn active() -> bool {
    SAMPLE_EVERY.load(Ordering::Relaxed) != 0
}

/// Draw the next request's trace decision.
///
/// Returns `0` (not sampled) or a nonzero trace id. The id is the request
/// sequence number + 1, so ids are unique, dense, and stable for a given
/// seed. Costs one relaxed load when sampling is disabled.
#[inline]
pub fn sample_request() -> u64 {
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    if every == 0 {
        return 0;
    }
    let seq = REQ_SEQ.fetch_add(1, Ordering::Relaxed);
    let seed = SAMPLE_SEED.load(Ordering::Relaxed);
    if (seq.wrapping_add(seed)) % u64::from(every) == 0 {
        seq + 1
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// Site interning
// ---------------------------------------------------------------------------

/// Slots in the site table. The last one is never claimed: every site
/// interned after the others fill resolves to it, as `<overflow>`.
const MAX_SITES: usize = 64;
const OVERFLOW: usize = MAX_SITES - 1;

struct SiteTable {
    ptrs: [AtomicUsize; MAX_SITES],
    lens: [AtomicUsize; MAX_SITES],
}

static SITES: SiteTable = SiteTable::new();

impl SiteTable {
    const fn new() -> SiteTable {
        SiteTable {
            ptrs: [const { AtomicUsize::new(0) }; MAX_SITES],
            lens: [const { AtomicUsize::new(0) }; MAX_SITES],
        }
    }

    /// Pointer-identity scan-CAS: for string literals the same site
    /// resolves without rescanning past its slot. Lock-free; ties are
    /// broken by CAS and losers retry the same slot (the winner may be us
    /// by value).
    fn intern(&self, site: &'static str) -> usize {
        let p = site.as_ptr() as usize;
        for i in 0..OVERFLOW {
            let cur = self.ptrs[i].load(Ordering::Acquire);
            if cur == p {
                return i;
            }
            if cur == 0 {
                match self.ptrs[i].compare_exchange(0, p, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => {
                        // Only the CAS winner writes the len, so a reader
                        // that sees a nonzero len sees this slot's site.
                        self.lens[i].store(site.len(), Ordering::Release);
                        return i;
                    }
                    Err(found) => {
                        if found == p {
                            return i;
                        }
                        // Someone else claimed the slot with a different
                        // site; keep scanning.
                    }
                }
            } else if self.resolve(i) == Some(site) {
                // Distinct literal with equal contents: compare by value
                // so cross-crate duplicate names don't burn slots.
                return i;
            }
        }
        OVERFLOW
    }

    /// The site in slot `i`; `None` until its interner has stored the
    /// length.
    fn resolve(&self, i: usize) -> Option<&'static str> {
        let p = self.ptrs[i].load(Ordering::Acquire);
        let len = self.lens[i].load(Ordering::Acquire);
        if p == 0 || len == 0 {
            return None;
        }
        // SAFETY: a nonzero len is stored only by the thread whose CAS
        // installed `p` in this slot, after the CAS, and slots are never
        // cleared; so (p, len) is the `&'static str` that thread interned.
        Some(unsafe {
            core::str::from_utf8_unchecked(core::slice::from_raw_parts(p as *const u8, len))
        })
    }

    fn name(&self, id: usize) -> &'static str {
        match id {
            OVERFLOW => "<overflow>",
            id if id > OVERFLOW => "<unknown>",
            id => self.resolve(id).unwrap_or("<pending>"),
        }
    }
}

/// Intern a `&'static str` site name, returning a small id. Once the
/// table is full, new sites share one id that resolves to `<overflow>`.
pub fn intern(site: &'static str) -> usize {
    SITES.intern(site)
}

/// Resolve an interned site id back to its name.
pub fn site_name(id: usize) -> &'static str {
    SITES.name(id)
}

// ---------------------------------------------------------------------------
// Span kinds
// ---------------------------------------------------------------------------

/// How a recorded span renders in the Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A duration ("X") event: strictly nested on its thread track.
    Sync,
    /// An async ("b"/"e") pair: may overlap and cross threads.
    Async,
    /// A zero-duration instant ("i") marker.
    Instant,
    /// A lock event: an instant named `<site>:<event>` whose duration
    /// word carries the event's `arg` (see [`crate::census::note`]).
    Lock(LockEvent),
}

impl SpanKind {
    fn code(self) -> u64 {
        match self {
            SpanKind::Sync => 0,
            SpanKind::Async => 1,
            SpanKind::Instant => 2,
            SpanKind::Lock(e) => 3 + e as u64,
        }
    }
    fn from_code(c: u64) -> SpanKind {
        match c {
            1 => SpanKind::Async,
            2 => SpanKind::Instant,
            3.. => LockEvent::from_u8((c - 3) as u8).map_or(SpanKind::Sync, SpanKind::Lock),
            _ => SpanKind::Sync,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-thread checksummed ring
// ---------------------------------------------------------------------------

/// Golden-ratio constant xor-ed into every slot checksum so an all-zero
/// slot never validates.
const CHECK_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Records per thread ring. Power of two; at 1-in-N sampling with ~6
/// spans per request this holds thousands of sampled requests, or the
/// last 8192 lock events of an observed-lock thread.
const RING_CAP: usize = 8192;

struct Slot {
    t0: AtomicU64,
    dur: AtomicU64,
    id: AtomicU64,
    /// `site << 8 | kind`.
    meta: AtomicU64,
    /// xor of the four fields ^ [`CHECK_SEED`], stored last with Release.
    check: AtomicU64,
}

/// A single thread's wait-free span ring.
///
/// One writer (the owning thread), any number of racing readers, in the
/// seqlock discipline: the writer zeroes the checksum, stores the payload
/// fields relaxed and publishes with a Release checksum; readers Acquire
/// the checksum, load the fields, and keep the record only if the
/// checksum re-derives from them and is still in place afterwards (a
/// record torn by wraparound fails one of the two).
pub struct TraceRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl TraceRing {
    /// `cap` must be a power of two.
    fn new(cap: usize) -> TraceRing {
        let slots = (0..cap)
            .map(|_| Slot {
                t0: AtomicU64::new(0),
                dur: AtomicU64::new(0),
                id: AtomicU64::new(0),
                meta: AtomicU64::new(0),
                check: AtomicU64::new(0),
            })
            .collect();
        TraceRing {
            slots,
            head: AtomicU64::new(0),
        }
    }

    fn slot(&self, seq: u64) -> &Slot {
        &self.slots[(seq as usize) & (self.slots.len() - 1)]
    }

    /// Append one span record. Wait-free; overwrites the oldest slot on
    /// wraparound.
    pub fn push(&self, t0: u64, dur: u64, id: u64, site: usize, kind: SpanKind) {
        let meta = ((site as u64) << 8) | kind.code();
        let h = self.head.load(Ordering::Relaxed);
        let slot = self.slot(h);
        // Invalidate first. The fence pairs with the reader's Acquire
        // fence: a reader that loads any of the new fields then re-loads
        // this 0 (or a later checksum), never the old checksum.
        slot.check.store(0, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.t0.store(t0, Ordering::Relaxed);
        slot.dur.store(dur, Ordering::Relaxed);
        slot.id.store(id, Ordering::Relaxed);
        slot.meta.store(meta, Ordering::Relaxed);
        slot.check
            .store(t0 ^ dur ^ id ^ meta ^ CHECK_SEED, Ordering::Release);
        self.head.store(h.wrapping_add(1), Ordering::Release);
    }

    /// Snapshot every valid record, oldest first. Torn slots are skipped.
    pub fn dump(&self) -> Vec<RawSpan> {
        let h = self.head.load(Ordering::Acquire);
        let n = (h as usize).min(self.slots.len());
        let start = h.wrapping_sub(n as u64);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let slot = self.slot(start.wrapping_add(i as u64));
            let check = slot.check.load(Ordering::Acquire);
            if check == 0 {
                continue;
            }
            let t0 = slot.t0.load(Ordering::Relaxed);
            let dur = slot.dur.load(Ordering::Relaxed);
            let id = slot.id.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if check != t0 ^ dur ^ id ^ meta ^ CHECK_SEED
                || slot.check.load(Ordering::Relaxed) != check
            {
                continue; // torn by a racing wraparound write
            }
            out.push(RawSpan {
                t0,
                dur,
                id,
                site: (meta >> 8) as usize,
                kind: SpanKind::from_code(meta & 0xFF),
            });
        }
        out
    }

    /// Invalidate every record (between-run hygiene).
    fn reset(&self) {
        for s in self.slots.iter() {
            s.check.store(0, Ordering::Release);
        }
        self.head.store(0, Ordering::Release);
    }
}

/// One validated record read back out of a [`TraceRing`].
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    /// Start timestamp, ns since the trace epoch.
    pub t0: u64,
    /// Duration in ns (0 for instants).
    pub dur: u64,
    /// Request trace id (nonzero for spans; 0 for a lock event outside a
    /// sampled request).
    pub id: u64,
    /// Interned site id; resolve with [`site_name`].
    pub site: usize,
    /// How the span renders.
    pub kind: SpanKind,
}

struct NamedRing {
    name: String,
    ring: Arc<TraceRing>,
}

/// The ring registry. Every update leaves it valid, so a poisoned lock is
/// taken over rather than propagated.
fn rings() -> MutexGuard<'static, Vec<NamedRing>> {
    static RINGS: Mutex<Vec<NamedRing>> = Mutex::new(Vec::new());
    RINGS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hands the calling thread the ring of an exited thread, renamed after
/// the caller, or a new ring when every ring still has its owner.
///
/// The registry's handle is unique once the owner's thread-local handle
/// has dropped; `Arc::get_mut`'s Acquire pairs with that drop's Release,
/// so the old owner's writes happen before the new owner's.
fn register_ring() -> Arc<TraceRing> {
    let thread = std::thread::current();
    let mut v = rings();
    let i = match v
        .iter_mut()
        .position(|nr| Arc::get_mut(&mut nr.ring).is_some())
    {
        Some(i) => i,
        None => {
            v.push(NamedRing {
                name: String::new(),
                ring: Arc::new(TraceRing::new(RING_CAP)),
            });
            v.len() - 1
        }
    };
    v[i].name = format!("{}#{i}", thread.name().unwrap_or("thread"));
    Arc::clone(&v[i].ring)
}

thread_local! {
    static LOCAL_RING: Arc<TraceRing> = register_ring();
    /// The trace id of the request the current thread is working on
    /// (0 = none). Set per poll by [`Traced`], per burst by the server
    /// loop, and scoped by [`scoped`].
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// Trace id of the last future polled on this thread, consumed by the
    /// executor to retro-emit `pool.poll` spans.
    static LAST_POLL: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn push_local(t0: u64, dur: u64, id: u64, site: &'static str, kind: SpanKind) {
    // A write after this thread's ring was torn down (from another
    // thread-local's destructor) is dropped.
    let _ = LOCAL_RING.try_with(|r| r.push(t0, dur, id, intern(site), kind));
}

/// Write one lock event into the calling thread's ring, stamped now and
/// with the thread's current trace id; `arg` goes in the duration word.
pub(crate) fn lock_event(site: &'static str, event: LockEvent, arg: u64) {
    push_local(now_ns(), arg, current(), site, SpanKind::Lock(event));
}

/// Invalidate every registered ring — spans and lock events alike
/// (between-run hygiene in benches).
pub fn reset_rings() {
    for nr in rings().iter() {
        nr.ring.reset();
    }
    REQ_SEQ.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Request context
// ---------------------------------------------------------------------------

/// The trace id of the request the calling thread is currently executing,
/// or 0. One relaxed load when sampling is disabled.
#[inline]
pub fn current() -> u64 {
    if SAMPLE_EVERY.load(Ordering::Relaxed) == 0 {
        return 0;
    }
    CURRENT.with(|c| c.get())
}

/// Set the calling thread's current trace id, returning the previous one.
#[inline]
pub fn set_current(id: u64) -> u64 {
    CURRENT.with(|c| c.replace(id))
}

/// Run `f` with `id` as the thread's current trace id (sync contexts:
/// bench worker threads, tests).
pub fn scoped<T>(id: u64, f: impl FnOnce() -> T) -> T {
    let prev = set_current(id);
    let out = f();
    set_current(prev);
    out
}

/// Consume the trace id of the last future polled on this thread.
///
/// The executor calls this after each poll to decide whether to
/// retro-emit a `pool.poll` span for the interval it just measured.
#[inline]
pub fn take_polled_trace() -> u64 {
    LAST_POLL.with(|c| c.replace(0))
}

fn note_polled(id: u64) {
    LAST_POLL.with(|c| c.set(id));
}

// ---------------------------------------------------------------------------
// Span emission
// ---------------------------------------------------------------------------

/// Retroactively emit a span with explicit endpoints. No-op for id 0.
#[inline]
pub fn span_at(id: u64, site: &'static str, t0: u64, end: u64, kind: SpanKind) {
    if id == 0 {
        return;
    }
    push_local(t0, end.saturating_sub(t0), id, site, kind);
}

/// Emit a zero-duration instant marker. No-op for id 0.
#[inline]
pub fn instant(id: u64, site: &'static str) {
    if id == 0 {
        return;
    }
    push_local(now_ns(), 0, id, site, SpanKind::Instant);
}

/// RAII sync span: records a nested "X" event from construction to drop.
///
/// `!Send` by construction — a sync span must begin and end on one thread
/// (Chrome duration events are per-track and must nest).
pub struct SyncSpan {
    id: u64,
    site: &'static str,
    t0: u64,
    _not_send: PhantomData<*const ()>,
}

impl SyncSpan {
    /// Start a sync span for `id` (no-op span when `id == 0`).
    #[inline]
    pub fn start(id: u64, site: &'static str) -> SyncSpan {
        let t0 = if id == 0 { 0 } else { now_ns() };
        SyncSpan {
            id,
            site,
            t0,
            _not_send: PhantomData,
        }
    }
}

impl Drop for SyncSpan {
    #[inline]
    fn drop(&mut self) {
        if self.id != 0 {
            let end = now_ns();
            push_local(
                self.t0,
                end.saturating_sub(self.t0),
                self.id,
                self.site,
                SpanKind::Sync,
            );
        }
    }
}

/// RAII async span: records a "b"/"e" pair from construction to drop.
///
/// `Send` — the end may land on a different thread than the begin, and
/// dropping a cancelled future still emits the span (the record is written
/// once, at drop).
pub struct AsyncSpan {
    id: u64,
    site: &'static str,
    t0: u64,
}

impl AsyncSpan {
    /// Start an async span for `id` (no-op span when `id == 0`).
    #[inline]
    pub fn start(id: u64, site: &'static str) -> AsyncSpan {
        let t0 = if id == 0 { 0 } else { now_ns() };
        AsyncSpan { id, site, t0 }
    }
}

impl Drop for AsyncSpan {
    #[inline]
    fn drop(&mut self) {
        if self.id != 0 {
            let end = now_ns();
            push_local(
                self.t0,
                end.saturating_sub(self.t0),
                self.id,
                self.site,
                SpanKind::Async,
            );
        }
    }
}

/// Helper for lock-wait spans inside `poll_fn` loops.
///
/// Armed on the first `Pending`, finished on `Ready`; emits one async
/// span covering the whole wait. If the future is dropped mid-wait the
/// caller's surrounding spans still record; the wait itself is abandoned
/// (by design — a cancelled wait has no meaningful end).
#[derive(Default)]
pub struct Waiter {
    armed: Option<(u64, u64)>,
}

impl Waiter {
    /// Create an unarmed waiter.
    pub const fn new() -> Waiter {
        Waiter { armed: None }
    }

    /// Note that the wait has begun (idempotent). No-op for id 0.
    #[inline]
    pub fn arm(&mut self, id: u64) {
        if id != 0 && self.armed.is_none() {
            self.armed = Some((id, now_ns()));
        }
    }

    /// The wait is over: emit the span if armed.
    #[inline]
    pub fn finish(&mut self, site: &'static str) {
        if let Some((id, t0)) = self.armed.take() {
            let end = now_ns();
            push_local(t0, end.saturating_sub(t0), id, site, SpanKind::Async);
        }
    }
}

// ---------------------------------------------------------------------------
// Traced future wrapper
// ---------------------------------------------------------------------------

use core::future::Future;
use core::pin::Pin;
use core::task::{Context, Poll};

/// Wrap a request future so every poll runs with `id` as the thread's
/// current trace id, gaps between polls emit `task.suspend` async spans,
/// and the executor can retro-emit `pool.poll` spans.
pub fn traced<F: Future>(id: u64, fut: F) -> Traced<F> {
    Traced {
        id,
        fut,
        last_pause: 0,
    }
}

/// Future wrapper produced by [`traced`]; see that function.
pub struct Traced<F> {
    id: u64,
    fut: F,
    last_pause: u64,
}

impl<F: Future> Future for Traced<F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        // Manual pin projection: `fut` is structurally pinned, the scalar
        // fields are not.
        let this = unsafe { self.get_unchecked_mut() };
        let fut = unsafe { Pin::new_unchecked(&mut this.fut) };
        if this.id == 0 {
            return fut.poll(cx);
        }
        let t = now_ns();
        if this.last_pause != 0 {
            span_at(this.id, "task.suspend", this.last_pause, t, SpanKind::Async);
            this.last_pause = 0;
        }
        let prev = set_current(this.id);
        let out = fut.poll(cx);
        set_current(prev);
        note_polled(this.id);
        if out.is_pending() {
            this.last_pause = now_ns();
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

/// One event ready for Chrome-trace rendering or integrity checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportEvent {
    /// Span site name (Chrome `name`); for a lock event, the lock's name.
    pub name: String,
    /// Track (thread) name.
    pub track: String,
    /// Track index (Chrome `tid`).
    pub tid: usize,
    /// Start timestamp, ns since the trace epoch.
    pub t0_ns: u64,
    /// Duration in ns; for a lock event, its `arg`.
    pub dur_ns: u64,
    /// Request trace id (Chrome async `id`).
    pub trace_id: u64,
    /// Span kind (selects the Chrome phase).
    pub kind: SpanKind,
}

/// Drain every registered ring into export events (oldest-first per ring).
pub fn export_events() -> Vec<ExportEvent> {
    let mut out = Vec::new();
    for (tid, nr) in rings().iter().enumerate() {
        for s in nr.ring.dump() {
            out.push(ExportEvent {
                name: site_name(s.site).to_owned(),
                track: nr.name.clone(),
                tid,
                t0_ns: s.t0,
                dur_ns: s.dur,
                trace_id: s.id,
                kind: s.kind,
            });
        }
    }
    out
}

fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn us(ns: u64) -> String {
    // Chrome trace timestamps are µs; three decimals keep exact ns.
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Render events as a Chrome-trace-event JSON document (one event per
/// line) that `chrome://tracing` and Perfetto open directly.
///
/// Sync spans become "X" duration events, async spans become "b"/"e"
/// pairs matched by `(cat, id, name)`, instants become "i". A lock event
/// becomes an "i" of category `lock` named `<site>:<event>`, with its
/// `arg` next to the trace id in `args`. Each distinct track gets an "M"
/// thread-name metadata record.
pub fn chrome_trace_json(events: &[ExportEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 64);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
    };
    // Thread-name metadata: one per distinct tid.
    let mut seen_tids: Vec<(usize, &str)> = Vec::new();
    for e in events {
        if !seen_tids.iter().any(|(t, _)| *t == e.tid) {
            seen_tids.push((e.tid, &e.track));
        }
    }
    seen_tids.sort_by_key(|(t, _)| *t);
    for (tid, track) in seen_tids {
        sep(&mut out);
        out.push_str("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":");
        let _ = write!(out, "{tid}");
        out.push_str(",\"args\":{\"name\":\"");
        push_json_escaped(&mut out, track);
        out.push_str("\"}}");
    }
    for e in events {
        let mut emit = |ph: &str, ts: u64, dur: Option<u64>| {
            sep(&mut out);
            out.push_str("{\"ph\":\"");
            out.push_str(ph);
            out.push_str("\",\"name\":\"");
            push_json_escaped(&mut out, &e.name);
            let cat = match e.kind {
                SpanKind::Lock(ev) => {
                    let _ = write!(out, ":{}", ev.name());
                    "lock"
                }
                _ => "req",
            };
            let _ = write!(out, "\",\"cat\":\"{cat}\",\"pid\":1,\"tid\":{}", e.tid);
            out.push_str(",\"ts\":");
            out.push_str(&us(ts));
            if let Some(d) = dur {
                out.push_str(",\"dur\":");
                out.push_str(&us(d));
            }
            if ph == "b" || ph == "e" {
                let _ = write!(out, ",\"id\":\"{:x}\"", e.trace_id);
            } else {
                out.push_str(",\"args\":{\"trace\":");
                let _ = write!(out, "{}", e.trace_id);
                if let SpanKind::Lock(_) = e.kind {
                    let _ = write!(out, ",\"arg\":{}", e.dur_ns);
                }
                out.push('}');
            }
            if ph == "i" {
                out.push_str(",\"s\":\"t\"");
            }
            out.push('}');
        };
        match e.kind {
            SpanKind::Sync => emit("X", e.t0_ns, Some(e.dur_ns)),
            SpanKind::Async => {
                emit("b", e.t0_ns, None);
                emit("e", e.t0_ns + e.dur_ns, None);
            }
            SpanKind::Instant | SpanKind::Lock(_) => emit("i", e.t0_ns, None),
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Render the lock events among `events`, in the order given, one line
/// each: `t0_ns thread site event arg` — the `RECORDER` opcode's text.
pub fn lock_events_text(events: &[ExportEvent]) -> String {
    let mut out = String::from("# lock events: t0_ns thread site event arg\n");
    for e in events {
        if let SpanKind::Lock(ev) = e.kind {
            let _ = writeln!(
                out,
                "{} {} {} {} {}",
                e.t0_ns,
                e.track,
                e.name,
                ev.name(),
                e.dur_ns
            );
        }
    }
    out
}

/// Drain every ring and render the result as Chrome-trace JSON.
pub fn export_chrome_json() -> String {
    let mut events = export_events();
    events.sort_by_key(|e| (e.tid, e.t0_ns, core::cmp::Reverse(e.dur_ns)));
    chrome_trace_json(&events)
}

// ---------------------------------------------------------------------------
// Parse + integrity checking
// ---------------------------------------------------------------------------

/// Extract a JSON string field (`"key":"value"`) from one event line.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Extract a numeric JSON field (`"key":123.456`) from one event line.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse a document produced by [`chrome_trace_json`] back into events.
///
/// Line-oriented: understands exactly the subset our emitter writes ("X",
/// "b"/"e" matched per `(trace_id, name)` in order, "i", "M" thread
/// names). Used by the integrity tests and the loadgen decomposition
/// report; not a general Chrome-trace parser.
pub fn parse_chrome_json(doc: &str) -> Vec<ExportEvent> {
    // (trace_id, name) -> stack of pending begins as (tid, ts) pairs.
    type PendingBegins = Vec<((u64, String), Vec<(usize, u64)>)>;
    let mut names: Vec<(usize, String)> = Vec::new();
    let mut out = Vec::new();
    let mut pending: PendingBegins = Vec::new();
    let ns_of = |v: f64| -> u64 { (v * 1000.0).round() as u64 };
    for line in doc.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') {
            continue;
        }
        let Some(ph) = json_str(line, "ph") else {
            continue;
        };
        match ph {
            "M" => {
                if let (Some(tid), Some(name)) = (json_num(line, "tid"), json_str(line, "name")) {
                    if name == "thread_name" {
                        // the args name is the second "name" occurrence
                        if let Some(tail) = line.rfind("\"name\":\"").map(|i| &line[i + 8..]) {
                            if let Some(end) = tail.find('"') {
                                names.push((tid as usize, tail[..end].to_owned()));
                            }
                        }
                    }
                }
            }
            "X" => {
                let (Some(name), Some(tid), Some(ts), Some(dur)) = (
                    json_str(line, "name"),
                    json_num(line, "tid"),
                    json_num(line, "ts"),
                    json_num(line, "dur"),
                ) else {
                    continue;
                };
                let trace = json_num(line, "trace").unwrap_or(0.0) as u64;
                out.push(ExportEvent {
                    name: name.to_owned(),
                    track: String::new(),
                    tid: tid as usize,
                    t0_ns: ns_of(ts),
                    dur_ns: ns_of(dur),
                    trace_id: trace,
                    kind: SpanKind::Sync,
                });
            }
            "i" => {
                let (Some(name), Some(tid), Some(ts)) = (
                    json_str(line, "name"),
                    json_num(line, "tid"),
                    json_num(line, "ts"),
                ) else {
                    continue;
                };
                let trace = json_num(line, "trace").unwrap_or(0.0) as u64;
                let (name, dur_ns, kind) = match json_str(line, "cat") {
                    Some("lock") => {
                        let Some((site, ev)) = name.rsplit_once(':') else {
                            continue;
                        };
                        let Some(ev) = (0..=u8::MAX)
                            .map_while(LockEvent::from_u8)
                            .find(|e| e.name() == ev)
                        else {
                            continue;
                        };
                        let arg = json_num(line, "arg").unwrap_or(0.0) as u64;
                        (site, arg, SpanKind::Lock(ev))
                    }
                    _ => (name, 0, SpanKind::Instant),
                };
                out.push(ExportEvent {
                    name: name.to_owned(),
                    track: String::new(),
                    tid: tid as usize,
                    t0_ns: ns_of(ts),
                    dur_ns,
                    trace_id: trace,
                    kind,
                });
            }
            "b" | "e" => {
                let (Some(name), Some(tid), Some(ts), Some(id)) = (
                    json_str(line, "name"),
                    json_num(line, "tid"),
                    json_num(line, "ts"),
                    json_str(line, "id"),
                ) else {
                    continue;
                };
                let trace = u64::from_str_radix(id, 16).unwrap_or(0);
                let key = (trace, name.to_owned());
                let entry = match pending.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, v)) => v,
                    None => {
                        pending.push((key, Vec::new()));
                        &mut pending.last_mut().unwrap().1
                    }
                };
                if ph == "b" {
                    entry.push((tid as usize, ns_of(ts)));
                } else if let Some((btid, bts)) = entry.pop() {
                    out.push(ExportEvent {
                        name: name.to_owned(),
                        track: String::new(),
                        tid: btid,
                        t0_ns: bts,
                        dur_ns: ns_of(ts).saturating_sub(bts),
                        trace_id: trace,
                        kind: SpanKind::Async,
                    });
                }
            }
            _ => {}
        }
    }
    for e in &mut out {
        if let Some((_, n)) = names.iter().find(|(t, _)| *t == e.tid) {
            e.track.clone_from(n);
        }
    }
    out
}

/// Check trace well-formedness; returns the list of violations (empty =
/// well-formed).
///
/// Invariants checked:
/// * sync ("X") events on one tid strictly nest — no partial overlap;
/// * every span's duration is non-negative by construction (`u64`), and
///   `t0 + dur` does not overflow;
/// * async spans with the same `(trace_id, name)` have begin <= end
///   (guaranteed by the single-record emitter, re-checked after a JSON
///   round trip).
pub fn check_well_formed(events: &[ExportEvent]) -> Vec<String> {
    let mut errs = Vec::new();
    // Per-tid sync nesting sweep.
    let mut tids: Vec<usize> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let mut sync: Vec<&ExportEvent> = events
            .iter()
            .filter(|e| e.tid == tid && e.kind == SpanKind::Sync)
            .collect();
        sync.sort_by_key(|e| (e.t0_ns, core::cmp::Reverse(e.dur_ns)));
        let mut stack: Vec<(u64, &str)> = Vec::new(); // (end, name)
        for e in sync {
            let end = match e.t0_ns.checked_add(e.dur_ns) {
                Some(v) => v,
                None => {
                    errs.push(format!("{}: t0+dur overflows", e.name));
                    continue;
                }
            };
            while let Some(&(top_end, _)) = stack.last() {
                if top_end <= e.t0_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(top_end, top_name)) = stack.last() {
                if end > top_end {
                    errs.push(format!(
                        "tid {tid}: sync span {} [{}, {}) partially overlaps {} (ends {})",
                        e.name, e.t0_ns, end, top_name, top_end
                    ));
                    continue;
                }
            }
            stack.push((end, &e.name));
        }
    }
    // Async pairing sanity: after a parse round-trip unmatched begins stay
    // in the parser's pending set and never become events, so here we only
    // re-check computed durations; direct exports can't violate this.
    for e in events {
        if e.t0_ns.checked_add(e.dur_ns).is_none() {
            errs.push(format!("{}: t0+dur overflows", e.name));
        }
    }
    errs
}

// ---------------------------------------------------------------------------
// RTT decomposition
// ---------------------------------------------------------------------------

/// One sampled request's round-trip time split into the pipeline stages a
/// request passes through, computed from exported span events by
/// [`decompose_requests`]. All figures are nanoseconds.
///
/// The components are designed to (approximately) sum to `total_ns`:
/// `queue_ns` is the scheduler/suspension share left over after the
/// lock-wait and flush suspensions — which have their own spans — are
/// subtracted from the task's total suspended time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RttDecomp {
    /// The request's trace id.
    pub trace_id: u64,
    /// Decode plus the full dispatch-to-flushed interval
    /// (`net.decode` + `net.request`).
    pub total_ns: u64,
    /// Wire decode share (`net.decode`).
    pub decode_ns: u64,
    /// Executor queueing share: total task suspension (`task.suspend`)
    /// minus the suspensions already attributed to lock waits and flush.
    pub queue_ns: u64,
    /// Shard/central lock acquisition waits (`shard.lock_wait`).
    pub lock_wait_ns: u64,
    /// Time under a lock: guard hold time (`shard.lock_hold`), or — for a
    /// request whose ops were flat-combined by another task's combiner,
    /// so it never held the lock itself — the combiner's serve time for
    /// this request (`shard.combine_serve`).
    pub hold_ns: u64,
    /// Response encode + socket flush share (`net.encode` + `net.flush`).
    pub flush_ns: u64,
}

impl RttDecomp {
    /// Nanoseconds of `total_ns` not claimed by any component — parse
    /// overhead, executor poll bookkeeping, non-lock CPU work.
    pub fn unattributed_ns(&self) -> u64 {
        self.total_ns.saturating_sub(
            self.decode_ns + self.queue_ns + self.lock_wait_ns + self.hold_ns + self.flush_ns,
        )
    }
}

/// Groups exported span events by trace id and computes one [`RttDecomp`]
/// per request that has a `net.request` span (partial requests still in
/// flight, and spans from ids whose `net.request` record was overwritten
/// by ring wraparound, are dropped). Output is sorted by trace id.
pub fn decompose_requests(events: &[ExportEvent]) -> Vec<RttDecomp> {
    #[derive(Default)]
    struct Acc {
        request: u64,
        decode: u64,
        suspend: u64,
        lock_wait: u64,
        hold: u64,
        serve: u64,
        flush: u64,
    }
    let mut by_id: std::collections::BTreeMap<u64, Acc> = std::collections::BTreeMap::new();
    for e in events {
        if e.trace_id == 0 {
            continue;
        }
        let a = by_id.entry(e.trace_id).or_default();
        match e.name.as_str() {
            "net.request" => a.request += e.dur_ns,
            "net.decode" => a.decode += e.dur_ns,
            "net.encode" | "net.flush" => a.flush += e.dur_ns,
            "task.suspend" => a.suspend += e.dur_ns,
            "shard.lock_wait" => a.lock_wait += e.dur_ns,
            "shard.lock_hold" => a.hold += e.dur_ns,
            "shard.combine_serve" => a.serve += e.dur_ns,
            _ => {}
        }
    }
    by_id
        .into_iter()
        .filter(|(_, a)| a.request > 0)
        .map(|(id, a)| {
            // A combiner's serve time for its own ops nests inside its
            // lock hold; only a pure poster (no hold of its own) counts
            // the combiner's serve span as its lock-time share.
            let hold = if a.hold > 0 { a.hold } else { a.serve };
            RttDecomp {
                trace_id: id,
                total_ns: a.decode + a.request,
                decode_ns: a.decode,
                queue_ns: a.suspend.saturating_sub(a.lock_wait + a.flush),
                lock_wait_ns: a.lock_wait,
                hold_ns: hold,
                flush_ns: a.flush,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Sampling and the rings are process-global and the harness runs
    // tests concurrently in one process: a test that changes sampling
    // holds the crate's ring-test lock and turns sampling off on drop.
    struct Sampling {
        _lock: std::sync::MutexGuard<'static, ()>,
    }
    impl Sampling {
        fn on(every: u32, seed: u64) -> Sampling {
            let _lock = crate::ring_tests();
            set_sampling(every, seed);
            Sampling { _lock }
        }
    }
    impl Drop for Sampling {
        fn drop(&mut self) {
            set_sampling(0, 0);
        }
    }

    #[test]
    fn disabled_by_default_and_cheap() {
        let _rings = crate::ring_tests();
        assert!(!active());
        assert_eq!(sample_request(), 0);
        assert_eq!(current(), 0);
    }

    #[test]
    fn interning_is_stable_and_resolves() {
        let a = intern("test.site.a");
        let b = intern("test.site.b");
        assert_ne!(a, b);
        assert_eq!(intern("test.site.a"), a);
        assert_eq!(site_name(a), "test.site.a");
        assert_eq!(site_name(b), "test.site.b");
        assert_eq!(site_name(MAX_SITES + 7), "<unknown>");
    }

    #[test]
    fn ring_roundtrip_and_wraparound() {
        let site = intern("test.ring");
        // Any write count up to two laps keeps exactly the newest
        // min(writes, capacity) records, oldest first.
        for writes in 0..20u64 {
            let ring = TraceRing::new(8);
            for i in 0..writes {
                ring.push(i, 1, i + 1, site, SpanKind::Sync);
            }
            let t0s: Vec<u64> = ring.dump().iter().map(|s| s.t0).collect();
            assert_eq!(t0s, (writes.saturating_sub(8)..writes).collect::<Vec<_>>());
        }
        let ring = TraceRing::new(RING_CAP);
        for i in 0..(RING_CAP as u64 + 10) {
            ring.push(i, 1, i + 1, site, SpanKind::Sync);
        }
        let spans = ring.dump();
        assert_eq!(spans.len(), RING_CAP);
        // Oldest surviving record is the 11th push.
        assert_eq!(spans[0].t0, 10);
        assert_eq!(spans.last().unwrap().t0, RING_CAP as u64 + 9);
        for w in spans.windows(2) {
            assert!(w[0].t0 < w[1].t0);
        }
    }

    #[test]
    fn kind_codes_roundtrip() {
        let lock_kinds = (0..=u8::MAX)
            .map_while(LockEvent::from_u8)
            .map(SpanKind::Lock);
        for k in [SpanKind::Sync, SpanKind::Async, SpanKind::Instant]
            .into_iter()
            .chain(lock_kinds)
        {
            assert_eq!(SpanKind::from_code(k.code()), k);
        }
    }

    #[test]
    fn interner_overflow_resolves_to_overflow_not_a_real_site() {
        // Distinct pointers and contents: the suffixes of one literal.
        const TEXT: &str =
            "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ<>+-*/=!?^~";
        let table = SiteTable::new();
        for i in 0..MAX_SITES + 6 {
            let site = &TEXT[i..];
            let want = if i < OVERFLOW { site } else { "<overflow>" };
            assert_eq!(table.name(table.intern(site)), want, "site #{i}");
        }
    }

    #[test]
    fn dump_racing_wraparound_never_splices_records() {
        // Directed schedule for the checksum discipline: a dumper hammers
        // a tiny ring while its writer wraps it continuously, so most
        // reads race an overwrite. Every surviving record must be one the
        // writer wrote — a splice of two writes must have been dropped.
        const CAP: usize = 4;
        #[cfg(miri)]
        const WRITES: u64 = 300;
        #[cfg(not(miri))]
        const WRITES: u64 = 200_000;
        let kind = SpanKind::Lock(LockEvent::Acquire);
        let ring = TraceRing::new(CAP);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for seq in 0..WRITES {
                    ring.push(seq, seq * 3 + 1, seq * 5 + 2, 7, kind);
                }
                done.store(true, Ordering::Release);
            });
            loop {
                let last = done.load(Ordering::Acquire);
                for r in ring.dump() {
                    let seq = r.t0;
                    assert!(seq < WRITES, "t0 {seq} was never written");
                    assert_eq!(
                        (r.dur, r.id, r.site, r.kind),
                        (seq * 3 + 1, seq * 5 + 2, 7, kind),
                        "spliced record"
                    );
                }
                if last {
                    break;
                }
            }
        });
        // Quiescent after the race: every slot holds a committed record.
        assert_eq!(ring.dump().len(), CAP);
    }

    #[test]
    fn lock_events_carry_the_scoped_trace_id_and_roundtrip() {
        let _sampling = Sampling::on(1, 0);
        reset_rings();
        let l = crate::ObservedHemlock::default();
        scoped(31, || {
            use hemlock_core::raw::RawLock;
            l.lock();
            // SAFETY: acquired just above on this thread.
            unsafe { l.unlock() };
        });
        let events = export_events();
        let mine: Vec<ExportEvent> = events
            .iter()
            .filter(|e| e.trace_id == 31)
            .cloned()
            .collect();
        let got: Vec<(&str, SpanKind)> = mine.iter().map(|e| (e.name.as_str(), e.kind)).collect();
        let lock = |e| ("Hemlock(obs)", SpanKind::Lock(e));
        assert_eq!(got, [lock(LockEvent::Acquire), lock(LockEvent::Release)]);
        assert!(check_well_formed(&events).is_empty());
        let doc = chrome_trace_json(&events);
        assert!(doc.contains("\"name\":\"Hemlock(obs):acquire\",\"cat\":\"lock\""));
        let parsed = parse_chrome_json(&doc);
        let back: Vec<ExportEvent> = parsed.into_iter().filter(|e| e.trace_id == 31).collect();
        assert_eq!(back, mine, "lock events survive the JSON unchanged");
        reset_rings();
    }

    #[test]
    fn chrome_json_roundtrips_through_parser() {
        let events = vec![
            ExportEvent {
                name: "net.request".into(),
                track: "conn#0".into(),
                tid: 0,
                t0_ns: 1_000,
                dur_ns: 9_500,
                trace_id: 42,
                kind: SpanKind::Async,
            },
            ExportEvent {
                name: "net.decode".into(),
                track: "conn#0".into(),
                tid: 0,
                t0_ns: 1_100,
                dur_ns: 300,
                trace_id: 42,
                kind: SpanKind::Sync,
            },
            ExportEvent {
                name: "shard.lock_wait".into(),
                track: "pool#1".into(),
                tid: 1,
                t0_ns: 2_000,
                dur_ns: 4_001,
                trace_id: 42,
                kind: SpanKind::Async,
            },
            ExportEvent {
                name: "mark".into(),
                track: "pool#1".into(),
                tid: 1,
                t0_ns: 3_000,
                dur_ns: 0,
                trace_id: 42,
                kind: SpanKind::Instant,
            },
            ExportEvent {
                name: "Hemlock(obs)".into(),
                track: "pool#1".into(),
                tid: 1,
                t0_ns: 3_500,
                dur_ns: 2,
                trace_id: 42,
                kind: SpanKind::Lock(LockEvent::Acquire),
            },
        ];
        let doc = chrome_trace_json(&events);
        let parsed = parse_chrome_json(&doc);
        assert_eq!(parsed.len(), events.len());
        for e in &events {
            let p = parsed
                .iter()
                .find(|p| p.name == e.name && p.kind == e.kind)
                .unwrap_or_else(|| panic!("missing {}", e.name));
            assert_eq!(p.t0_ns, e.t0_ns, "{}", e.name);
            assert_eq!(p.dur_ns, e.dur_ns, "{}", e.name);
            assert_eq!(p.trace_id, e.trace_id, "{}", e.name);
            assert_eq!(p.tid, e.tid, "{}", e.name);
        }
        assert!(check_well_formed(&parsed).is_empty());
        // Track names recovered from the M records.
        assert!(parsed.iter().any(|p| p.track == "conn#0"));
    }

    #[test]
    fn well_formedness_flags_partial_overlap() {
        let bad = vec![
            ExportEvent {
                name: "a".into(),
                track: String::new(),
                tid: 0,
                t0_ns: 0,
                dur_ns: 100,
                trace_id: 1,
                kind: SpanKind::Sync,
            },
            ExportEvent {
                name: "b".into(),
                track: String::new(),
                tid: 0,
                t0_ns: 50,
                dur_ns: 100,
                trace_id: 1,
                kind: SpanKind::Sync,
            },
        ];
        let errs = check_well_formed(&bad);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("partially overlaps"));
    }

    #[test]
    fn sampling_selects_one_in_n_deterministically() {
        let _sampling = Sampling::on(4, 7);
        REQ_SEQ.store(0, Ordering::Relaxed);
        let picks: Vec<u64> = (0..16).map(|_| sample_request()).collect();
        let sampled: Vec<u64> = picks.iter().copied().filter(|&p| p != 0).collect();
        assert_eq!(sampled.len(), 4, "{picks:?}");
        // (seq + 7) % 4 == 0 → seq ∈ {1, 5, 9, 13} → ids seq+1.
        assert_eq!(sampled, vec![2, 6, 10, 14]);
        // Same seed, same subset.
        REQ_SEQ.store(0, Ordering::Relaxed);
        let again: Vec<u64> = (0..16).map(|_| sample_request()).collect();
        assert_eq!(picks, again);
    }

    #[test]
    fn spans_record_into_the_thread_ring() {
        let _sampling = Sampling::on(1, 0);
        reset_rings();
        {
            let _outer = SyncSpan::start(99, "test.outer");
            let _inner = SyncSpan::start(99, "test.inner");
        }
        {
            let _a = AsyncSpan::start(99, "test.async");
        }
        instant(99, "test.instant");
        let mut w = Waiter::new();
        w.arm(99);
        w.arm(99); // idempotent
        w.finish("test.wait");
        let events = export_events();
        let mine: Vec<&ExportEvent> = events.iter().filter(|e| e.trace_id == 99).collect();
        let names: Vec<&str> = mine.iter().map(|e| e.name.as_str()).collect();
        for want in [
            "test.outer",
            "test.inner",
            "test.async",
            "test.instant",
            "test.wait",
        ] {
            assert!(names.contains(&want), "missing {want} in {names:?}");
        }
        assert_eq!(names.iter().filter(|n| **n == "test.wait").count(), 1);
        assert!(check_well_formed(&events).is_empty());
        // The whole export renders and reparses.
        let doc = chrome_trace_json(&events);
        let parsed = parse_chrome_json(&doc);
        assert_eq!(parsed.len(), events.len());
        reset_rings();
    }

    #[test]
    fn scoped_restores_previous_id() {
        let _sampling = Sampling::on(1, 0);
        assert_eq!(current(), 0);
        scoped(5, || {
            assert_eq!(current(), 5);
            scoped(6, || assert_eq!(current(), 6));
            assert_eq!(current(), 5);
        });
        assert_eq!(current(), 0);
    }

    #[test]
    fn traced_future_sets_context_and_emits_suspend() {
        use core::future::poll_fn;
        let _sampling = Sampling::on(1, 0);
        reset_rings();
        let mut polls = 0;
        let fut = traced(
            77,
            poll_fn(move |cx| {
                assert_eq!(current(), 77);
                polls += 1;
                if polls < 3 {
                    cx.waker().wake_by_ref();
                    Poll::Pending
                } else {
                    Poll::Ready(())
                }
            }),
        );
        block_on_inline(fut);
        assert_eq!(take_polled_trace(), 77);
        assert_eq!(take_polled_trace(), 0);
        let suspends = export_events()
            .into_iter()
            .filter(|e| e.name == "task.suspend" && e.trace_id == 77)
            .count();
        assert_eq!(suspends, 2);
        reset_rings();
    }

    #[test]
    fn dropped_async_span_still_records() {
        let _sampling = Sampling::on(1, 0);
        reset_rings();
        let fut = traced(88, async {
            let _hold = AsyncSpan::start(current(), "test.cancelled_hold");
            core::future::pending::<()>().await;
        });
        // Poll once, then drop: the span must still be emitted.
        let mut fut = Box::pin(fut);
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        assert!(fut.as_mut().poll(&mut cx).is_pending());
        drop(fut);
        let found = export_events()
            .into_iter()
            .any(|e| e.name == "test.cancelled_hold" && e.trace_id == 88);
        assert!(found);
        reset_rings();
    }

    fn noop_waker() -> core::task::Waker {
        use core::task::{RawWaker, RawWakerVTable, Waker};
        fn clone(_: *const ()) -> RawWaker {
            RawWaker::new(core::ptr::null(), &VTABLE)
        }
        fn nop(_: *const ()) {}
        static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, nop, nop, nop);
        unsafe { Waker::from_raw(RawWaker::new(core::ptr::null(), &VTABLE)) }
    }

    /// Minimal inline block_on for tests (obs cannot depend on harness).
    fn block_on_inline<F: Future>(fut: F) -> F::Output {
        let mut fut = Box::pin(fut);
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        loop {
            if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
                return v;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn decomposition_attributes_components_and_balances() {
        let ev = |name: &str, id: u64, t0: u64, dur: u64, kind: SpanKind| ExportEvent {
            name: name.to_owned(),
            track: "t".to_owned(),
            tid: 0,
            t0_ns: t0,
            dur_ns: dur,
            trace_id: id,
            kind,
        };
        let events = vec![
            // Request 5: a combiner — holds the lock, serves its own ops.
            ev("net.decode", 5, 0, 100, SpanKind::Sync),
            ev("net.request", 5, 100, 1000, SpanKind::Async),
            ev("task.suspend", 5, 150, 400, SpanKind::Async),
            ev("shard.lock_wait", 5, 150, 250, SpanKind::Async),
            ev("shard.lock_hold", 5, 400, 200, SpanKind::Async),
            ev("shard.combine_serve", 5, 410, 150, SpanKind::Sync),
            ev("net.encode", 5, 700, 50, SpanKind::Sync),
            ev("net.flush", 5, 750, 100, SpanKind::Async),
            // Request 9: a pure poster — another task's combiner served it.
            ev("net.request", 9, 2000, 500, SpanKind::Async),
            ev("task.suspend", 9, 2050, 300, SpanKind::Async),
            ev("shard.combine_serve", 9, 2100, 120, SpanKind::Sync),
            // Orphan spans: no net.request, must be dropped.
            ev("shard.lock_hold", 11, 3000, 40, SpanKind::Async),
            // Untraced spans are ignored entirely.
            ev("net.decode", 0, 0, 9999, SpanKind::Sync),
        ];
        let ds = decompose_requests(&events);
        assert_eq!(ds.len(), 2);

        let d5 = ds[0];
        assert_eq!(d5.trace_id, 5);
        assert_eq!(d5.total_ns, 1100);
        assert_eq!(d5.decode_ns, 100);
        assert_eq!(d5.lock_wait_ns, 250);
        // Combiner: hold wins; its own serve span nests inside the hold.
        assert_eq!(d5.hold_ns, 200);
        assert_eq!(d5.flush_ns, 150);
        // queue = suspend - (lock_wait + flush) = 400 - 400 = 0.
        assert_eq!(d5.queue_ns, 0);
        assert_eq!(d5.unattributed_ns(), 1100 - (100 + 250 + 200 + 150));

        let d9 = ds[1];
        assert_eq!(d9.trace_id, 9);
        // Poster: the combiner's serve time stands in for hold.
        assert_eq!(d9.hold_ns, 120);
        assert_eq!(d9.queue_ns, 300);
        assert_eq!(d9.total_ns, 500);
    }
}
