//! The lock-event flight recorder: a fixed-size, lock-free ring of the
//! most recent `{timestamp-tick, site, event, arg}` records.
//!
//! Writers claim a slot with one `fetch_add` on the head and publish the
//! record with three relaxed stores plus a checksum; nothing blocks, and a
//! full ring simply overwrites the oldest records — a flight recorder
//! keeps the *tail* of history, not all of it. A writer that finds the
//! slot still being written by another, a lap apart, drops its record
//! rather than interleave stores with it: a splice of the two would fail
//! its checksum and leave the slot unreadable until it is overwritten. [`Recorder::dump`] is
//! best-effort by design: a record being overwritten while the dump reads
//! it fails its checksum and is dropped rather than surfacing torn fields.
//!
//! Dumps happen on demand ([`Recorder::dump`] / [`Recorder::dump_text`])
//! or automatically on a `try_lock_for` timeout — the census sink stores a
//! rendered dump into a one-slot mailbox that [`take_timeout_dump`]
//! drains, so the thread that hit the deadline can see what the locks were
//! doing in the run-up without any eprintln spam on timeout-heavy
//! workloads (timeoutbench times out thousands of times per second).

use hemlock_core::events::LockEvent;
use std::sync::atomic::AtomicPtr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity (records) for the process-wide recorder.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Highest interned-site count; later sites collapse onto one overflow id.
const MAX_SITES: usize = 32;

const ARG_BITS: u32 = 48;
const ARG_MASK: u64 = (1 << ARG_BITS) - 1;

/// Checksum whitener (the 64-bit golden ratio, as in Fibonacci hashing).
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Site interning: event sites are `&'static str`s (lock `META.name`s), so
/// pointer identity is stable and a tiny scan-and-CAS array suffices.
struct SiteTable {
    ptrs: [AtomicPtr<u8>; MAX_SITES],
    lens: [AtomicUsize; MAX_SITES],
}

static SITES: SiteTable = {
    #[allow(clippy::declare_interior_mutable_const)]
    const NULL: AtomicPtr<u8> = AtomicPtr::new(std::ptr::null_mut());
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicUsize = AtomicUsize::new(0);
    SiteTable {
        ptrs: [NULL; MAX_SITES],
        lens: [ZERO; MAX_SITES],
    }
};

fn intern(site: &'static str) -> usize {
    let ptr = site.as_ptr() as *mut u8;
    for i in 0..MAX_SITES - 1 {
        let cur = SITES.ptrs[i].load(Ordering::Acquire);
        if cur == ptr {
            return i;
        }
        if cur.is_null() {
            match SITES.ptrs[i].compare_exchange(
                std::ptr::null_mut(),
                ptr,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    // Only the CAS winner writes the len, so a lost race
                    // can never clobber another site's length. A reader
                    // between the two stores sees len 0 and reports the
                    // site as pending — transient and harmless.
                    SITES.lens[i].store(site.len(), Ordering::Release);
                    return i;
                }
                Err(raced) if raced == ptr => return i,
                Err(_) => continue, // someone else took this slot; try next
            }
        }
    }
    MAX_SITES - 1 // overflow bucket
}

fn site_name(id: usize) -> &'static str {
    if id >= MAX_SITES - 1 {
        return "<overflow>";
    }
    let ptr = SITES.ptrs[id].load(Ordering::Acquire);
    if ptr.is_null() {
        return "<unknown>";
    }
    let len = SITES.lens[id].load(Ordering::Acquire);
    if len == 0 {
        return "<pending>"; // interner won its CAS but hasn't stored len yet
    }
    // Safety: ptr/len came from a &'static str published above (len is
    // written only by the thread whose ptr won the slot's CAS).
    unsafe { std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr, len)) }
}

struct Slot {
    /// Set while a writer stores the three words below.
    busy: AtomicBool,
    ts: AtomicU64,
    data: AtomicU64,
    check: AtomicU64,
}

/// One decoded flight-recorder record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Nanoseconds since the recorder was created.
    pub tick_ns: u64,
    /// Emitting site (a lock `META.name`).
    pub site: &'static str,
    /// What happened.
    pub event: LockEvent,
    /// Event-specific argument, truncated to 48 bits.
    pub arg: u64,
}

impl std::fmt::Display for RecordedEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>12} {} {} {}",
            self.tick_ns,
            self.site,
            self.event.name(),
            self.arg
        )
    }
}

/// The ring itself. Create private instances for tests; production code
/// shares the process-wide [`recorder()`].
pub struct Recorder {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
    start: Instant,
}

impl Recorder {
    /// Creates a recorder holding the last `capacity` records
    /// (rounded up to a power of two).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let slots = (0..cap)
            .map(|_| Slot {
                busy: AtomicBool::new(false),
                ts: AtomicU64::new(0),
                data: AtomicU64::new(0),
                // A zeroed slot must NOT look like a valid record.
                check: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots,
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            start: Instant::now(),
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever written (not capped by capacity).
    pub fn written(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Appends one record (lock-free; any thread).
    pub fn record(&self, site: &'static str, event: LockEvent, arg: u64) {
        let tick = self.start.elapsed().as_nanos() as u64;
        let data =
            ((intern(site) as u64) << 56) | ((event as u64 & 0xFF) << ARG_BITS) | (arg & ARG_MASK);
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(i & self.mask) as usize];
        // Acquire pairs with the previous writer's release of `busy`, so
        // our stores land after all of its stores.
        if slot.busy.swap(true, Ordering::Acquire) {
            return;
        }
        slot.ts.store(tick, Ordering::Relaxed);
        slot.data.store(data, Ordering::Relaxed);
        slot.check.store(tick ^ data ^ SEED, Ordering::Release);
        slot.busy.store(false, Ordering::Release);
    }

    /// Reads the ring, oldest first. Records overwritten mid-read fail
    /// their checksum and are skipped (best-effort, never torn).
    pub fn dump(&self) -> Vec<RecordedEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let n = head.min(cap);
        let mut out = Vec::with_capacity(n as usize);
        for i in (head - n)..head {
            let slot = &self.slots[(i & self.mask) as usize];
            let check = slot.check.load(Ordering::Acquire);
            let ts = slot.ts.load(Ordering::Relaxed);
            let data = slot.data.load(Ordering::Relaxed);
            if check != ts ^ data ^ SEED {
                continue; // torn or not yet published
            }
            let Some(event) = LockEvent::from_u8(((data >> ARG_BITS) & 0xFF) as u8) else {
                continue;
            };
            out.push(RecordedEvent {
                tick_ns: ts,
                site: site_name((data >> 56) as usize),
                event,
                arg: data & ARG_MASK,
            });
        }
        out
    }

    /// [`Recorder::dump`], rendered one record per line.
    pub fn dump_text(&self) -> String {
        use std::fmt::Write;
        let events = self.dump();
        let mut s = format!(
            "# flight recorder: {} of {} record(s), ticks in ns since start\n",
            events.len(),
            self.written()
        );
        for e in events {
            let _ = writeln!(s, "{e}");
        }
        s
    }
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();

/// The process-wide flight recorder ([`DEFAULT_CAPACITY`] records).
pub fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder::new(DEFAULT_CAPACITY))
}

static LAST_TIMEOUT_DUMP: Mutex<Option<String>> = Mutex::new(None);

/// Stores a rendered dump of the process-wide recorder in the timeout
/// mailbox (called by the census sink on every `TimeoutAbort`; the newest
/// dump wins).
pub fn store_timeout_dump() {
    let text = recorder().dump_text();
    *LAST_TIMEOUT_DUMP.lock().unwrap() = Some(text);
}

/// Takes the dump captured at the most recent `try_lock_for` timeout, if
/// any has happened since the last take.
pub fn take_timeout_dump() -> Option<String> {
    LAST_TIMEOUT_DUMP.lock().unwrap().take()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_until_capacity() {
        let r = Recorder::new(8);
        for i in 0..5 {
            r.record("site-a", LockEvent::Acquire, i);
        }
        let d = r.dump();
        assert_eq!(d.len(), 5);
        assert_eq!(
            d.iter().map(|e| e.arg).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(d.iter().all(|e| e.site == "site-a"));
        assert!(d.windows(2).all(|w| w[0].tick_ns <= w[1].tick_ns));
    }

    #[test]
    fn wraparound_keeps_the_newest_records() {
        let r = Recorder::new(8);
        for i in 0..20u64 {
            r.record("site-b", LockEvent::Release, i);
        }
        assert_eq!(r.written(), 20);
        let d = r.dump();
        assert_eq!(d.len(), 8, "ring keeps exactly `capacity` records");
        assert_eq!(
            d.iter().map(|e| e.arg).collect::<Vec<_>>(),
            (12..20).collect::<Vec<_>>(),
            "oldest records are overwritten first"
        );
    }

    #[test]
    fn dump_decodes_event_and_arg_packing() {
        let r = Recorder::new(4);
        r.record("x", LockEvent::GrantWaiters, ARG_MASK); // max 48-bit arg
        r.record("y", LockEvent::TimeoutAbort, 1);
        let d = r.dump();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].event, LockEvent::GrantWaiters);
        assert_eq!(d[0].arg, ARG_MASK);
        assert_eq!(d[0].site, "x");
        assert_eq!(d[1].event, LockEvent::TimeoutAbort);
        assert_eq!(d[1].site, "y");
    }

    #[test]
    fn empty_ring_dumps_empty() {
        let r = Recorder::new(16);
        assert!(r.dump().is_empty());
        assert!(r.dump_text().starts_with("# flight recorder: 0 of 0"));
    }

    #[test]
    fn timeout_mailbox_stores_and_takes() {
        recorder().record("t", LockEvent::TimeoutAbort, 0);
        // The mailbox is process-global and another test may race a take;
        // re-store until we win one.
        let dump = (0..100)
            .find_map(|_| {
                store_timeout_dump();
                take_timeout_dump()
            })
            .expect("dump stored");
        assert!(dump.contains("timeout_abort"));
    }

    #[test]
    fn dump_racing_wraparound_never_splices_records() {
        // Directed schedule for the checksum discipline: a dumper hammers
        // a tiny ring while a writer wraps it continuously, so most reads
        // race an overwrite. Every surviving record must decode to a value
        // the writer actually wrote — a spliced record (ts from one write,
        // data from another) would break the arg pattern or the site, and
        // must instead have been dropped by its checksum.
        const CAP: usize = 4;
        #[cfg(miri)]
        const WRITES: u64 = 300;
        #[cfg(not(miri))]
        const WRITES: u64 = 200_000;
        let r = Recorder::new(CAP);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for seq in 0..WRITES {
                    r.record("wrap", LockEvent::Acquire, seq * 3 + 1);
                }
                stop.store(true, Ordering::Release);
            });
            let mut dumps = 0u64;
            while !stop.load(Ordering::Acquire) {
                for e in r.dump() {
                    assert_eq!(e.site, "wrap", "spliced site");
                    assert_eq!(e.event, LockEvent::Acquire, "spliced event");
                    assert_eq!(e.arg % 3, 1, "arg {} was never written", e.arg);
                    assert!((e.arg - 1) / 3 < WRITES, "arg {} out of range", e.arg);
                }
                dumps += 1;
            }
            assert!(dumps > 0);
        });
        // Quiescent after the race: every slot holds a committed record.
        assert_eq!(r.dump().len(), CAP);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_records() {
        let r = Recorder::new(64);
        let threads = 4;
        let per = 5_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let r = &r;
                s.spawn(move || {
                    for i in 0..per {
                        // arg encodes (writer, seq) so any cross-writer
                        // mixture would decode to an unwritten pair.
                        r.record("conc", LockEvent::Acquire, t * per + i);
                    }
                });
            }
        });
        assert_eq!(r.written(), threads * per);
        let d = r.dump();
        assert!(d.len() <= 64);
        for e in d {
            assert_eq!(e.site, "conc");
            assert_eq!(e.event, LockEvent::Acquire);
            let (writer, seq) = (e.arg / per, e.arg % per);
            assert!(writer < threads && seq < per, "arg {} unwritten", e.arg);
        }
    }
}
