//! An epoll readiness reactor for std-only nonblocking I/O (Linux).
//!
//! The workspace is offline and dependency-free, so the networked layer
//! (`hemlock-net`) cannot lean on `mio`. What it *can* do with `std` alone
//! is put sockets in nonblocking mode and attempt I/O from a task; the
//! missing piece is "park this task until the socket is ready". This
//! module supplies that piece with one epoll instance per [`Reactor`],
//! reached through four `extern "C"` declarations (std already links
//! libc), and one driver thread, `hemlock-reactor`, waiting on it.
//!
//! Each file descriptor has one **slot** holding the waker of the task
//! parked on it. The protocol, from a task's `poll`:
//!
//! 1. attempt the nonblocking syscall (`read`/`write`/`accept`);
//! 2. on `WouldBlock`, [`Reactor::park`] the waker: it is **stored** in
//!    the fd's slot, **then** a level-triggered one-shot registration
//!    (`EPOLLIN` or `EPOLLOUT` plus `EPOLLONESHOT`) is armed;
//! 3. re-check [`Reactor::stopped`] where the caller honours stop, retry
//!    the syscall once, and return `Pending` if it still would block;
//! 4. when the fd becomes ready, the driver takes the slot's waker and
//!    wakes that task alone; the task re-attempts.
//!
//! Store-then-arm is what makes the hand-off lossless. Arming reports
//! readiness that already exists, so no edge between step 1 and step 2
//! is lost; and an event the arming produces always finds the waker in
//! the slot. Arming first would let the driver fire on an empty slot and
//! spend the one-shot, stranding the task. `proto.reactor` in
//! `hemlock-model` checks this order, and the stop re-check below, on
//! every interleaving of a small configuration.
//!
//! **Stop.** [`Reactor::stop`] sets a flag and then wakes every stored
//! waker. A parker that stores its waker before re-checking the flag is
//! either woken by the stop or sees the flag — the same store→load pair
//! as `hemlock_core::wakerset::WakerSet`, ordered here by the slot mutex.
//!
//! **Deadlines.** [`Reactor::register_until`] keeps a small list of
//! `(deadline, waker)` pairs. The driver's `epoll_pwait2` timeout is the
//! nearest deadline, in nanoseconds; an `eventfd` interrupts the wait when
//! an earlier deadline arrives or the reactor drops. A deadline waker
//! fires at or after its deadline, never before.
//!
//! An idle reactor costs nothing: the driver sleeps in `epoll_pwait2`
//! with no timeout. A task whose bytes are already buffered never touches
//! the reactor at all. No registration outlives its socket — the kernel
//! drops it when the fd closes — so a task may park the same socket on
//! different reactors over its life.

#[cfg(not(target_os = "linux"))]
compile_error!("hemlock-harness's reactor is built on Linux epoll");

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsFd, AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_long, c_uint, c_void};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::task::Waker;
use std::time::{Duration, Instant};

/// `struct epoll_event`: packed on x86_64 only, natural layout elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EFD_CLOEXEC: c_int = 0o2_000_000;
const EFD_NONBLOCK: c_int = 0o4_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;
const ENOENT: i32 = 2;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLONESHOT: u32 = 1 << 30;
/// Events collected per `epoll_pwait2` call.
const EVENTS: usize = 64;

/// Maps a `-1` return to the thread's `errno`.
fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// What a parked task waits for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interest {
    /// Bytes to read, a connection to accept, or EOF.
    Readable,
    /// Room in the send buffer.
    Writable,
}

struct Timers {
    /// Pending `(deadline, waker)` pairs, unordered.
    due: Vec<(Instant, Waker)>,
    /// The deadline the driver sleeps until (`None`: no timeout). A
    /// registration earlier than this interrupts the sleep.
    sleep_until: Option<Instant>,
}

struct Shared {
    epoll: OwnedFd,
    /// The eventfd, as a file for its 8-byte reads and writes.
    wake: File,
    /// One waker slot per fd number.
    slots: Mutex<Vec<Option<Waker>>>,
    timers: Mutex<Timers>,
    stopped: AtomicBool,
    shutdown: AtomicBool,
}

impl Shared {
    /// Interrupts the driver's wait.
    fn notify(&self) {
        // A full counter (never reached: the driver drains it) or EAGAIN
        // still leaves the eventfd readable, which is all the driver needs.
        let _ = (&self.wake).write(&1u64.to_ne_bytes());
    }

    /// Adds or modifies `fd`'s registration; the fd number is the token.
    fn ctl(&self, op: c_int, fd: RawFd, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: fd as u64,
        };
        // SAFETY: `ev` is a live `epoll_event` for the duration of the
        // call, and the kernel only reads it for ADD and MOD.
        cvt(unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut ev) }).map(drop)
    }

    /// Fires every expired deadline and returns the time left until the
    /// nearest one (`None`: no deadlines).
    fn fire_timers(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut fired = Vec::new();
        let next = {
            let mut t = self.timers.lock().expect("reactor timers");
            let mut i = 0;
            while i < t.due.len() {
                if t.due[i].0 <= now {
                    fired.push(t.due.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
            t.sleep_until = t.due.iter().map(|d| d.0).min();
            t.sleep_until
        };
        for w in fired {
            w.wake();
        }
        next.map(|d| d.saturating_duration_since(now))
    }

    /// Takes every waker stored in an fd slot. Also runs in `Drop`, so a
    /// poisoned lock is recovered: each update of the slots is a single
    /// `Option` replace, which leaves them valid at every step.
    fn take_slots(&self) -> Vec<Waker> {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.iter_mut().filter_map(Option::take).collect()
    }
}

/// The readiness reactor: an epoll instance, its waker slots and its
/// driver thread.
///
/// Dropping the reactor stops the driver and wakes everything still
/// parked on it, so no task is left sleeping on a dead reactor.
pub struct Reactor {
    shared: Arc<Shared>,
    driver: Option<std::thread::JoinHandle<()>>,
}

impl Reactor {
    /// Starts a reactor. Returns once its `hemlock-reactor` driver thread
    /// is running, so a thread listing taken right after sees it by name.
    ///
    /// # Panics
    ///
    /// If the process is out of file descriptors or threads.
    pub fn new() -> Self {
        // SAFETY: plain syscalls; each returned fd is checked, then owned
        // by exactly one `OwnedFd`/`File`, which closes it.
        let (epoll, wake) = unsafe {
            let epoll = cvt(epoll_create1(EPOLL_CLOEXEC)).expect("epoll_create1");
            let epoll = OwnedFd::from_raw_fd(epoll);
            let wake = cvt(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)).expect("eventfd");
            (epoll, File::from(OwnedFd::from_raw_fd(wake)))
        };
        let shared = Arc::new(Shared {
            epoll,
            wake,
            slots: Mutex::new(Vec::new()),
            timers: Mutex::new(Timers {
                due: Vec::new(),
                sleep_until: None,
            }),
            stopped: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        // The eventfd stays registered, level-triggered, for good. Its fd
        // number is its token: no socket can share it while it is open.
        shared
            .ctl(EPOLL_CTL_ADD, shared.wake.as_raw_fd(), EPOLLIN)
            .expect("register the reactor's eventfd");
        // std names a thread from inside it, before running its closure:
        // the driver's first act signals `new` that the name is set.
        let (running, started) = mpsc::sync_channel(1);
        let driver = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hemlock-reactor".to_string())
                .spawn(move || {
                    let _ = running.send(());
                    drive(&shared);
                })
                .expect("spawn reactor driver")
        };
        started.recv().expect("reactor driver started");
        Self {
            shared,
            driver: Some(driver),
        }
    }

    /// Parks `waker` until `fd` is ready for `interest`. Call **after** a
    /// nonblocking attempt returned `WouldBlock`, then re-check any stop
    /// condition and retry the attempt once before returning `Pending`: a
    /// wake is a hint, not a readiness guarantee.
    ///
    /// The waker is stored in the fd's slot first and the one-shot
    /// registration armed second (see the module docs for why that order
    /// matters). One task parks on an fd at a time: a second park
    /// replaces the first's waker.
    pub fn park(&self, fd: impl AsFd, interest: Interest, waker: &Waker) -> io::Result<()> {
        let fd = fd.as_fd().as_raw_fd();
        let ix = usize::try_from(fd).expect("an open fd is nonnegative");
        {
            let mut slots = self.shared.slots.lock().expect("reactor slots");
            if slots.len() <= ix {
                slots.resize_with(ix + 1, || None);
            }
            match &mut slots[ix] {
                Some(w) if w.will_wake(waker) => {}
                slot => *slot = Some(waker.clone()),
            }
        }
        let events = EPOLLONESHOT
            | match interest {
                Interest::Readable => EPOLLIN,
                Interest::Writable => EPOLLOUT,
            };
        match self.shared.ctl(EPOLL_CTL_MOD, fd, events) {
            // First park of this fd, or its old registration died with
            // an earlier socket that had the same number.
            Err(e) if e.raw_os_error() == Some(ENOENT) => {
                self.shared.ctl(EPOLL_CTL_ADD, fd, events)
            }
            other => other,
        }
    }

    /// Wakes `waker` once `deadline` has passed: at or after it, never
    /// before (or when the reactor drops). Each call is one wake; the
    /// woken task re-checks the clock and registers again if it was
    /// woken for another reason.
    pub fn register_until(&self, waker: &Waker, deadline: Instant) {
        let earlier = {
            let mut t = self.shared.timers.lock().expect("reactor timers");
            t.due.push((deadline, waker.clone()));
            let earlier = t.sleep_until.is_none_or(|s| deadline < s);
            if earlier {
                // Later registrations up to this deadline need no signal
                // of their own: the driver recomputes its timeout first.
                t.sleep_until = Some(deadline);
            }
            earlier
        };
        if earlier {
            // The driver sleeps past this deadline: cut its wait short.
            self.shared.notify();
        }
    }

    /// Stops the reactor's users: sets the flag [`Reactor::stopped`]
    /// reports, then wakes every task parked on an fd. Parking still
    /// works afterwards (writers drain through it); readers and
    /// acceptors that honour stop see the flag on their re-check.
    /// Deadline registrations are not woken early.
    pub fn stop(&self) {
        self.shared.stopped.store(true, Ordering::SeqCst);
        for w in self.shared.take_slots() {
            w.wake();
        }
    }

    /// True once [`Reactor::stop`] ran.
    pub fn stopped(&self) -> bool {
        self.shared.stopped.load(Ordering::SeqCst)
    }
}

impl Default for Reactor {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.notify();
        if let Some(d) = self.driver.take() {
            let _ = d.join();
        }
        // Anything still parked gets one final wake so its task can run
        // to a shutdown check instead of leaking.
        let mut left = self.shared.take_slots();
        // As for the slots: a timer update is one push or removal.
        let mut t = self
            .shared
            .timers
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        left.extend(t.due.drain(..).map(|d| d.1));
        drop(t);
        for w in left {
            w.wake();
        }
    }
}

fn drive(shared: &Shared) {
    let mut events = [EpollEvent { events: 0, data: 0 }; EVENTS];
    let mut woken: Vec<Waker> = Vec::new();
    let wake_token = shared.wake.as_raw_fd() as u64;
    loop {
        let timeout = shared.fire_timers();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let ts = timeout.map(|d| Timespec {
            tv_sec: c_long::try_from(d.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: d.subsec_nanos() as c_long,
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        // SAFETY: `events` holds `EVENTS` writable entries; `ts_ptr` is
        // null (wait forever) or points at `ts`, live across the call; a
        // null sigmask leaves the signal mask alone.
        let n = unsafe {
            epoll_pwait2(
                shared.epoll.as_raw_fd(),
                events.as_mut_ptr(),
                EVENTS as c_int,
                ts_ptr,
                std::ptr::null(),
            )
        };
        let n = match cvt(n) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => panic!("epoll_pwait2: {e}"),
        };
        {
            let mut slots = shared.slots.lock().expect("reactor slots");
            for ev in &events[..n] {
                let token = ev.data;
                if token == wake_token {
                    let _ = (&shared.wake).read(&mut [0u8; 8]);
                } else if let Some(w) = slots.get_mut(token as usize).and_then(Option::take) {
                    woken.push(w);
                }
            }
        }
        // Wake outside the lock: waker code schedules tasks and may take
        // executor locks.
        for w in woken.drain(..) {
            w.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::AtomicUsize;
    use std::task::Wake;

    struct Counting(AtomicUsize);
    impl Wake for Counting {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting() -> Arc<Counting> {
        Arc::new(Counting(AtomicUsize::new(0)))
    }

    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !done() {
            assert!(t0.elapsed() < Duration::from_secs(5), "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn only_the_ready_socket_wakes() {
        let reactor = Reactor::new();
        let pairs: Vec<(UnixStream, UnixStream)> =
            (0..64).map(|_| UnixStream::pair().unwrap()).collect();
        let flags: Vec<Arc<Counting>> = (0..64).map(|_| counting()).collect();
        for ((read_end, _), flag) in pairs.iter().zip(&flags) {
            read_end.set_nonblocking(true).unwrap();
            reactor
                .park(read_end, Interest::Readable, &Waker::from(Arc::clone(flag)))
                .unwrap();
        }
        (&pairs[17].1).write_all(b"x").unwrap();
        wait_for("the ready socket's waker never fired", || {
            flags[17].0.load(Ordering::SeqCst) == 1
        });
        // Give a wrong reactor time to wake the idle parkers as well.
        std::thread::sleep(Duration::from_millis(20));
        for (i, f) in flags.iter().enumerate() {
            let want = usize::from(i == 17);
            assert_eq!(f.0.load(Ordering::SeqCst), want, "waker {i}");
        }
    }

    #[test]
    fn readiness_present_at_park_time_still_wakes() {
        // The byte lands before the park: arming a level-triggered
        // registration must report it rather than wait for a new edge.
        let reactor = Reactor::new();
        let (a, b) = UnixStream::pair().unwrap();
        (&b).write_all(b"x").unwrap();
        let flag = counting();
        reactor
            .park(&a, Interest::Readable, &Waker::from(Arc::clone(&flag)))
            .unwrap();
        wait_for("existing readiness was lost", || {
            flag.0.load(Ordering::SeqCst) == 1
        });
    }

    #[test]
    fn re_parking_re_arms_the_one_shot() {
        // Each event spends the one-shot; the next park must re-arm it
        // (EPOLL_CTL_MOD on the registration the first park added).
        let reactor = Reactor::new();
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let flag = counting();
        for expected in 1..=3 {
            reactor
                .park(&a, Interest::Readable, &Waker::from(Arc::clone(&flag)))
                .unwrap();
            (&b).write_all(b"x").unwrap();
            wait_for("a re-armed park never fired", || {
                flag.0.load(Ordering::SeqCst) == expected
            });
            (&a).read_exact(&mut [0u8; 1]).unwrap();
        }
    }

    #[test]
    fn writable_interest_fires_on_a_socket_with_room() {
        let reactor = Reactor::new();
        let (a, _b) = UnixStream::pair().unwrap();
        let flag = counting();
        reactor
            .park(&a, Interest::Writable, &Waker::from(Arc::clone(&flag)))
            .unwrap();
        wait_for("an empty send buffer never read as writable", || {
            flag.0.load(Ordering::SeqCst) == 1
        });
    }

    #[test]
    fn deadline_fires_at_or_after_it_never_before() {
        struct Stamp(Mutex<Vec<Instant>>);
        impl Wake for Stamp {
            fn wake(self: Arc<Self>) {
                self.0.lock().unwrap().push(Instant::now());
            }
        }
        let reactor = Reactor::new();
        let stamps: Vec<Arc<Stamp>> = (0..3)
            .map(|_| Arc::new(Stamp(Mutex::new(vec![]))))
            .collect();
        let now = Instant::now();
        // Registered latest-first, so each one must cut the driver's
        // sleep short.
        let deadlines: Vec<Instant> = [30u64, 10, 2]
            .iter()
            .map(|ms| now + Duration::from_millis(*ms))
            .collect();
        for (s, d) in stamps.iter().zip(&deadlines) {
            reactor.register_until(&Waker::from(Arc::clone(s)), *d);
        }
        wait_for("a deadline never fired", || {
            stamps.iter().all(|s| !s.0.lock().unwrap().is_empty())
        });
        for (s, d) in stamps.iter().zip(&deadlines) {
            let fired = s.0.lock().unwrap().clone();
            assert_eq!(fired.len(), 1, "one registration, one wake");
            assert!(fired[0] >= *d, "fired {:?} early", *d - fired[0]);
        }
    }

    #[test]
    fn stop_wakes_parked_fds_but_not_deadlines() {
        let reactor = Reactor::new();
        let (a, _b) = UnixStream::pair().unwrap();
        let (parked, timed) = (counting(), counting());
        reactor
            .park(&a, Interest::Readable, &Waker::from(Arc::clone(&parked)))
            .unwrap();
        reactor.register_until(
            &Waker::from(Arc::clone(&timed)),
            Instant::now() + Duration::from_secs(3600),
        );
        assert!(!reactor.stopped());
        reactor.stop();
        assert!(reactor.stopped());
        assert_eq!(parked.0.load(Ordering::SeqCst), 1, "stop wakes the parker");
        assert_eq!(
            timed.0.load(Ordering::SeqCst),
            0,
            "deadlines never fire early"
        );
    }

    #[test]
    fn idle_reactor_spins_nothing() {
        // Nothing parked: the driver sleeps in `epoll_pwait2` with no
        // timeout, and drop must still cut that wait short (a hang here
        // would time the suite out).
        let reactor = Reactor::new();
        let t0 = Instant::now();
        drop(reactor);
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn drop_wakes_leftover_registrations() {
        let reactor = Reactor::new();
        let (a, _b) = UnixStream::pair().unwrap();
        let (parked, timed) = (counting(), counting());
        reactor
            .park(&a, Interest::Readable, &Waker::from(Arc::clone(&parked)))
            .unwrap();
        reactor.register_until(
            &Waker::from(Arc::clone(&timed)),
            Instant::now() + Duration::from_secs(3600),
        );
        drop(reactor);
        assert_eq!(parked.0.load(Ordering::SeqCst), 1, "drop wakes the parker");
        assert_eq!(timed.0.load(Ordering::SeqCst), 1, "drop wakes the timer");
    }

    #[test]
    fn driver_is_named_when_new_returns() {
        fn tasks() -> Vec<(String, String)> {
            std::fs::read_dir("/proc/self/task")
                .unwrap()
                .filter_map(|t| {
                    let path = t.ok()?.path();
                    let comm = std::fs::read_to_string(path.join("comm")).ok()?;
                    Some((path.display().to_string(), comm.trim().to_string()))
                })
                .collect()
        }
        let before = tasks();
        let reactor = Reactor::new();
        let started: Vec<String> = tasks()
            .into_iter()
            .filter(|t| !before.iter().any(|b| b.0 == t.0))
            .map(|t| t.1)
            .collect();
        assert!(
            started.iter().any(|name| name == "hemlock-reactor"),
            "threads started by Reactor::new: {started:?}"
        );
        drop(reactor);
    }

    #[test]
    fn drives_a_real_future_on_the_executor() {
        use crate::executor::TaskPool;
        // A future parked on a socket the test thread feeds one byte at a
        // time — the shape of a nonblocking read that keeps returning
        // WouldBlock.
        let reactor = Arc::new(Reactor::new());
        let pool = TaskPool::new(2);
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let r = Arc::clone(&reactor);
        let h = pool.spawn(async move {
            let mut got = 0u32;
            std::future::poll_fn(move |cx| loop {
                match (&a).read(&mut [0u8; 1]) {
                    Ok(1) => got += 1,
                    Ok(_) => return std::task::Poll::Ready(got),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        r.park(&a, Interest::Readable, cx.waker()).unwrap();
                        return std::task::Poll::Pending;
                    }
                    Err(e) => panic!("{e}"),
                }
            })
            .await
        });
        for _ in 0..5 {
            (&b).write_all(b"x").unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(b);
        assert_eq!(h.join(), 5);
    }
}
