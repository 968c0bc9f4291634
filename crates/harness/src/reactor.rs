//! An epoll readiness reactor for std-only nonblocking I/O (Linux).
//!
//! The workspace is offline and dependency-free, so the networked layer
//! (`hemlock-net`) cannot lean on `mio`. What it *can* do with `std` alone
//! is put sockets in nonblocking mode and attempt I/O from a task; the
//! missing piece is "park this task until the socket is ready". This
//! module supplies that piece with one epoll instance per [`Reactor`],
//! reached through four `extern "C"` declarations (std already links
//! libc).
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
//! 4. when the fd becomes ready, the thread waiting in the reactor's
//!    epoll takes the slot's waker and wakes that task alone; the task
//!    re-attempts.
//!
//! Store-then-arm is what makes the hand-off lossless. Arming reports
//! readiness that already exists, so no edge between step 1 and step 2
//! is lost; and an event the arming produces always finds the waker in
//! the slot. Arming first would let the waiting thread fire on an empty
//! slot and spend the one-shot, stranding the task. `proto.reactor` in
//! `hemlock-model` checks this order, and the stop re-check below, on
//! every interleaving of a small configuration.
//!
//! **Who waits in epoll.** The thread that would otherwise sleep: an idle
//! [`TaskPool`](crate::executor::TaskPool) worker, or the thread inside
//! [`block_on`](crate::executor::block_on). A ready socket then wakes the
//! thread that will run its task, with no relay thread in between.
//!
//! - **Home.** [`Reactor::park`] and [`Reactor::register_until`] record
//!   the reactor as the calling thread's *home*: the first live reactor
//!   it parks on, kept until that reactor drops. An executor thread
//!   waits only in its home's epoll.
//! - **Token.** One pass of the wait (`turn`: `epoll_pwait2` until an fd
//!   is ready, the eventfd is written or the nearest deadline passes,
//!   then wake what is due) runs under the reactor's driving token, so
//!   at most one thread waits in an epoll at a time. A thread that wants
//!   to wake the waiter writes the eventfd.
//! - **Followers.** A thread that finds its home's token held registers
//!   a waker with the reactor and sleeps the usual way. A thread that
//!   stops returning to a reactor (a `block_on` call returns, a pool
//!   drops) wakes them, so one of them takes the token over.
//! - **Fallback.** A reactor that no executor thread will wait on gets
//!   its own `hemlock-reactor` thread, started at most once: on a park or
//!   deadline from a thread outside any executor, or from an executor
//!   thread whose live home is another reactor. Once started it holds
//!   the token for the reactor's life.
//!
//! `proto.driver` in `hemlock-model` checks the leader, follower and
//! hand-off protocol.
//!
//! **Stop.** [`Reactor::stop`] sets a flag and then wakes every stored
//! waker. A parker that stores its waker before re-checking the flag is
//! either woken by the stop or sees the flag — the same store→load pair
//! as `hemlock_core::wakerset::WakerSet`, ordered here by the slot mutex.
//!
//! **Deadlines.** [`Reactor::register_until`] keeps a small list of
//! `(deadline, waker)` pairs. The waiting thread's `epoll_pwait2` timeout
//! is the nearest deadline, in nanoseconds; an `eventfd` interrupts the
//! wait when an earlier deadline arrives or the reactor drops. A deadline
//! waker fires at or after its deadline, never before.
//!
//! An idle reactor costs nothing: its waiter sleeps in `epoll_pwait2`
//! with no timeout. A task whose bytes are already buffered never touches
//! the reactor at all. No registration outlives its socket — the kernel
//! drops it when the fd closes — so a task may park the same socket on
//! different reactors over its life.

#[cfg(not(target_os = "linux"))]
compile_error!("hemlock-harness's reactor is built on Linux epoll");

use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsFd, AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_long, c_uint, c_void};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError, Weak};
use std::task::{Wake, Waker};
use std::thread::{JoinHandle, Thread};
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
    /// The deadline the waiting thread sleeps until (`None`: no timeout).
    /// A registration earlier than this interrupts the sleep.
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
    /// The driving token: set while one thread may wait in the epoll.
    driving: AtomicBool,
    /// Wakers of threads that found the token held; woken when a thread
    /// stops returning to this reactor.
    followers: Mutex<Vec<Waker>>,
}

impl Shared {
    /// Interrupts the wait of whichever thread is in the epoll.
    fn notify(&self) {
        // A full counter (never reached: the waiter drains it) or EAGAIN
        // still leaves the eventfd readable, which is all the waiter needs.
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

    fn live(&self) -> bool {
        !self.shutdown.load(Ordering::SeqCst)
    }

    /// Takes the driving token if it is free.
    fn try_drive(&self) -> Option<Driving<'_>> {
        self.driving
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
            .then(|| Driving(self))
    }

    /// Takes the token, or registers `waker` to hear when a driver leaves
    /// and then tries once more. The retry closes the race with a driver
    /// that left between the first try and the registration.
    fn drive_or_follow(&self, waker: &Waker) -> Option<Driving<'_>> {
        self.try_drive().or_else(|| {
            {
                let mut followers = self.followers.lock().expect("reactor followers");
                if !followers.iter().any(|f| f.will_wake(waker)) {
                    followers.push(waker.clone());
                }
            }
            self.try_drive()
        })
    }

    /// Wakes every follower, so one of them takes the token over.
    fn wake_followers(&self) {
        let followers = std::mem::take(
            &mut *self
                .followers
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for w in followers {
            w.wake();
        }
    }

    /// The time left until the nearest deadline (`None`: no deadlines),
    /// recorded as the deadline the coming wait sleeps until.
    fn next_timeout(&self) -> Option<Duration> {
        let mut t = self.timers.lock().expect("reactor timers");
        t.sleep_until = t.due.iter().map(|d| d.0).min();
        t.sleep_until
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Takes every waker whose deadline has passed.
    fn expired(&self) -> Vec<Waker> {
        let now = Instant::now();
        let mut fired = Vec::new();
        let mut t = self.timers.lock().expect("reactor timers");
        let mut i = 0;
        while i < t.due.len() {
            if t.due[i].0 <= now {
                fired.push(t.due.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        fired
    }

    /// Takes every waker stored in an fd slot. Also runs in `Drop`, so a
    /// poisoned lock is recovered: each update of the slots is a single
    /// `Option` replace, which leaves them valid at every step.
    fn take_slots(&self) -> Vec<Waker> {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.iter_mut().filter_map(Option::take).collect()
    }
}

/// The reactor's driving token, held by the one thread that may wait in
/// its epoll; dropping it releases the token. Releasing does not wake the
/// followers: the holder comes back, unless it is leaving for good.
pub(crate) struct Driving<'a>(&'a Shared);

impl Driving<'_> {
    /// One pass of the wait: sleeps in `epoll_pwait2` until an fd is
    /// ready, the eventfd is written or the nearest deadline passes, then
    /// takes the ready slots and the expired deadlines and wakes them,
    /// outside the locks. Returns at once if the reactor has shut down.
    pub(crate) fn turn(&self) {
        let shared = self.0;
        if !shared.live() {
            return;
        }
        let timeout = shared.next_timeout();
        let ts = timeout.map(|d| Timespec {
            tv_sec: c_long::try_from(d.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: d.subsec_nanos() as c_long,
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        let mut events = [EpollEvent { events: 0, data: 0 }; EVENTS];
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
        let wake_token = shared.wake.as_raw_fd() as u64;
        let mut ready: [Option<Waker>; EVENTS] = [const { None }; EVENTS];
        {
            let mut slots = shared.slots.lock().expect("reactor slots");
            for (ev, out) in events[..n].iter().zip(&mut ready) {
                let token = ev.data;
                if token == wake_token {
                    let _ = (&shared.wake).read(&mut [0u8; 8]);
                } else {
                    *out = slots.get_mut(token as usize).and_then(Option::take);
                }
            }
        }
        // Wake outside the locks: waker code schedules tasks and may take
        // executor locks.
        for w in ready.into_iter().flatten().chain(shared.expired()) {
            w.wake();
        }
    }
}

impl Drop for Driving<'_> {
    fn drop(&mut self) {
        self.0.driving.store(false, Ordering::SeqCst);
    }
}

/// A thread's home reactor, as the executor waits on it.
#[derive(Clone)]
pub(crate) struct Home(Arc<Shared>);

impl Home {
    /// The calling thread's home, while it is live.
    pub(crate) fn current() -> Option<Home> {
        HOME.try_with(|home| {
            let mut home = home.borrow_mut();
            let shared = home.upgrade().filter(|s| s.live());
            if shared.is_none() {
                *home = Weak::new();
            }
            shared.map(Home)
        })
        .ok()
        .flatten()
    }

    /// Takes the driving token, or registers `waker` as a follower and
    /// tries once more.
    pub(crate) fn drive_or_follow(&self, waker: &Waker) -> Option<Driving<'_>> {
        self.0.drive_or_follow(waker)
    }

    /// Interrupts the wait of whichever thread is in this reactor's epoll.
    pub(crate) fn interrupt(&self) {
        self.0.notify();
    }

    /// False once the reactor has dropped.
    pub(crate) fn is_live(&self) -> bool {
        self.0.live()
    }
}

thread_local! {
    /// The first live reactor this thread parked on as an executor thread.
    static HOME: RefCell<Weak<Shared>> = const { RefCell::new(Weak::new()) };
    /// How many executor loops (`block_on`, a pool worker) this thread is in.
    static SERVING: Cell<usize> = const { Cell::new(0) };
}

/// Marks the calling thread as an executor thread until dropped: its
/// parks then adopt a home reactor rather than start a fallback driver.
/// Leaving the outermost loop wakes the home's followers, since this
/// thread will not wait in that epoll again.
pub(crate) struct Serving(());

pub(crate) fn serve() -> Serving {
    SERVING.with(|s| s.set(s.get() + 1));
    Serving(())
}

impl Drop for Serving {
    fn drop(&mut self) {
        let depth = SERVING.with(|s| {
            s.set(s.get() - 1);
            s.get()
        });
        if depth == 0 {
            if let Some(home) = Home::current() {
                home.0.wake_followers();
            }
        }
    }
}

/// Unparks one thread: the fallback driver's follower waker.
struct Unpark(Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// The readiness reactor: an epoll instance and its waker slots, waited
/// on by the executor threads that park tasks on it.
///
/// Dropping the reactor stops its fallback driver, if one started, and
/// wakes everything still parked on it, so no task is left sleeping on a
/// dead reactor.
pub struct Reactor {
    shared: Arc<Shared>,
    fallback: OnceLock<JoinHandle<()>>,
}

impl Reactor {
    /// Creates a reactor. It starts no thread: executor threads that park
    /// on it wait in its epoll themselves.
    ///
    /// # Panics
    ///
    /// If the process is out of file descriptors.
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
            driving: AtomicBool::new(false),
            followers: Mutex::new(Vec::new()),
        });
        // The eventfd stays registered, level-triggered, for good. Its fd
        // number is its token: no socket can share it while it is open.
        shared
            .ctl(EPOLL_CTL_ADD, shared.wake.as_raw_fd(), EPOLLIN)
            .expect("register the reactor's eventfd");
        Self {
            shared,
            fallback: OnceLock::new(),
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
        self.adopt();
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
        self.adopt();
        let earlier = {
            let mut t = self.shared.timers.lock().expect("reactor timers");
            t.due.push((deadline, waker.clone()));
            let earlier = t.sleep_until.is_none_or(|s| deadline < s);
            if earlier {
                // Later registrations up to this deadline need no signal
                // of their own: the waiter recomputes its timeout first.
                t.sleep_until = Some(deadline);
            }
            earlier
        };
        if earlier {
            // The waiter sleeps past this deadline: cut its wait short.
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

    /// Makes sure some thread will wait in this reactor's epoll for the
    /// caller. An executor thread adopts the reactor as its home if it
    /// has no live one, and then waits there itself. A thread outside any
    /// executor, or one whose live home is another reactor, starts the
    /// fallback driver instead.
    fn adopt(&self) {
        let mine = Arc::as_ptr(&self.shared);
        let served = SERVING.with(Cell::get) > 0
            && HOME
                .try_with(|home| {
                    let mut home = home.borrow_mut();
                    if std::ptr::eq(home.as_ptr(), mine) {
                        return true;
                    }
                    if home.upgrade().is_some_and(|s| s.live()) {
                        return false;
                    }
                    *home = Arc::downgrade(&self.shared);
                    true
                })
                .unwrap_or(false);
        if !served {
            self.start_fallback();
        }
    }

    /// Starts the `hemlock-reactor` thread, once; returns when it runs,
    /// so a thread listing taken right after sees it by name.
    fn start_fallback(&self) {
        self.fallback.get_or_init(|| {
            let shared = Arc::clone(&self.shared);
            // std names a thread from inside it, before running its
            // closure: the driver's first act signals that the name is set.
            let (running, started) = mpsc::sync_channel(1);
            let driver = std::thread::Builder::new()
                .name("hemlock-reactor".to_string())
                .spawn(move || {
                    let _ = running.send(());
                    fallback(&shared);
                })
                .expect("spawn reactor driver");
            started.recv().expect("reactor driver started");
            driver
        });
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
        // A fallback still waiting for the token is one of the followers.
        self.shared.wake_followers();
        if let Some(d) = self.fallback.take() {
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

/// The fallback driver: waits for the token as a follower, then holds it
/// and turns until the reactor drops.
fn fallback(shared: &Shared) {
    let me = Waker::from(Arc::new(Unpark(std::thread::current())));
    let driving = loop {
        if let Some(d) = shared.drive_or_follow(&me) {
            break d;
        }
        // Re-checked after registering: `Drop` sets the flag, then wakes
        // the followers.
        if !shared.live() {
            return;
        }
        std::thread::park();
    };
    while shared.live() {
        driving.turn();
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
        // One silent socket parked from a plain thread: the fallback
        // driver sleeps in `epoll_pwait2` with no timeout, and drop must
        // still cut that wait short (a hang here would time the suite out).
        let reactor = Reactor::new();
        let (a, _b) = UnixStream::pair().unwrap();
        reactor
            .park(&a, Interest::Readable, &Waker::from(counting()))
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
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
    fn new_starts_no_thread_and_a_plain_park_starts_the_fallback() {
        let reactor = Reactor::new();
        assert!(
            reactor.fallback.get().is_none(),
            "Reactor::new started a thread"
        );
        // The test thread runs no executor: nobody else would wait in this
        // epoll for it, so its first park starts the fallback driver.
        let (a, _b) = UnixStream::pair().unwrap();
        let flag = counting();
        reactor
            .park(&a, Interest::Readable, &Waker::from(Arc::clone(&flag)))
            .unwrap();
        let driver = reactor
            .fallback
            .get()
            .expect("a plain-thread park starts the fallback");
        assert_eq!(driver.thread().name(), Some("hemlock-reactor"));
        // Named by the time `park` returns, so a thread listing sees it.
        let names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .map(|comm| comm.trim().to_string())
            .collect();
        assert!(
            names.iter().any(|n| n == "hemlock-reactor"),
            "threads: {names:?}"
        );
        drop(reactor);
        assert_eq!(flag.0.load(Ordering::SeqCst), 1, "drop wakes the parker");
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
