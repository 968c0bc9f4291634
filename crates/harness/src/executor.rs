//! A minimal executor: [`block_on`] plus a multi-worker [`TaskPool`].
//!
//! The workspace is offline/vendored, so the async subsystem
//! (`hemlock-async`) cannot lean on an external runtime; this module is
//! the in-tree substitute the benches, tests, and examples drive. It is a
//! deliberately small, classic design:
//!
//! - [`block_on`] — drives one future on the current thread, waiting
//!   between polls;
//! - [`TaskPool`] — `N` worker threads sharing one injector queue. Each
//!   spawned task is an `Arc` that *is* its own [`Waker`]
//!   (`std::task::Wake`); waking pushes the task back onto the queue. A
//!   small per-task state machine (idle / queued / running / notified)
//!   guarantees a task is polled by at most one worker at a time and that
//!   a wake arriving *during* a poll re-queues the task afterwards — the
//!   standard no-lost-wakeup discipline.
//!
//! **Waiting where you run.** A thread with nothing to poll waits in its
//! home reactor's epoll when that reactor's driving token is free (see
//! [`crate::reactor`]), so a ready socket wakes the thread that will run
//! its task:
//!
//! - `block_on` waits in `turn` until its own waker fires. Its waker then
//!   writes the reactor's eventfd rather than unparking the thread, and
//!   a wake from the same thread only sets the flag.
//! - An idle pool worker makes itself the pool's **leader**: it publishes
//!   itself under the queue lock, in the critical section that found the
//!   queue empty, then waits in `turn`. A push wakes an idle worker if
//!   there is one and otherwise interrupts the leader. The leader runs
//!   the first task it harvests itself; each further one wakes an idle
//!   worker.
//! - A thread whose home token is held, or that has no home, sleeps the
//!   usual way: on the pool's condvar, or in `thread::park`.
//!
//! Tasks may migrate between workers across polls, which is precisely why
//! the async lock guards in `hemlock-async` must be (and are) `Send`, and
//! why raw locks — whose `unlock` is thread-bound — can only ever be held
//! *within* a single poll.
//!
//! When observability is enabled (`hemlock_obs::enabled()`, the default)
//! the pool feeds the `pool.*` registry metrics: injector queue depth,
//! spawn/wake/poll/completion counts.

use crate::reactor::{self, Home};
use hemlock_obs::trace;
use std::cell::Cell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle as ThreadHandle;

thread_local! {
    /// Marks this thread: its address tells a waker which thread calls it.
    static MARK: u8 = const { 0 };
    /// The pool whose leader this thread is, while it waits in `turn`.
    static LEADING: Cell<*const PoolShared> = const { Cell::new(std::ptr::null()) };
}

/// An id for the calling thread, unique among live threads.
fn this_thread() -> usize {
    MARK.with(|m| m as *const u8 as usize)
}

/// `block_on`'s waker.
struct Unparker {
    thread: std::thread::Thread,
    /// [`this_thread`] of `thread`.
    owner: usize,
    notified: AtomicBool,
    /// The reactor whose epoll `thread` waits in, while it waits there.
    driving: Mutex<Option<Home>>,
}

impl Wake for Unparker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.notified.store(true, Ordering::SeqCst);
        if this_thread() == self.owner {
            // The thread's own wait loop checks the flag next.
            return;
        }
        match &*self.driving.lock().unwrap_or_else(PoisonError::into_inner) {
            // A thread in `epoll_pwait2` does not see an unpark.
            Some(home) => home.interrupt(),
            None => self.thread.unpark(),
        }
    }
}

impl Unparker {
    /// Returns once the waker has fired. Waits in the home reactor's
    /// epoll when its token is free, parked otherwise (registered as a
    /// follower when the token is held).
    fn wait(&self, waker: &Waker) {
        while !self.notified.swap(false, Ordering::Acquire) {
            let Some(home) = Home::current() else {
                std::thread::park();
                continue;
            };
            let Some(driving) = home.drive_or_follow(waker) else {
                std::thread::park();
                continue;
            };
            // Set before the flag is checked, so a waker on another thread
            // either sees it and writes the eventfd, or set the flag first.
            *self.driving.lock().expect("block_on waker") = Some(home.clone());
            while !self.notified.load(Ordering::SeqCst) && home.is_live() {
                driving.turn();
            }
            *self.driving.lock().expect("block_on waker") = None;
        }
    }
}

/// Runs a future to completion on the current thread. Between polls the
/// thread waits in its home reactor's epoll when it can (see the module
/// docs), and parks otherwise.
///
/// ```
/// use hemlock_harness::executor::block_on;
///
/// assert_eq!(block_on(async { 2 + 2 }), 4);
/// ```
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let unparker = Arc::new(Unparker {
        thread: std::thread::current(),
        owner: this_thread(),
        notified: AtomicBool::new(false),
        driving: Mutex::new(None),
    });
    let waker = Waker::from(Arc::clone(&unparker));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    let _serving = reactor::serve();
    loop {
        if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
            return out;
        }
        unparker.wait(&waker);
    }
}

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Task states for the per-task scheduling machine.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

struct Task {
    /// One of [`IDLE`]/[`QUEUED`]/[`RUNNING`]/[`NOTIFIED`]/[`DONE`].
    state: AtomicU8,
    /// The future, present while the task is alive and not being polled.
    future: Mutex<Option<BoxFuture>>,
    pool: Arc<PoolShared>,
}

impl Task {
    /// Transitions toward QUEUED and enqueues if this call won the
    /// transition. Idempotent from every state.
    fn schedule(self: &Arc<Self>) {
        loop {
            let state = self.state.load(Ordering::Acquire);
            let (target, push) = match state {
                IDLE => (QUEUED, true),
                RUNNING => (NOTIFIED, false),
                QUEUED | NOTIFIED | DONE => return,
                _ => unreachable!("bad task state"),
            };
            if self
                .state
                .compare_exchange(state, target, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if push {
                    if hemlock_obs::enabled() {
                        hemlock_obs::registry().pool_wakes.inc();
                    }
                    self.pool.push(Arc::clone(self));
                }
                return;
            }
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.schedule();
    }
}

struct Queue {
    tasks: VecDeque<Arc<Task>>,
    /// Workers waiting on the condvar.
    idle: usize,
    /// The pool's leaders: workers waiting in their home reactor's epoll,
    /// by [`this_thread`]. Usually one; workers whose homes differ each
    /// lead their own.
    leaders: Vec<(usize, Home)>,
}

struct PoolShared {
    queue: Mutex<Queue>,
    available: Condvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    fn push(&self, task: Arc<Task>) {
        enum Rouse {
            Idle,
            Leader(Home),
        }
        if hemlock_obs::enabled() {
            hemlock_obs::registry().pool_queue_depth.inc();
        }
        let mut q = self.queue.lock().expect("pool queue");
        q.tasks.push_back(task);
        let rouse = if std::ptr::eq(LEADING.with(Cell::get), self) {
            // The leader, harvesting its reactor, runs the queue's first
            // task itself; each further one goes to an idle worker.
            (q.tasks.len() > 1 && q.idle > 0).then_some(Rouse::Idle)
        } else if q.idle > 0 {
            Some(Rouse::Idle)
        } else {
            q.leaders.first().map(|l| Rouse::Leader(l.1.clone()))
        };
        drop(q);
        match rouse {
            Some(Rouse::Idle) => self.available.notify_one(),
            Some(Rouse::Leader(home)) => home.interrupt(),
            None => {}
        }
    }
}

/// The pool's follower waker: a driver left the workers' home reactor,
/// so idle workers check whether one of them can lead.
impl Wake for PoolShared {
    fn wake(self: Arc<Self>) {
        // Under the queue lock: a worker registers as a follower and
        // retries the token under it, then waits, so this cannot land
        // between the retry and the wait.
        let _q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        self.available.notify_all();
    }
}

/// Shared state of one spawned task's result slot (`Err` carries the
/// payload of a panic that escaped the task's future).
struct JoinShared<T> {
    slot: Mutex<Option<std::thread::Result<T>>>,
    done: Condvar,
}

/// Handle to a spawned task's result; blocking [`JoinHandle::join`]
/// returns it.
pub struct JoinHandle<T> {
    shared: Arc<JoinShared<T>>,
}

impl<T> JoinHandle<T> {
    /// Blocks the calling thread until the task completes, returning its
    /// output. Must be called from outside the pool's workers (a worker
    /// joining its own pool would deadlock the pool). If the task
    /// panicked, the panic is resumed here — exactly
    /// `std::thread::JoinHandle` semantics, and crucially the worker that
    /// ran the task survived (the panic was caught at the poll boundary).
    pub fn join(self) -> T {
        let mut slot = self.shared.slot.lock().expect("join slot");
        loop {
            match slot.take() {
                Some(Ok(out)) => return out,
                Some(Err(panic)) => std::panic::resume_unwind(panic),
                None => slot = self.shared.done.wait(slot).expect("join slot"),
            }
        }
    }

    /// True once the task has completed (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.shared.slot.lock().expect("join slot").is_some()
    }
}

/// Future adapter that converts a panic escaping the inner future's
/// `poll` into a `Ready(Err(payload))`, so a panicking task reports
/// through its [`JoinHandle`] instead of killing the worker thread and
/// leaving `join()` blocked forever. The unwind still runs the future's
/// local destructors (lock guards release), and the poisoned future is
/// dropped immediately rather than ever polled again.
struct CatchUnwind<F> {
    inner: Option<Pin<Box<F>>>,
}

impl<F: Future> Future for CatchUnwind<F> {
    type Output = std::thread::Result<F::Output>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let inner = self.inner.as_mut().expect("polled after completion");
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inner.as_mut().poll(cx))) {
            Ok(Poll::Ready(out)) => {
                self.inner = None;
                Poll::Ready(Ok(out))
            }
            Ok(Poll::Pending) => Poll::Pending,
            Err(panic) => {
                self.inner = None;
                Poll::Ready(Err(panic))
            }
        }
    }
}

/// A fixed-size pool of worker threads driving spawned futures.
///
/// Dropping the pool shuts the workers down after they finish the polls
/// they are in; queued-but-unpolled tasks are dropped (their futures run
/// cancellation on drop). Join every handle you care about before
/// dropping the pool.
///
/// ```
/// use hemlock_harness::executor::TaskPool;
///
/// let pool = TaskPool::new(2);
/// let h = pool.spawn(async { 6 * 7 });
/// assert_eq!(h.join(), 42);
/// ```
pub struct TaskPool {
    shared: Arc<PoolShared>,
    workers: Vec<ThreadHandle<()>>,
}

impl TaskPool {
    /// Spawns `workers` worker threads (at least 1).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                idle: 0,
                leaders: Vec::new(),
            }),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hemlock-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Spawns a future onto the pool, returning a handle to its output.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let shared = Arc::new(JoinShared {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        let js = Arc::clone(&shared);
        let wrapped: BoxFuture = Box::pin(async move {
            let out = CatchUnwind {
                inner: Some(Box::pin(fut)),
            }
            .await;
            *js.slot.lock().expect("join slot") = Some(out);
            js.done.notify_all();
        });
        let task = Arc::new(Task {
            state: AtomicU8::new(QUEUED),
            future: Mutex::new(Some(wrapped)),
            pool: Arc::clone(&self.shared),
        });
        if hemlock_obs::enabled() {
            hemlock_obs::registry().pool_spawned.inc();
        }
        self.shared.push(task);
        JoinHandle { shared }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker checks it under that
        // lock before waiting or leading, so the wakes below cannot fall
        // between its check and its wait and leave it asleep forever.
        let leaders = {
            let q = self.shared.queue.lock().expect("pool queue");
            self.shared.shutdown.store(true, Ordering::Release);
            q.leaders.clone()
        };
        self.shared.available.notify_all();
        for (_, home) in leaders {
            home.interrupt();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Drop whatever never got polled, outside the lock: future drops
        // run cancellation, which may wake tasks of this pool.
        let left = std::mem::take(&mut self.shared.queue.lock().expect("pool queue").tasks);
        drop(left);
    }
}

fn worker_loop(shared: &Arc<PoolShared>) {
    let _serving = reactor::serve();
    let follower = Waker::from(Arc::clone(shared));
    loop {
        let task = {
            let mut q = shared.queue.lock().expect("pool queue");
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(t) = q.tasks.pop_front() {
                    break t;
                }
                let home = Home::current();
                if let Some(driving) = home.as_ref().and_then(|h| h.drive_or_follow(&follower)) {
                    // Published in the critical section that found the
                    // queue empty: a push from here on interrupts the wait.
                    let me = this_thread();
                    q.leaders.extend(home.clone().map(|h| (me, h)));
                    drop(q);
                    LEADING.with(|l| l.set(Arc::as_ptr(shared)));
                    driving.turn();
                    LEADING.with(|l| l.set(std::ptr::null()));
                    q = shared.queue.lock().expect("pool queue");
                    q.leaders.retain(|l| l.0 != me);
                    continue;
                }
                q.idle += 1;
                q = shared.available.wait(q).expect("pool queue");
                q.idle -= 1;
            }
        };
        if hemlock_obs::enabled() {
            hemlock_obs::registry().pool_queue_depth.dec();
        }
        // QUEUED → RUNNING: we are the only poller from here on.
        task.state.store(RUNNING, Ordering::Release);
        let Some(mut fut) = task.future.lock().expect("task future").take() else {
            // Completed or stolen (cannot happen under the state machine,
            // but a missing future is simply nothing to do).
            task.state.store(DONE, Ordering::Release);
            continue;
        };
        let waker = Waker::from(Arc::clone(&task));
        let mut cx = Context::from_waker(&waker);
        if hemlock_obs::enabled() {
            hemlock_obs::registry().pool_polls.inc();
        }
        // Poll-interval timestamp for the retro `pool.poll` span: only
        // when tracing is sampled (one relaxed load otherwise), and only
        // emitted if the poll actually ran a traced request (the wrapped
        // future leaves its id behind via `take_polled_trace`).
        let poll_t0 = if trace::active() { trace::now_ns() } else { 0 };
        let polled = fut.as_mut().poll(&mut cx);
        let traced_id = trace::take_polled_trace();
        if traced_id != 0 {
            trace::span_at(
                traced_id,
                "pool.poll",
                poll_t0,
                trace::now_ns(),
                trace::SpanKind::Sync,
            );
        }
        match polled {
            Poll::Ready(()) => {
                if hemlock_obs::enabled() {
                    hemlock_obs::registry().pool_completed.inc();
                }
                task.state.store(DONE, Ordering::Release);
            }
            Poll::Pending => {
                // Restore the future *before* leaving RUNNING, so a waker
                // firing right after the transition finds it in place.
                *task.future.lock().expect("task future") = Some(fut);
                if task
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // A wake arrived during the poll (NOTIFIED): re-queue.
                    task.state.store(QUEUED, Ordering::Release);
                    shared.push(Arc::clone(&task));
                }
            }
        }
    }
}

/// Cooperatively yields once: resolves on the second poll, after waking
/// itself. Lets a task give the pool a chance to run others (the
/// `with_two_async` backoff uses the same shape).
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{Interest, Reactor};
    use std::io::Read;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    #[test]
    fn block_on_resolves_immediate_and_yielding_futures() {
        assert_eq!(block_on(async { 1 + 1 }), 2);
        assert_eq!(
            block_on(async {
                yield_now().await;
                yield_now().await;
                7
            }),
            7
        );
    }

    #[test]
    fn pool_runs_tasks_to_completion_across_workers() {
        let pool = TaskPool::new(4);
        assert_eq!(pool.workers(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..32)
            .map(|i| {
                let counter = Arc::clone(&counter);
                pool.spawn(async move {
                    for _ in 0..i {
                        yield_now().await;
                    }
                    counter.fetch_add(1, Ordering::SeqCst);
                    i
                })
            })
            .collect();
        let sum: usize = handles.into_iter().map(JoinHandle::join).sum();
        assert_eq!(sum, (0..32).sum());
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn external_wakes_resume_a_parked_task() {
        // A task parks on a oneshot-style flag; a plain thread flips the
        // flag and wakes it through the registered waker.
        struct Oneshot {
            fired: AtomicBool,
            waker: Mutex<Option<Waker>>,
        }
        let shot = Arc::new(Oneshot {
            fired: AtomicBool::new(false),
            waker: Mutex::new(None),
        });
        let pool = TaskPool::new(2);
        let shot2 = Arc::clone(&shot);
        let h = pool.spawn(async move {
            std::future::poll_fn(|cx| {
                if shot2.fired.load(Ordering::Acquire) {
                    return Poll::Ready(());
                }
                *shot2.waker.lock().expect("waker slot") = Some(cx.waker().clone());
                if shot2.fired.load(Ordering::Acquire) {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            })
            .await;
            99
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        shot.fired.store(true, Ordering::Release);
        if let Some(w) = shot.waker.lock().expect("waker slot").take() {
            w.wake();
        }
        assert_eq!(h.join(), 99);
    }

    #[test]
    fn task_panic_reports_at_join_and_spares_the_worker() {
        let pool = TaskPool::new(1);
        let bad = pool.spawn(async {
            yield_now().await;
            panic!("task exploded");
        });
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.join()));
        assert!(r.is_err(), "join must resume the task's panic");
        // The single worker survived the panic: the pool still runs tasks.
        assert_eq!(pool.spawn(async { 11 }).join(), 11);
    }

    /// A future that parks a read on a silent socket and resolves on its
    /// second poll, or once the reactor stops.
    fn park_once(reactor: Arc<Reactor>, a: UnixStream) -> impl Future<Output = ()> {
        let mut parked = false;
        std::future::poll_fn(move |cx| {
            if parked || reactor.stopped() {
                return Poll::Ready(());
            }
            let would_block = (&a).read(&mut [0u8; 1]).unwrap_err();
            assert_eq!(would_block.kind(), std::io::ErrorKind::WouldBlock);
            reactor
                .park(&a, Interest::Readable, cx.waker())
                .expect("park");
            parked = true;
            Poll::Pending
        })
    }

    fn silent_socket() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn another_threads_wake_ends_a_block_on_waiting_in_epoll() {
        // The block_on thread parks on a silent socket, so it waits in its
        // reactor's epoll; a wake from another thread must reach it there
        // (an unpark would not).
        let reactor = Arc::new(Reactor::new());
        let (a, _b) = silent_socket();
        let slot: Arc<Mutex<Option<Waker>>> = Arc::new(Mutex::new(None));
        let (done, finished) = std::sync::mpsc::channel();
        let (r, s) = (Arc::clone(&reactor), Arc::clone(&slot));
        std::thread::spawn(move || {
            let mut parked = park_once(r, a);
            block_on(std::future::poll_fn(|cx| {
                *s.lock().unwrap() = Some(cx.waker().clone());
                Pin::new(&mut parked).poll(cx)
            }));
            done.send(()).unwrap();
        });
        let waker = loop {
            if let Some(w) = slot.lock().unwrap().clone() {
                break w;
            }
            std::thread::yield_now();
        };
        std::thread::sleep(Duration::from_millis(20));
        waker.wake();
        finished
            .recv_timeout(Duration::from_millis(100))
            .expect("the wake must end block_on within 100 ms");
    }

    #[test]
    fn a_plain_thread_spawn_reaches_a_worker_waiting_in_epoll() {
        // The only worker parks a task on a silent socket, then waits in
        // the reactor's epoll: a spawn from this thread must interrupt it.
        let pool = TaskPool::new(1);
        let reactor = Arc::new(Reactor::new());
        let (a, _b) = silent_socket();
        let parked = pool.spawn(park_once(Arc::clone(&reactor), a));
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        let h = pool.spawn(async { 7 });
        while !h.is_finished() && t0.elapsed() < Duration::from_millis(100) {
            std::thread::yield_now();
        }
        assert!(h.is_finished(), "the spawned task must run within 100 ms");
        assert_eq!(h.join(), 7);
        reactor.stop();
        parked.join();
    }

    #[test]
    fn is_finished_tracks_completion() {
        let pool = TaskPool::new(1);
        let h = pool.spawn(async { 5 });
        let v = loop {
            if h.is_finished() {
                break h.join();
            }
            std::thread::yield_now();
        };
        assert_eq!(v, 5);
    }
}
