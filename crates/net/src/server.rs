//! The KV server: task-per-connection on the in-tree `TaskPool`.
//!
//! Shape:
//!
//! - an **acceptor** — a pool task running the async accept loop, which
//!   spawns one connection task per accepted socket. It holds an
//!   `Arc<TaskPool>` to spawn them, and [`ServerHandle`] holds another
//!   until it has joined the acceptor, so the pool's last drop never
//!   happens on one of its own workers (which would join itself). The
//!   acceptor's future is dropped before its join slot is filled.
//! - one **connection task** per accepted socket, spawned on the pool.
//!   Each task loops: decode every complete request, dispatch it to the
//!   [`AsyncKv`] store (suspending on busy shards, never blocking a
//!   worker), flush the encoded responses, then park for more bytes.
//! - a shared epoll [`Reactor`] parking all of the above until their
//!   socket is ready. The pool's idle workers wait in its epoll
//!   themselves, so a ready socket wakes the worker that serves it; the
//!   server starts no thread of its own.
//!
//! **Graceful shutdown** ([`ServerHandle::shutdown`]) calls
//! [`Reactor::stop`], which sets the reactor's stop flag and wakes every
//! parked task. The acceptor observes it and stops accepting; each
//! connection task observes it at its next read (requests already
//! decoded are answered and flushed first — the write path deliberately
//! ignores the flag) and returns its served-request count. The handle
//! then joins the acceptor and every connection task from the caller's
//! thread — `JoinHandle::join` blocks, which is exactly why the joins
//! happen here and never on a pool worker. No task outlives the call
//! and every fully-received request got its response: the PR-5
//! cancellation-safety work is what makes the remaining case (a task
//! dropped mid-`await` by pool teardown) safe rather than corrupting —
//! async lock futures unregister on drop.

use crate::aio;
use crate::proto::{encode_response, Decoder, Request, Response};
use hemlock_harness::executor::{JoinHandle, TaskPool};
use hemlock_harness::Reactor;
use hemlock_minikv::{AsyncKv, KvOp};
use hemlock_obs::trace;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Dispatch each decoded pipeline burst as **one**
    /// [`AsyncKv::apply_batch_async`] call (the flat-combined path: one
    /// shard acquisition per shard touched, one run snapshot for all the
    /// misses) instead of awaiting one future per request. On by
    /// default; `loadgen --combine off` measures the per-op baseline.
    pub combine: bool,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self { combine: true }
    }
}

/// Totals reported by [`ServerHandle::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: usize,
    /// Requests that were fully received, executed, **and responded to**.
    pub requests: u64,
}

/// A running server; dropping it without [`ServerHandle::shutdown`]
/// still stops the acceptor, but only `shutdown` reports stats and
/// joins the connection tasks.
pub struct ServerHandle {
    local_addr: SocketAddr,
    reactor: Arc<Reactor>,
    acceptor: Option<JoinHandle<(usize, Vec<JoinHandle<u64>>)>>,
    /// Kept until the acceptor is joined: the acceptor's own `Arc` is
    /// then never the pool's last.
    _pool: Arc<TaskPool>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the server gracefully: no new connections, every decoded
    /// request answered and flushed, every task joined. Call from a
    /// plain thread, **not** from a task on the serving pool (the joins
    /// block).
    pub fn shutdown(mut self) -> ServerStats {
        self.reactor.stop();
        let (connections, conns) = self.acceptor.take().expect("shutdown called once").join();
        let requests = conns.into_iter().map(JoinHandle::join).sum();
        ServerStats {
            connections,
            requests,
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.reactor.stop();
        if let Some(t) = self.acceptor.take() {
            // Join the acceptor (the stop wakes it) but detach the
            // connection handles: resuming a task panic inside drop
            // could double-panic, and the tasks stop on the same flag.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.join()));
        }
    }
}

/// Binds `addr` and starts serving `kv` with one pool task per
/// connection and default [`ServerOptions`] (burst dispatch combined).
/// Returns once the listener is bound; serving continues until
/// [`ServerHandle::shutdown`].
pub fn spawn_server(
    pool: &Arc<TaskPool>,
    kv: Arc<dyn AsyncKv>,
    addr: SocketAddr,
) -> io::Result<ServerHandle> {
    spawn_server_with(pool, kv, addr, ServerOptions::default())
}

/// [`spawn_server`] with explicit [`ServerOptions`].
pub fn spawn_server_with(
    pool: &Arc<TaskPool>,
    kv: Arc<dyn AsyncKv>,
    addr: SocketAddr,
    opts: ServerOptions,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let reactor = Arc::new(Reactor::new());
    let acceptor = pool.spawn(accept_loop(
        listener,
        Arc::clone(pool),
        kv,
        Arc::clone(&reactor),
        opts,
    ));
    Ok(ServerHandle {
        local_addr,
        reactor,
        acceptor: Some(acceptor),
        _pool: Arc::clone(pool),
    })
}

/// The acceptor task; returns (connections accepted, one [`JoinHandle`]
/// per connection task).
async fn accept_loop(
    listener: TcpListener,
    pool: Arc<TaskPool>,
    kv: Arc<dyn AsyncKv>,
    reactor: Arc<Reactor>,
    opts: ServerOptions,
) -> (usize, Vec<JoinHandle<u64>>) {
    let mut conns = Vec::new();
    loop {
        match aio::accept(&listener, &reactor).await {
            Ok(Some((stream, _peer))) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                conns.push(pool.spawn(serve_conn(
                    stream,
                    Arc::clone(&kv),
                    Arc::clone(&reactor),
                    opts,
                )));
            }
            Ok(None) => break, // graceful stop
            Err(_) => break,   // listener failed; stop accepting
        }
    }
    (conns.len(), conns)
}

/// One connection's lifetime; returns the number of requests served
/// (executed **and** response flushed).
async fn serve_conn(
    stream: TcpStream,
    kv: Arc<dyn AsyncKv>,
    reactor: Arc<Reactor>,
    opts: ServerOptions,
) -> u64 {
    if hemlock_obs::enabled() {
        hemlock_obs::registry().net_connections.inc();
    }
    let mut dec = Decoder::new();
    let mut inbuf = vec![0u8; 16 * 1024];
    let mut outbuf = Vec::new();
    let mut reqs: Vec<Request> = Vec::new();
    let mut served = 0u64;
    loop {
        // Drain everything fully received, in arrival order. Pipelined
        // peers get one flush per read batch rather than per request.
        let dec_t0 = if trace::active() { trace::now_ns() } else { 0 };
        loop {
            match dec.next_request() {
                Ok(Some(req)) => reqs.push(req),
                Ok(None) => break,
                // Protocol violation: the stream has no resync point, so
                // drop the connection (never panic the task).
                Err(_) => {
                    if hemlock_obs::enabled() {
                        hemlock_obs::registry().net_drop_protocol.inc();
                    }
                    return served;
                }
            }
        }
        let batched = reqs.len() as u64;
        // One sampling draw per burst: the burst is the unit the server
        // dispatches, flushes, and attributes service time to, so it is
        // also the unit a trace follows. The decode interval is emitted
        // retroactively once the draw says this burst is sampled.
        let trace_id = if batched > 0 {
            trace::sample_request()
        } else {
            0
        };
        if trace_id != 0 {
            trace::span_at(
                trace_id,
                "net.decode",
                dec_t0,
                trace::now_ns(),
                trace::SpanKind::Sync,
            );
        }
        let req_span = trace::AsyncSpan::start(trace_id, "net.request");
        // Server-side *service* time: decoded-to-encoded, excluding the
        // socket. The client's RTT minus this is queueing + transport —
        // the split loadgen's `srv_*` extras make visible.
        let t0 = (hemlock_obs::enabled() && batched > 0).then(|| {
            hemlock_obs::registry().net_inflight.add(batched as i64);
            std::time::Instant::now()
        });
        if opts.combine {
            // The decoded burst IS the batch: one `apply_batch_async`
            // call amortizes the whole read's lock work (flat-combined
            // shard passes, one run snapshot, one freeze check) instead
            // of paying it once per request. `traced` re-arms the
            // thread's trace context on every poll (the pool migrates
            // tasks between workers) and attributes inter-poll gaps to
            // `task.suspend`.
            if trace::traced(trace_id, dispatch_burst(&*kv, &mut reqs, &mut outbuf))
                .await
                .is_err()
            {
                return served;
            }
        } else {
            let dispatched = trace::traced(trace_id, async {
                for req in reqs.drain(..) {
                    let resp = dispatch(&*kv, req).await;
                    if encode_response(&resp, &mut outbuf).is_err() {
                        return Err(());
                    }
                }
                Ok(())
            })
            .await;
            if dispatched.is_err() {
                return served;
            }
        }
        if let Some(t0) = t0 {
            let reg = hemlock_obs::registry();
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            reg.net_service_ns.record(ns);
            reg.net_requests.add(batched);
            reg.net_inflight.sub(batched as i64);
        }
        if !outbuf.is_empty() {
            let flush = trace::AsyncSpan::start(trace_id, "net.flush");
            let wrote = aio::write_all(&stream, &reactor, &outbuf).await;
            drop(flush);
            if wrote.is_err() {
                return served;
            }
            outbuf.clear();
        }
        drop(req_span);
        // Responses above are flushed, so they count even if the next
        // read finds the peer gone.
        served += batched;
        match aio::read_some(&stream, &reactor, &mut inbuf).await {
            Ok(0) => return served, // EOF or graceful stop
            Ok(n) => dec.feed(&inbuf[..n]),
            Err(_) => return served,
        }
    }
}

/// What a burst slot is waiting for: a ping or stats request answered
/// inline, or the next positional result of the batch.
enum Pending {
    Ping(u64),
    Stats(u64),
    Trace(u64),
    Recorder(u64),
    Op(u64),
}

/// The observability registry rendered for the `STATS` opcode.
fn stats_text() -> String {
    hemlock_obs::registry().snapshot().render_text()
}

/// Every sampled span drained and rendered for the `TRACE` opcode.
///
/// The response must fit one protocol frame ([`crate::proto::MAX_FRAME`]);
/// a full set of rings can render to several MiB, so when the document
/// is oversized the oldest half of the events is dropped and the trace
/// re-rendered until it fits — the rings already bound history in
/// records, this bounds it on the wire. Recent spans always survive.
fn trace_json() -> String {
    let mut events = trace::export_events();
    events.sort_by_key(|e| e.t0_ns);
    loop {
        let doc = trace::chrome_trace_json(&events);
        if events.is_empty() || doc.len() + 64 <= crate::proto::MAX_FRAME {
            return doc;
        }
        let drop_n = events.len().div_ceil(2);
        events.drain(..drop_n);
    }
}

/// The flight recorder rendered for the `RECORDER` opcode — the
/// debugger-free path to the lock-event ring (site names resolved).
fn recorder_text() -> String {
    hemlock_obs::recorder::recorder().dump_text()
}

/// Executes one decoded pipeline burst as a single batch: converts the
/// KV requests to [`KvOp`]s (pings are answered in place), feeds them to
/// [`AsyncKv::apply_batch_async`] as one unit, and encodes the
/// positional results back in request order. `Err` means an encode
/// failure — fatal to the connection, like the per-op path.
async fn dispatch_burst(
    kv: &dyn AsyncKv,
    reqs: &mut Vec<Request>,
    outbuf: &mut Vec<u8>,
) -> Result<(), ()> {
    if reqs.is_empty() {
        return Ok(());
    }
    let mut pending = Vec::with_capacity(reqs.len());
    let mut ops = Vec::with_capacity(reqs.len());
    for req in reqs.drain(..) {
        match <(u64, KvOp)>::try_from(req) {
            Ok((id, op)) => {
                pending.push(Pending::Op(id));
                ops.push(op);
            }
            Err(Request::Stats { id }) => pending.push(Pending::Stats(id)),
            Err(Request::Trace { id }) => pending.push(Pending::Trace(id)),
            Err(Request::Recorder { id }) => pending.push(Pending::Recorder(id)),
            Err(other) => pending.push(Pending::Ping(other.id())),
        }
    }
    let mut results = kv.apply_batch_async(&ops).await.into_iter();
    // Encoding is sync within one poll, so it may carry a nested span.
    let enc = trace::SyncSpan::start(trace::current(), "net.encode");
    for p in pending {
        let resp = match p {
            Pending::Ping(id) => Response::Pong { id },
            Pending::Stats(id) => Response::Stats {
                id,
                text: stats_text(),
            },
            Pending::Trace(id) => Response::Trace {
                id,
                json: trace_json(),
            },
            Pending::Recorder(id) => Response::RecorderDump {
                id,
                text: recorder_text(),
            },
            Pending::Op(id) => {
                let res = results.next().expect("batch results are positional");
                Response::from((id, res))
            }
        };
        if encode_response(&resp, outbuf).is_err() {
            return Err(());
        }
    }
    drop(enc);
    Ok(())
}

/// Executes one request against the store. Infallible by construction —
/// [`Response::Err`] exists for wire completeness, but the in-memory
/// `Db` cannot fail an operation.
async fn dispatch(kv: &dyn AsyncKv, req: Request) -> Response {
    match req {
        Request::Get { id, key } => match kv.get_async(&key).await {
            Some(value) => Response::Value { id, value },
            None => Response::NotFound { id },
        },
        Request::Put { id, key, value } => {
            kv.put_async(&key, &value).await;
            Response::Ok { id }
        }
        Request::Delete { id, key } => {
            kv.delete_async(&key).await;
            Response::Ok { id }
        }
        Request::Ping { id } => Response::Pong { id },
        Request::Stats { id } => Response::Stats {
            id,
            text: stats_text(),
        },
        Request::Trace { id } => Response::Trace {
            id,
            json: trace_json(),
        },
        Request::Recorder { id } => Response::RecorderDump {
            id,
            text: recorder_text(),
        },
    }
}
