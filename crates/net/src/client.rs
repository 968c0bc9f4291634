//! Clients: a blocking pipelined [`Client`] and an async [`AsyncConn`]
//! for driving many connections from a few threads (`loadgen`).
//!
//! Both speak the same batch discipline: assign consecutive request
//! ids, write the whole batch in one syscall-sized burst, then collect
//! responses **by id** — the protocol lets a server complete pipelined
//! requests out of order, so position on the wire is not trusted.
//!
//! `AsyncConn` takes its reactor per call: the reactor's registration
//! for a socket dies with the socket, so no state ties a connection to
//! one reactor. A batch on a stopped reactor reads as EOF and fails.

use crate::aio;
use crate::proto::{encode_request, Decoder, FrameError, Request, Response};
use hemlock_harness::Reactor;
use hemlock_minikv::KvOp;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One operation in a pipelined batch (borrowed: batches are built from
/// caller-owned key/value buffers without copies until encode).
#[derive(Debug, Clone, Copy)]
pub enum Op<'a> {
    /// Point lookup.
    Get(&'a [u8]),
    /// Insert or overwrite.
    Put(&'a [u8], &'a [u8]),
    /// Remove a key.
    Delete(&'a [u8]),
    /// Liveness probe.
    Ping,
    /// Metrics snapshot request.
    Stats,
    /// Trace export request (sampled spans as Chrome-trace JSON).
    Trace,
    /// Lock-event dump request.
    Recorder,
}

impl Op<'_> {
    /// Materializes this borrowed view as the stack-wide owned batch op
    /// ([`hemlock_minikv::KvOp`]); `None` for [`Op::Ping`] and
    /// [`Op::Stats`], which are connection-level messages rather than KV
    /// operations. `Op` is just the zero-copy batch-building form of
    /// `KvOp` — the wire encoding, the server dispatch, and the store all
    /// speak the shared vocabulary.
    pub fn to_kv(self) -> Option<KvOp> {
        match self {
            Op::Get(key) => Some(KvOp::Get(key.to_vec())),
            Op::Put(key, value) => Some(KvOp::Put(key.to_vec(), value.to_vec())),
            Op::Delete(key) => Some(KvOp::Delete(key.to_vec())),
            Op::Ping | Op::Stats | Op::Trace | Op::Recorder => None,
        }
    }

    fn to_request(self, id: u64) -> Request {
        match self.to_kv() {
            Some(op) => Request::from((id, op)),
            None => match self {
                Op::Stats => Request::Stats { id },
                Op::Trace => Request::Trace { id },
                Op::Recorder => Request::Recorder { id },
                _ => Request::Ping { id },
            },
        }
    }
}

fn proto_err(e: FrameError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

fn eof_err() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "server closed with responses outstanding",
    )
}

/// Encodes `ops` with ids `base..base+n` into one buffer.
fn encode_batch(ops: &[Op<'_>], base: u64) -> io::Result<Vec<u8>> {
    let mut wire = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        encode_request(&op.to_request(base + i as u64), &mut wire).map_err(proto_err)?;
    }
    Ok(wire)
}

/// Files a decoded response into its batch slot by id.
fn file_response(slots: &mut [Option<Response>], base: u64, resp: Response) -> io::Result<()> {
    let ix = resp
        .id()
        .checked_sub(base)
        .map(|d| d as usize)
        .filter(|&d| d < slots.len())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response id outside batch"))?;
    if slots[ix].replace(resp).is_some() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "duplicate response id",
        ));
    }
    Ok(())
}

/// A blocking pipelined client over one TCP connection.
///
/// ```no_run
/// use hemlock_net::{Client, Op};
///
/// let mut c = Client::connect("127.0.0.1:7878".parse().unwrap()).unwrap();
/// c.put(b"k", b"v").unwrap();
/// assert_eq!(c.get(b"k").unwrap(), Some(b"v".to_vec()));
/// let batch = c.pipeline(&[Op::Get(b"k"), Op::Delete(b"k"), Op::Ping]).unwrap();
/// assert_eq!(batch.len(), 3);
/// ```
pub struct Client {
    stream: TcpStream,
    dec: Decoder,
    next_id: u64,
}

impl Client {
    /// Connects (blocking) and disables Nagle — pipelined batches are
    /// already syscall-batched, so delaying small writes only adds RTT.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            dec: Decoder::new(),
            next_id: 1,
        })
    }

    /// Sends `ops` as one pipelined batch and returns the responses in
    /// *op order* (matched by id, whatever order they arrived in).
    pub fn pipeline(&mut self, ops: &[Op<'_>]) -> io::Result<Vec<Response>> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        let base = self.next_id;
        self.next_id += ops.len() as u64;
        let wire = encode_batch(ops, base)?;
        self.stream.write_all(&wire)?;
        let mut slots: Vec<Option<Response>> = vec![None; ops.len()];
        let mut filled = 0usize;
        let mut buf = [0u8; 16 * 1024];
        while filled < ops.len() {
            while let Some(resp) = self.dec.next_response().map_err(proto_err)? {
                file_response(&mut slots, base, resp)?;
                filled += 1;
            }
            if filled == ops.len() {
                break;
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(eof_err());
            }
            self.dec.feed(&buf[..n]);
        }
        Ok(slots.into_iter().map(|s| s.expect("filled")).collect())
    }

    /// Single GET; `Ok(None)` on a miss.
    pub fn get(&mut self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        match self.one(Op::Get(key))? {
            Response::Value { value, .. } => Ok(Some(value)),
            Response::NotFound { .. } => Ok(None),
            other => Err(mismatch(&other)),
        }
    }

    /// Single PUT.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        match self.one(Op::Put(key, value))? {
            Response::Ok { .. } => Ok(()),
            other => Err(mismatch(&other)),
        }
    }

    /// Single DELETE.
    pub fn delete(&mut self, key: &[u8]) -> io::Result<()> {
        match self.one(Op::Delete(key))? {
            Response::Ok { .. } => Ok(()),
            other => Err(mismatch(&other)),
        }
    }

    /// Single PING round-trip (connectivity check).
    pub fn ping(&mut self) -> io::Result<()> {
        match self.one(Op::Ping)? {
            Response::Pong { .. } => Ok(()),
            other => Err(mismatch(&other)),
        }
    }

    /// Fetches the server's metrics snapshot (the `STATS` opcode) as the
    /// line-oriented `"key value"` text `hemlock_obs::Snapshot` renders;
    /// parse it back with `Snapshot::parse_text`.
    pub fn stats(&mut self) -> io::Result<String> {
        match self.one(Op::Stats)? {
            Response::Stats { text, .. } => Ok(text),
            other => Err(mismatch(&other)),
        }
    }

    /// Fetches the server's sampled request spans (the `TRACE` opcode)
    /// as a Chrome-trace-event JSON document; open it in Perfetto or
    /// `chrome://tracing`, or parse it back with
    /// `hemlock_obs::trace::parse_chrome_json`.
    pub fn trace_json(&mut self) -> io::Result<String> {
        match self.one(Op::Trace)? {
            Response::Trace { json, .. } => Ok(json),
            other => Err(mismatch(&other)),
        }
    }

    /// Fetches the lock events in the server's trace rings (the
    /// `RECORDER` opcode) as rendered text, one event a line:
    /// `t0_ns thread site event arg`.
    pub fn recorder_dump(&mut self) -> io::Result<String> {
        match self.one(Op::Recorder)? {
            Response::RecorderDump { text, .. } => Ok(text),
            other => Err(mismatch(&other)),
        }
    }

    fn one(&mut self, op: Op<'_>) -> io::Result<Response> {
        Ok(self.pipeline(&[op])?.pop().expect("one response"))
    }
}

fn mismatch(resp: &Response) -> io::Error {
    match resp {
        Response::Err { message, .. } => io::Error::other(format!("server error: {message}")),
        other => io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response kind does not match request: {other:?}"),
        ),
    }
}

/// An async pipelined connection: the same batch discipline as
/// [`Client`], but nonblocking and parked on a [`Reactor`] — so one
/// `TaskPool` worker can interleave dozens of these (how `loadgen`
/// sustains its connection counts without a thread per connection).
pub struct AsyncConn {
    stream: TcpStream,
    dec: Decoder,
    next_id: u64,
}

impl AsyncConn {
    /// Connects (the connect itself is blocking — connections are set up
    /// before the measured phase), then switches to nonblocking mode.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            dec: Decoder::new(),
            next_id: 1,
        })
    }

    /// Sends `ops` as one pipelined batch, suspending on socket
    /// readiness; returns responses in op order.
    pub async fn batch(&mut self, reactor: &Reactor, ops: &[Op<'_>]) -> io::Result<Vec<Response>> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        let base = self.next_id;
        self.next_id += ops.len() as u64;
        let wire = encode_batch(ops, base)?;
        aio::write_all(&self.stream, reactor, &wire).await?;
        let mut slots: Vec<Option<Response>> = vec![None; ops.len()];
        let mut filled = 0usize;
        let mut buf = [0u8; 16 * 1024];
        while filled < ops.len() {
            while let Some(resp) = self.dec.next_response().map_err(proto_err)? {
                file_response(&mut slots, base, resp)?;
                filled += 1;
            }
            if filled == ops.len() {
                break;
            }
            let n = aio::read_some(&self.stream, reactor, &mut buf).await?;
            if n == 0 {
                return Err(eof_err());
            }
            self.dec.feed(&buf[..n]);
        }
        Ok(slots.into_iter().map(|s| s.expect("filled")).collect())
    }
}
