//! The minikv wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — is one **frame**:
//!
//! ```text
//! +----------------+---------------------------------------------+
//! | len: u32 BE    | body (exactly `len` bytes)                  |
//! +----------------+---------------------------------------------+
//! ```
//!
//! `len` counts the body only (not itself) and is capped at
//! [`MAX_FRAME`]; a peer declaring more is a protocol error the decoder
//! reports **before allocating anything**, so a hostile 4-byte header
//! cannot balloon memory. Bodies share a common prefix — a `u64` BE
//! **request id** the client picks and the server echoes — which is what
//! makes pipelining work: a client may write many requests back-to-back
//! and match responses by id, and a server may (in principle) complete
//! them out of order.
//!
//! Request bodies, after the id:
//!
//! ```text
//! GET    = 0x01  klen:u32 key
//! PUT    = 0x02  klen:u32 key vlen:u32 value
//! DELETE = 0x03  klen:u32 key
//! PING   = 0x04  (empty)
//! STATS  = 0x05  (empty)
//! TRACE  = 0x06  (empty)
//! RECORDER = 0x07  (empty)
//! ```
//!
//! Response bodies, after the echoed id:
//!
//! ```text
//! VALUE     = 0x80  vlen:u32 value          (GET hit)
//! NOT_FOUND = 0x81                          (GET miss)
//! OK        = 0x82                          (PUT / DELETE done)
//! PONG      = 0x83                          (PING)
//! ERR       = 0x84  mlen:u32 message        (server-side failure)
//! STATS     = 0x85  tlen:u32 text           (metrics snapshot, UTF-8
//!                                            "key value" lines)
//! TRACE     = 0x86  tlen:u32 json           (Chrome-trace JSON export)
//! RECORDER  = 0x87  tlen:u32 text           (lock events, one a line)
//! ```
//!
//! [`Decoder`] is incremental: [`Decoder::feed`] it whatever a socket
//! read produced — half a header, three frames and a tail, anything —
//! and pull complete messages out with [`Decoder::next_request`] /
//! [`Decoder::next_response`]. Partial input is `Ok(None)`, never an
//! error; malformed input is an error, never a panic.

use std::fmt;

/// Largest permitted frame body in bytes (1 MiB). Keys and values are
/// bounded by this minus their fixed headers.
pub const MAX_FRAME: usize = 1 << 20;

/// Byte size of the length prefix.
const LEN_PREFIX: usize = 4;

/// Byte size of the request-id field every body starts with.
const ID_SIZE: usize = 8;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point lookup.
    Get {
        /// Client-chosen id, echoed in the response.
        id: u64,
        /// Key to look up.
        key: Vec<u8>,
    },
    /// Insert or overwrite.
    Put {
        /// Client-chosen id, echoed in the response.
        id: u64,
        /// Key to write.
        key: Vec<u8>,
        /// Value to associate.
        value: Vec<u8>,
    },
    /// Remove a key.
    Delete {
        /// Client-chosen id, echoed in the response.
        id: u64,
        /// Key to remove.
        key: Vec<u8>,
    },
    /// Liveness probe; the server answers [`Response::Pong`].
    Ping {
        /// Client-chosen id, echoed in the response.
        id: u64,
    },
    /// Metrics snapshot request; the server answers [`Response::Stats`]
    /// with the observability registry rendered as text.
    Stats {
        /// Client-chosen id, echoed in the response.
        id: u64,
    },
    /// Trace export request; the server answers [`Response::Trace`] with
    /// its sampled request spans rendered as Chrome-trace JSON.
    Trace {
        /// Client-chosen id, echoed in the response.
        id: u64,
    },
    /// Lock-event dump request; the server answers
    /// [`Response::RecorderDump`] with the lock events in its trace rings
    /// rendered as text — the debugger-free path to what the locks did.
    Recorder {
        /// Client-chosen id, echoed in the response.
        id: u64,
    },
}

impl Request {
    /// The request id (echoed by the server's response).
    pub fn id(&self) -> u64 {
        match *self {
            Request::Get { id, .. }
            | Request::Put { id, .. }
            | Request::Delete { id, .. }
            | Request::Ping { id }
            | Request::Stats { id }
            | Request::Trace { id }
            | Request::Recorder { id } => id,
        }
    }
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// GET hit.
    Value {
        /// Echo of the request id.
        id: u64,
        /// The stored value.
        value: Vec<u8>,
    },
    /// GET miss.
    NotFound {
        /// Echo of the request id.
        id: u64,
    },
    /// PUT or DELETE completed.
    Ok {
        /// Echo of the request id.
        id: u64,
    },
    /// Answer to [`Request::Ping`].
    Pong {
        /// Echo of the request id.
        id: u64,
    },
    /// Server-side failure executing the request.
    Err {
        /// Echo of the request id.
        id: u64,
        /// Human-readable failure description.
        message: String,
    },
    /// Answer to [`Request::Stats`]: the server's metrics snapshot,
    /// line-oriented `"key value"` text (see `hemlock_obs::Snapshot`).
    Stats {
        /// Echo of the request id.
        id: u64,
        /// Rendered snapshot text.
        text: String,
    },
    /// Answer to [`Request::Trace`]: the server's sampled spans as
    /// Chrome-trace JSON (see `hemlock_obs::trace`).
    Trace {
        /// Echo of the request id.
        id: u64,
        /// Chrome-trace-event JSON document.
        json: String,
    },
    /// Answer to [`Request::Recorder`]: the lock events rendered as
    /// text, newest-last, with site names resolved.
    RecorderDump {
        /// Echo of the request id.
        id: u64,
        /// Rendered lock events.
        text: String,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match *self {
            Response::Value { id, .. }
            | Response::NotFound { id }
            | Response::Ok { id }
            | Response::Pong { id }
            | Response::Err { id, .. }
            | Response::Stats { id, .. }
            | Response::Trace { id, .. }
            | Response::RecorderDump { id, .. } => id,
        }
    }
}

/// Opcode bytes for requests.
mod op {
    pub const GET: u8 = 0x01;
    pub const PUT: u8 = 0x02;
    pub const DELETE: u8 = 0x03;
    pub const PING: u8 = 0x04;
    pub const STATS: u8 = 0x05;
    pub const TRACE: u8 = 0x06;
    pub const RECORDER: u8 = 0x07;
}

/// Status bytes for responses.
mod status {
    pub const VALUE: u8 = 0x80;
    pub const NOT_FOUND: u8 = 0x81;
    pub const OK: u8 = 0x82;
    pub const PONG: u8 = 0x83;
    pub const ERR: u8 = 0x84;
    pub const STATS: u8 = 0x85;
    pub const TRACE: u8 = 0x86;
    pub const RECORDER: u8 = 0x87;
}

/// A protocol violation (encode- or decode-side).
///
/// Every variant is a reason to drop the connection: the stream framing
/// is byte-exact, so after one bad frame there is no resynchronization
/// point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A length prefix (or an encode request) exceeded [`MAX_FRAME`].
    Oversized {
        /// The length the peer declared (or the encoder was asked for).
        declared: u64,
        /// The enforced cap ([`MAX_FRAME`]).
        max: usize,
    },
    /// A request carried an opcode outside the defined set.
    BadOpcode(u8),
    /// A response carried a status outside the defined set.
    BadStatus(u8),
    /// A frame's internal fields did not tile its declared length.
    Malformed(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FrameError::Oversized { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte cap")
            }
            FrameError::BadOpcode(b) => write!(f, "unknown request opcode {b:#04x}"),
            FrameError::BadStatus(b) => write!(f, "unknown response status {b:#04x}"),
            FrameError::Malformed(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one encoded frame for `req` to `out`.
///
/// Fails (writing nothing) if the frame would exceed [`MAX_FRAME`] — the
/// encoder enforces the same cap the decoder does, so a well-behaved
/// peer can never produce a frame its counterpart must reject.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) -> Result<(), FrameError> {
    let body_len = match req {
        Request::Get { key, .. } | Request::Delete { key, .. } => ID_SIZE + 1 + 4 + key.len(),
        Request::Put { key, value, .. } => ID_SIZE + 1 + 4 + key.len() + 4 + value.len(),
        Request::Ping { .. }
        | Request::Stats { .. }
        | Request::Trace { .. }
        | Request::Recorder { .. } => ID_SIZE + 1,
    };
    check_frame(body_len)?;
    out.reserve(LEN_PREFIX + body_len);
    out.extend_from_slice(&(body_len as u32).to_be_bytes());
    out.extend_from_slice(&req.id().to_be_bytes());
    match req {
        Request::Get { key, .. } => {
            out.push(op::GET);
            put_blob(out, key);
        }
        Request::Put { key, value, .. } => {
            out.push(op::PUT);
            put_blob(out, key);
            put_blob(out, value);
        }
        Request::Delete { key, .. } => {
            out.push(op::DELETE);
            put_blob(out, key);
        }
        Request::Ping { .. } => out.push(op::PING),
        Request::Stats { .. } => out.push(op::STATS),
        Request::Trace { .. } => out.push(op::TRACE),
        Request::Recorder { .. } => out.push(op::RECORDER),
    }
    Ok(())
}

/// Appends one encoded frame for `resp` to `out`; same cap rules as
/// [`encode_request`].
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) -> Result<(), FrameError> {
    let body_len = match resp {
        Response::Value { value, .. } => ID_SIZE + 1 + 4 + value.len(),
        Response::Err { message, .. } => ID_SIZE + 1 + 4 + message.len(),
        Response::Stats { text, .. } | Response::RecorderDump { text, .. } => {
            ID_SIZE + 1 + 4 + text.len()
        }
        Response::Trace { json, .. } => ID_SIZE + 1 + 4 + json.len(),
        Response::NotFound { .. } | Response::Ok { .. } | Response::Pong { .. } => ID_SIZE + 1,
    };
    check_frame(body_len)?;
    out.reserve(LEN_PREFIX + body_len);
    out.extend_from_slice(&(body_len as u32).to_be_bytes());
    out.extend_from_slice(&resp.id().to_be_bytes());
    match resp {
        Response::Value { value, .. } => {
            out.push(status::VALUE);
            put_blob(out, value);
        }
        Response::NotFound { .. } => out.push(status::NOT_FOUND),
        Response::Ok { .. } => out.push(status::OK),
        Response::Pong { .. } => out.push(status::PONG),
        Response::Err { message, .. } => {
            out.push(status::ERR);
            put_blob(out, message.as_bytes());
        }
        Response::Stats { text, .. } => {
            out.push(status::STATS);
            put_blob(out, text.as_bytes());
        }
        Response::Trace { json, .. } => {
            out.push(status::TRACE);
            put_blob(out, json.as_bytes());
        }
        Response::RecorderDump { text, .. } => {
            out.push(status::RECORDER);
            put_blob(out, text.as_bytes());
        }
    }
    Ok(())
}

fn check_frame(body_len: usize) -> Result<(), FrameError> {
    if body_len > MAX_FRAME {
        return Err(FrameError::Oversized {
            declared: body_len as u64,
            max: MAX_FRAME,
        });
    }
    Ok(())
}

fn put_blob(out: &mut Vec<u8>, blob: &[u8]) {
    out.extend_from_slice(&(blob.len() as u32).to_be_bytes());
    out.extend_from_slice(blob);
}

/// Incremental frame decoder.
///
/// Feed it raw socket bytes in whatever chunks arrive; it buffers the
/// tail of any incomplete frame and yields complete messages on demand.
/// One decoder handles one direction of one connection (requests on the
/// server side, responses on the client side) — the two `next_*` methods
/// share the buffer, so a given stream must only ever use one of them.
#[derive(Default)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames. Compacted
    /// lazily so steady-state decoding is copy-free.
    pos: usize,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes to the internal buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: once prior frames are consumed their
        // bytes are dead, and dropping them first keeps the buffer's
        // high-water mark near one frame, not one connection-lifetime.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed (diagnostics).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next complete frame's body off the buffer, or `None` if
    /// a full frame has not arrived. Enforces [`MAX_FRAME`] from the
    /// header alone, before any body bytes are waited on or allocated.
    fn next_body(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < LEN_PREFIX {
            return Ok(None);
        }
        let declared = u32::from_be_bytes(avail[..LEN_PREFIX].try_into().unwrap()) as usize;
        if declared > MAX_FRAME {
            return Err(FrameError::Oversized {
                declared: declared as u64,
                max: MAX_FRAME,
            });
        }
        if avail.len() < LEN_PREFIX + declared {
            return Ok(None);
        }
        let start = self.pos + LEN_PREFIX;
        self.pos = start + declared;
        Ok(Some(&self.buf[start..start + declared]))
    }

    /// Decodes the next complete request, if one is buffered.
    ///
    /// `Ok(None)` means "need more bytes"; any `Err` is fatal to the
    /// stream (see [`FrameError`]).
    pub fn next_request(&mut self) -> Result<Option<Request>, FrameError> {
        let body = match self.next_body()? {
            Some(b) => b,
            None => return Ok(None),
        };
        let mut cur = Cursor::new(body);
        let id = cur.u64()?;
        let opcode = cur.u8()?;
        let req = match opcode {
            op::GET => Request::Get {
                id,
                key: cur.blob()?,
            },
            op::PUT => Request::Put {
                id,
                key: cur.blob()?,
                value: cur.blob()?,
            },
            op::DELETE => Request::Delete {
                id,
                key: cur.blob()?,
            },
            op::PING => Request::Ping { id },
            op::STATS => Request::Stats { id },
            op::TRACE => Request::Trace { id },
            op::RECORDER => Request::Recorder { id },
            other => return Err(FrameError::BadOpcode(other)),
        };
        cur.finish()?;
        Ok(Some(req))
    }

    /// Decodes the next complete response, if one is buffered. Same
    /// contract as [`Decoder::next_request`].
    pub fn next_response(&mut self) -> Result<Option<Response>, FrameError> {
        let body = match self.next_body()? {
            Some(b) => b,
            None => return Ok(None),
        };
        let mut cur = Cursor::new(body);
        let id = cur.u64()?;
        let code = cur.u8()?;
        let resp = match code {
            status::VALUE => Response::Value {
                id,
                value: cur.blob()?,
            },
            status::NOT_FOUND => Response::NotFound { id },
            status::OK => Response::Ok { id },
            status::PONG => Response::Pong { id },
            status::ERR => {
                let raw = cur.blob()?;
                let message = String::from_utf8(raw)
                    .map_err(|_| FrameError::Malformed("error message is not UTF-8"))?;
                Response::Err { id, message }
            }
            status::STATS => {
                let raw = cur.blob()?;
                let text = String::from_utf8(raw)
                    .map_err(|_| FrameError::Malformed("stats text is not UTF-8"))?;
                Response::Stats { id, text }
            }
            status::TRACE => {
                let raw = cur.blob()?;
                let json = String::from_utf8(raw)
                    .map_err(|_| FrameError::Malformed("trace json is not UTF-8"))?;
                Response::Trace { id, json }
            }
            status::RECORDER => {
                let raw = cur.blob()?;
                let text = String::from_utf8(raw)
                    .map_err(|_| FrameError::Malformed("recorder text is not UTF-8"))?;
                Response::RecorderDump { id, text }
            }
            other => return Err(FrameError::BadStatus(other)),
        };
        cur.finish()?;
        Ok(Some(resp))
    }
}

impl fmt::Debug for Decoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Decoder")
            .field("pending", &self.pending())
            .finish()
    }
}

/// A bounds-checked reader over one frame body.
struct Cursor<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(body: &'a [u8]) -> Self {
        Self { body, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.body.len())
            .ok_or(FrameError::Malformed("field overruns frame"))?;
        let s = &self.body[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32`-length-prefixed byte string. The length is validated
    /// against the *remaining frame bytes* before any copy, so a huge
    /// declared blob inside a small frame errors instead of allocating.
    fn blob(&mut self) -> Result<Vec<u8>, FrameError> {
        let n = u32::from_be_bytes(self.take(4)?.try_into().unwrap()) as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Declares the body fully parsed; trailing bytes are an error (a
    /// frame must tile exactly, or the peer disagrees about the format).
    fn finish(self) -> Result<(), FrameError> {
        if self.at != self.body.len() {
            return Err(FrameError::Malformed("trailing bytes in frame"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_requests(reqs: &[Request], chunk: usize) -> Vec<Request> {
        let mut wire = Vec::new();
        for r in reqs {
            encode_request(r, &mut wire).expect("encode");
        }
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        for piece in wire.chunks(chunk.max(1)) {
            dec.feed(piece);
            while let Some(r) = dec.next_request().expect("decode") {
                out.push(r);
            }
        }
        assert_eq!(dec.pending(), 0, "no leftover bytes");
        out
    }

    #[test]
    fn request_roundtrip_all_ops() {
        let reqs = vec![
            Request::Get {
                id: 1,
                key: b"alpha".to_vec(),
            },
            Request::Put {
                id: 2,
                key: b"beta".to_vec(),
                value: vec![0, 159, 146, 150],
            },
            Request::Delete {
                id: u64::MAX,
                key: Vec::new(),
            },
            Request::Ping { id: 0 },
            Request::Stats { id: 99 },
            Request::Trace { id: 100 },
            Request::Recorder { id: 101 },
        ];
        for chunk in [1, 3, 7, 4096] {
            assert_eq!(roundtrip_requests(&reqs, chunk), reqs, "chunk={chunk}");
        }
    }

    #[test]
    fn response_roundtrip_all_statuses() {
        let resps = vec![
            Response::Value {
                id: 9,
                value: b"v".repeat(300),
            },
            Response::NotFound { id: 10 },
            Response::Ok { id: 11 },
            Response::Pong { id: 12 },
            Response::Err {
                id: 13,
                message: "shard on fire".to_string(),
            },
            Response::Stats {
                id: 14,
                text: "minikv.acquires 12\nnet.requests 3\n".to_string(),
            },
            Response::Trace {
                id: 15,
                json: "{\"traceEvents\":[\n]}\n".to_string(),
            },
            Response::RecorderDump {
                id: 16,
                text: "0001 shard.lock Acquire arg=3\n".to_string(),
            },
        ];
        let mut wire = Vec::new();
        for r in &resps {
            encode_response(r, &mut wire).unwrap();
        }
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        for b in &wire {
            // Worst case: one byte at a time.
            dec.feed(core::slice::from_ref(b));
            while let Some(r) = dec.next_response().unwrap() {
                out.push(r);
            }
        }
        assert_eq!(out, resps);
    }

    #[test]
    fn partial_frame_is_none_not_error() {
        let mut wire = Vec::new();
        encode_request(
            &Request::Put {
                id: 7,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
            &mut wire,
        )
        .unwrap();
        let mut dec = Decoder::new();
        // Every proper prefix must decode to "not yet".
        for cut in 0..wire.len() {
            let mut d = Decoder::new();
            d.feed(&wire[..cut]);
            assert_eq!(d.next_request(), Ok(None), "cut at {cut}");
        }
        dec.feed(&wire);
        assert!(dec.next_request().unwrap().is_some());
    }

    #[test]
    fn oversized_prefix_errors_before_body_arrives() {
        let mut dec = Decoder::new();
        // Declared 512 MiB; only the header is present. Must error now —
        // not wait for (or allocate) the body.
        dec.feed(&(512u32 << 20).to_be_bytes());
        assert_eq!(
            dec.next_request(),
            Err(FrameError::Oversized {
                declared: 512 << 20,
                max: MAX_FRAME,
            })
        );
    }

    #[test]
    fn encode_enforces_the_same_cap() {
        let mut out = Vec::new();
        let too_big = Request::Put {
            id: 1,
            key: vec![0; MAX_FRAME],
            value: vec![0; 4],
        };
        assert!(matches!(
            encode_request(&too_big, &mut out),
            Err(FrameError::Oversized { .. })
        ));
        assert!(out.is_empty(), "failed encode must write nothing");
    }

    #[test]
    fn garbage_opcode_and_status_error_cleanly() {
        // Hand-build a frame with opcode 0x77.
        let mut wire = Vec::new();
        wire.extend_from_slice(&9u32.to_be_bytes());
        wire.extend_from_slice(&1u64.to_be_bytes());
        wire.push(0x77);
        let mut dec = Decoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_request(), Err(FrameError::BadOpcode(0x77)));
        let mut dec = Decoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_response(), Err(FrameError::BadStatus(0x77)));
    }

    #[test]
    fn blob_overrunning_its_frame_is_malformed() {
        // GET whose klen claims 100 bytes but the frame only holds 3.
        let mut wire = Vec::new();
        let body_len = 8 + 1 + 4 + 3;
        wire.extend_from_slice(&(body_len as u32).to_be_bytes());
        wire.extend_from_slice(&5u64.to_be_bytes());
        wire.push(0x01);
        wire.extend_from_slice(&100u32.to_be_bytes());
        wire.extend_from_slice(b"abc");
        let mut dec = Decoder::new();
        dec.feed(&wire);
        assert!(matches!(dec.next_request(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_in_frame_are_malformed() {
        // A PING body with one extra byte appended inside the frame.
        let mut wire = Vec::new();
        wire.extend_from_slice(&10u32.to_be_bytes());
        wire.extend_from_slice(&2u64.to_be_bytes());
        wire.push(0x04);
        wire.push(0xFF);
        let mut dec = Decoder::new();
        dec.feed(&wire);
        assert_eq!(
            dec.next_request(),
            Err(FrameError::Malformed("trailing bytes in frame"))
        );
    }

    #[test]
    fn non_utf8_error_message_is_malformed() {
        let mut wire = Vec::new();
        let body_len = 8 + 1 + 4 + 2;
        wire.extend_from_slice(&(body_len as u32).to_be_bytes());
        wire.extend_from_slice(&3u64.to_be_bytes());
        wire.push(0x84);
        wire.extend_from_slice(&2u32.to_be_bytes());
        wire.extend_from_slice(&[0xFF, 0xFE]);
        let mut dec = Decoder::new();
        dec.feed(&wire);
        assert!(matches!(dec.next_response(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn decoder_compacts_consumed_bytes() {
        let mut dec = Decoder::new();
        let mut wire = Vec::new();
        encode_request(&Request::Ping { id: 1 }, &mut wire).unwrap();
        for _ in 0..1000 {
            dec.feed(&wire);
            assert!(dec.next_request().unwrap().is_some());
        }
        assert_eq!(dec.pending(), 0);
        // The buffer must not have grown with the connection lifetime.
        assert!(dec.buf.len() <= 2 * wire.len(), "buf={}", dec.buf.len());
    }
}
