//! # hemlock-net
//!
//! A networked front-end for `hemlock-minikv`: every lock algorithm in
//! the suite can now be exercised the way a lock in a real service is —
//! under pipelined request streams arriving over TCP, with the store's
//! contention profile set by client-side key skew rather than a
//! synthetic critical-section loop.
//!
//! Three layers, bottom up:
//!
//! - [`proto`] — a length-prefixed binary protocol (`GET`/`PUT`/
//!   `DELETE`/`PING`) with client-chosen request ids for pipelining,
//!   a strict frame cap, and an incremental [`Decoder`] that tolerates
//!   arbitrary packetization;
//! - [`aio`] + [`server`] — nonblocking-socket futures parked on the
//!   harness epoll [`hemlock_harness::Reactor`] (woken only when their
//!   own socket is ready, by the pool worker that will serve them), and
//!   a task-per-connection server on the in-tree `TaskPool` — the
//!   acceptor is a pool task too, so the server starts no thread —
//!   serving any [`hemlock_minikv::AsyncKv`] (i.e. a `Db` over any
//!   `async.*` catalog lock) with graceful, no-request-lost shutdown;
//! - [`client`] — a blocking pipelined [`Client`] plus the async
//!   [`AsyncConn`] the `loadgen` bench uses to drive many connections
//!   per thread.
//!
//! In-process quickstart (the loopback integration test and
//! `examples/net_kv.rs` are the fuller versions):
//!
//! ```
//! use hemlock_core::hemlock::Hemlock;
//! use hemlock_harness::executor::TaskPool;
//! use hemlock_minikv::Db;
//! use hemlock_net::{spawn_server, Client};
//! use std::sync::Arc;
//!
//! let pool = Arc::new(TaskPool::new(2));
//! let db: Arc<Db<Hemlock>> = Arc::new(Db::new(Default::default()));
//! let server = spawn_server(&pool, db.into_async_kv(), "127.0.0.1:0".parse().unwrap()).unwrap();
//!
//! let mut c = Client::connect(server.local_addr()).unwrap();
//! c.put(b"k", b"v").unwrap();
//! assert_eq!(c.get(b"k").unwrap(), Some(b"v".to_vec()));
//! drop(c);
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.requests, 2);
//! ```

#![deny(missing_docs)]

pub mod aio;
pub mod client;
pub mod convert;
pub mod proto;
pub mod server;

pub use client::{AsyncConn, Client, Op};
pub use proto::{
    encode_request, encode_response, Decoder, FrameError, Request, Response, MAX_FRAME,
};
pub use server::{spawn_server, ServerHandle, ServerStats};

#[cfg(test)]
mod proptests {
    use crate::proto::*;
    use proptest::prelude::*;

    fn blob() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..80)
    }

    fn request() -> impl Strategy<Value = Request> {
        prop_oneof![
            (any::<u64>(), blob()).prop_map(|(id, key)| Request::Get { id, key }),
            (any::<u64>(), blob(), blob()).prop_map(|(id, key, value)| Request::Put {
                id,
                key,
                value
            }),
            (any::<u64>(), blob()).prop_map(|(id, key)| Request::Delete { id, key }),
            any::<u64>().prop_map(|id| Request::Ping { id }),
        ]
    }

    fn response() -> impl Strategy<Value = Response> {
        prop_oneof![
            (any::<u64>(), blob()).prop_map(|(id, value)| Response::Value { id, value }),
            any::<u64>().prop_map(|id| Response::NotFound { id }),
            any::<u64>().prop_map(|id| Response::Ok { id }),
            any::<u64>().prop_map(|id| Response::Pong { id }),
            (any::<u64>(), proptest::collection::vec(97u8..123, 0..40)).prop_map(|(id, raw)| {
                Response::Err {
                    id,
                    message: String::from_utf8(raw).expect("ascii"),
                }
            }),
        ]
    }

    proptest! {
        /// Any request sequence survives encode → arbitrary re-chunking →
        /// decode, byte-for-byte.
        #[test]
        fn request_stream_roundtrips(
            reqs in proptest::collection::vec(request(), 1..20),
            chunk in 1usize..64,
        ) {
            let mut wire = Vec::new();
            for r in &reqs {
                encode_request(r, &mut wire).expect("encode");
            }
            let mut dec = Decoder::new();
            let mut out = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.feed(piece);
                while let Some(r) = dec.next_request().expect("decode") {
                    out.push(r);
                }
            }
            prop_assert_eq!(out, reqs);
            prop_assert_eq!(dec.pending(), 0);
        }

        /// Same for response sequences.
        #[test]
        fn response_stream_roundtrips(
            resps in proptest::collection::vec(response(), 1..20),
            chunk in 1usize..64,
        ) {
            let mut wire = Vec::new();
            for r in &resps {
                encode_response(r, &mut wire).expect("encode");
            }
            let mut dec = Decoder::new();
            let mut out = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.feed(piece);
                while let Some(r) = dec.next_response().expect("decode") {
                    out.push(r);
                }
            }
            prop_assert_eq!(out, resps);
        }

        /// Garbage never panics the decoder: it yields frames, "need more
        /// bytes", or an error — and after the first error the stream is
        /// abandoned, mirroring the server's drop-the-connection rule.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..400),
            chunk in 1usize..32,
        ) {
            let mut dec = Decoder::new();
            'outer: for piece in bytes.chunks(chunk) {
                dec.feed(piece);
                loop {
                    match dec.next_request() {
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(_) => break 'outer,
                    }
                }
            }
        }

        /// A truncated valid frame is always "need more bytes", and the
        /// remainder completes it.
        #[test]
        fn truncation_is_recoverable(req in request(), cut_seed: u64) {
            let mut wire = Vec::new();
            encode_request(&req, &mut wire).expect("encode");
            let cut = (cut_seed as usize) % wire.len();
            let mut dec = Decoder::new();
            dec.feed(&wire[..cut]);
            prop_assert_eq!(dec.next_request(), Ok(None));
            dec.feed(&wire[cut..]);
            prop_assert_eq!(dec.next_request(), Ok(Some(req)));
        }
    }
}
