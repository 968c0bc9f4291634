//! Nonblocking socket I/O as futures, parked on the harness epoll
//! [`Reactor`].
//!
//! Each helper is the same shape, straight from the reactor's contract:
//! attempt the nonblocking syscall; on `WouldBlock`, park the task's
//! waker on the socket ([`Reactor::park`]: store the waker, then arm a
//! one-shot registration), re-check stop where it applies, and retry the
//! syscall once before returning `Pending`. The reactor wakes the task
//! when its socket becomes ready. Sockets that are already ready complete
//! on the first poll and never touch the reactor at all. `Interrupted`
//! (EINTR) retries inside the poll, every other error surfaces to the
//! caller.
//!
//! The read and accept helpers also honour [`Reactor::stop`], so graceful
//! shutdown needs no side channel: `stop` wakes every parked reader, which
//! observes the flag and resolves as if the peer had closed — exactly how
//! the server's connection loop wants to treat it. A reader that parks
//! while `stop` runs sees the flag on its re-check after parking.

use hemlock_harness::reactor::{Interest, Reactor};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsFd, BorrowedFd};
use std::task::{ready, Context, Poll};

/// One readiness-driven attempt of `op` on `fd`: `Interrupted` retries,
/// `WouldBlock` parks the task and retries once. `on_stop`, when given,
/// is the result once the reactor is stopped — checked on entry and again
/// after parking, so a stop that lands while the task parks is not lost.
fn attempt<T>(
    cx: &mut Context<'_>,
    reactor: &Reactor,
    fd: BorrowedFd<'_>,
    interest: Interest,
    mut on_stop: Option<T>,
    mut op: impl FnMut() -> io::Result<T>,
) -> Poll<io::Result<T>> {
    let mut parked = false;
    loop {
        if let Some(v) = on_stop.take_if(|_| reactor.stopped()) {
            return Poll::Ready(Ok(v));
        }
        match op() {
            Ok(v) => return Poll::Ready(Ok(v)),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if parked {
                    return Poll::Pending;
                }
                if let Err(e) = reactor.park(fd, interest, cx.waker()) {
                    return Poll::Ready(Err(e));
                }
                parked = true;
            }
            Err(e) => return Poll::Ready(Err(e)),
        }
    }
}

/// Reads at least one byte into `buf` from a nonblocking `stream`,
/// suspending (via `reactor`) while no bytes are available.
///
/// Resolves `Ok(0)` on EOF **or** once `reactor` is stopped — the caller
/// treats both as "this connection is done reading", which is the
/// graceful-shutdown path: already-buffered requests were decoded before
/// the caller came back to read.
pub async fn read_some(stream: &TcpStream, reactor: &Reactor, buf: &mut [u8]) -> io::Result<usize> {
    std::future::poll_fn(|cx| {
        attempt(
            cx,
            reactor,
            stream.as_fd(),
            Interest::Readable,
            Some(0),
            || (&*stream).read(buf),
        )
    })
    .await
}

/// Writes all of `data` to a nonblocking `stream`, suspending whenever
/// the socket buffer is full.
///
/// Stop is ignored here on purpose: the graceful-shutdown contract is
/// that every decoded request gets its response *flushed*, so the write
/// path keeps draining even while the server is stopping.
pub async fn write_all(stream: &TcpStream, reactor: &Reactor, data: &[u8]) -> io::Result<()> {
    let mut at = 0usize;
    std::future::poll_fn(move |cx| {
        while at < data.len() {
            let wrote = attempt(
                cx,
                reactor,
                stream.as_fd(),
                Interest::Writable,
                None,
                || (&*stream).write(&data[at..]),
            );
            match ready!(wrote)? {
                0 => return Poll::Ready(Err(io::ErrorKind::WriteZero.into())),
                n => at += n,
            }
        }
        Poll::Ready(Ok(()))
    })
    .await
}

/// Accepts one connection from a nonblocking `listener`, suspending
/// while none is pending. Resolves `Ok(None)` once `reactor` is stopped.
pub async fn accept(
    listener: &TcpListener,
    reactor: &Reactor,
) -> io::Result<Option<(TcpStream, SocketAddr)>> {
    std::future::poll_fn(|cx| {
        attempt(
            cx,
            reactor,
            listener.as_fd(),
            Interest::Readable,
            Some(None),
            || listener.accept().map(Some),
        )
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemlock_harness::executor::block_on;
    use std::sync::Arc;

    #[test]
    fn read_write_roundtrip_over_loopback() {
        let reactor = Reactor::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();

        let peer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"hello").unwrap();
            let mut back = [0u8; 5];
            s.read_exact(&mut back).unwrap();
            back
        });

        let echoed = block_on(async {
            let (stream, _) = accept(&listener, &reactor).await.unwrap().unwrap();
            stream.set_nonblocking(true).unwrap();
            let mut buf = [0u8; 16];
            let mut got = Vec::new();
            while got.len() < 5 {
                let n = read_some(&stream, &reactor, &mut buf).await.unwrap();
                assert_ne!(n, 0, "peer closed early");
                got.extend_from_slice(&buf[..n]);
            }
            write_all(&stream, &reactor, &got).await.unwrap();
            got
        });
        assert_eq!(echoed, b"hello");
        assert_eq!(&peer.join().unwrap(), b"hello");
    }

    #[test]
    fn stop_flag_resolves_a_parked_reader_as_eof() {
        let reactor = Arc::new(Reactor::new());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Keep the far end open but silent: the reader must park.
        let _quiet = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let r2 = Arc::clone(&reactor);
        let t = std::thread::spawn(move || {
            block_on(async move {
                let mut buf = [0u8; 8];
                read_some(&server_side, &r2, &mut buf).await.unwrap()
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Stop wakes the parked reader, whose poll observes the flag; a
        // reader that had not parked yet sees it on its re-check.
        reactor.stop();
        assert_eq!(t.join().unwrap(), 0, "stop must read as EOF");
    }
}
