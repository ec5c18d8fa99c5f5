//! The loopback echo peer of `live-loopback`.
//!
//! One thread, one non-blocking UDP socket with 4 MiB buffers, one epoll
//! set: every readable event drains the socket with `recvmmsg`, stamps
//! `echo_ts` on the benchmark's clock and answers with `sendmmsg`. Because
//! the stamp shares the benchmark's epoch, `SessionOutcome::echoed_at_ns`
//! minus a probe's due time is its echo delay with no clock-offset guess.
//! The peer counts every datagram it receives, so outbound loss (sent but
//! never received here) and return loss (echoed but never recorded) can
//! be told apart.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use probenet_wire::{ProbePacket, Timestamp48};
use rawpoll::{Epoll, Events, Interest, RecvMeta, WakeHandle, WakePipe};

/// Requested socket buffer size, bytes (the kernel clamps it to its
/// `rmem_max`/`wmem_max`).
pub const SOCKET_BUFFER_BYTES: usize = 4 << 20;
/// Datagrams per `recvmmsg`/`sendmmsg` submission.
const BATCH: usize = 64;
const SOCKET_TOKEN: u64 = 0;
const WAKE_TOKEN: u64 = 1;
/// Retries of a send the kernel refused for a full buffer before the
/// reply counts as a send failure.
const SEND_RETRIES: usize = 10_000;

/// Counters shared between the peer thread and its owner.
#[derive(Debug, Default)]
struct Counters {
    received: AtomicU64,
    decode_errors: AtomicU64,
    send_failures: AtomicU64,
}

/// What the peer did over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EchoCounts {
    /// Datagrams received.
    pub received: u64,
    /// Datagrams that were not probes (not answered).
    pub decode_errors: u64,
    /// Replies the kernel would not take.
    pub send_failures: u64,
}

/// A running echo peer; dropping it stops and joins the thread.
pub struct EchoPeer {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    wake: WakeHandle,
    counters: Arc<Counters>,
    handle: Option<JoinHandle<io::Result<()>>>,
}

impl EchoPeer {
    /// Bind 127.0.0.1 on an ephemeral port and start answering, stamping
    /// replies in microseconds since `epoch`.
    pub fn spawn(epoch: Instant) -> io::Result<EchoPeer> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.set_nonblocking(true)?;
        rawpoll::set_socket_buffers(socket.as_raw_fd(), SOCKET_BUFFER_BYTES, SOCKET_BUFFER_BYTES)?;
        let addr = socket.local_addr()?;
        let epoll = Epoll::new()?;
        let wake = WakePipe::new()?;
        epoll.add(socket.as_raw_fd(), SOCKET_TOKEN, Interest::READ)?;
        epoll.add(wake.read_fd(), WAKE_TOKEN, Interest::READ)?;
        let wake_handle = wake.handle();
        let stopping = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let handle = {
            let stop = Arc::clone(&stopping);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("perfbench-echo".into())
                .spawn(move || serve(&socket, &epoll, &wake, &stop, &counters, epoch))?
        };
        Ok(EchoPeer {
            addr,
            stopping,
            wake: wake_handle,
            counters,
            handle: Some(handle),
        })
    }

    /// Where the peer listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters so far.
    pub fn counts(&self) -> EchoCounts {
        EchoCounts {
            received: self.counters.received.load(Ordering::SeqCst),
            decode_errors: self.counters.decode_errors.load(Ordering::SeqCst),
            send_failures: self.counters.send_failures.load(Ordering::SeqCst),
        }
    }

    /// Stop the thread and wait for it; returns the error that ended it
    /// early, if any. Later calls return `Ok`.
    pub fn stop(&mut self) -> io::Result<()> {
        self.stopping.store(true, Ordering::SeqCst);
        self.wake.wake();
        match self.handle.take() {
            Some(h) => h
                .join()
                .map_err(|_| io::Error::other("echo peer thread panicked"))?,
            None => Ok(()),
        }
    }
}

impl Drop for EchoPeer {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

fn serve(
    socket: &UdpSocket,
    epoll: &Epoll,
    wake: &WakePipe,
    stop: &AtomicBool,
    counters: &Counters,
    epoch: Instant,
) -> io::Result<()> {
    let fd = socket.as_raw_fd();
    let batching = rawpoll::batching_available();
    let mut events = Events::with_capacity(4);
    let mut bufs = vec![[0u8; 2048]; BATCH];
    let mut meta = vec![RecvMeta::default(); BATCH];
    let mut replies: Vec<(Vec<u8>, SocketAddr)> = Vec::with_capacity(BATCH);
    while !stop.load(Ordering::SeqCst) {
        epoll.wait(&mut events, 100)?;
        if events.iter().any(|e| e.token == WAKE_TOKEN) {
            wake.drain();
        }
        loop {
            let received = if batching {
                let mut slices: Vec<&mut [u8]> = bufs.iter_mut().map(|b| &mut b[..]).collect();
                rawpoll::recv_batch(fd, &mut slices, &mut meta)
            } else {
                socket.recv_from(&mut bufs[0]).map(|(len, from)| {
                    meta[0] = RecvMeta {
                        len,
                        from: Some(from),
                    };
                    1
                })
            };
            let n = match received {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            counters.received.fetch_add(n as u64, Ordering::SeqCst);
            let stamp = Timestamp48::from_micros(epoch.elapsed().as_micros() as u64);
            replies.clear();
            for (buf, m) in bufs.iter().zip(&meta).take(n) {
                match (ProbePacket::decode(&buf[..m.len]), m.from) {
                    (Ok(mut probe), Some(from)) => {
                        probe.echo_ts = stamp;
                        replies.push((probe.to_bytes(), from));
                    }
                    _ => {
                        counters.decode_errors.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            send_all(socket, batching, &replies, counters);
        }
    }
    Ok(())
}

/// Send every reply, retrying while the kernel's buffer is full.
fn send_all(
    socket: &UdpSocket,
    batching: bool,
    replies: &[(Vec<u8>, SocketAddr)],
    counters: &Counters,
) {
    let mut next = 0;
    let mut retries = 0;
    while next < replies.len() {
        let sent = if batching {
            let msgs: Vec<(&[u8], Option<SocketAddr>)> = replies[next..]
                .iter()
                .map(|(b, to)| (&b[..], Some(*to)))
                .collect();
            rawpoll::send_batch(socket.as_raw_fd(), &msgs)
        } else {
            let (b, to) = &replies[next];
            socket.send_to(b, to).map(|_| 1)
        };
        match sent {
            Ok(k) if k > 0 => next += k,
            Err(e)
                if e.kind() != io::ErrorKind::WouldBlock
                    && e.kind() != io::ErrorKind::Interrupted =>
            {
                counters.send_failures.fetch_add(1, Ordering::SeqCst);
                next += 1;
            }
            _ if retries < SEND_RETRIES => {
                retries += 1;
                std::thread::yield_now();
            }
            _ => {
                counters
                    .send_failures
                    .fetch_add((replies.len() - next) as u64, Ordering::SeqCst);
                return;
            }
        }
    }
}
