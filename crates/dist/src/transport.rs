//! The byte-transport layer: one trait, two implementations.
//!
//! [`Transport`] is a request/response exchange of [`Frame`]s under an
//! absolute deadline, in two halves: [`Transport::send`] writes the
//! request and hands back the [`PendingReply`] on which its reply is read.
//! A coordinator that talks to several workers writes to all of them
//! before it reads from any (a *round*, `cluster.rs`), so the workers
//! compute at the same time; [`Transport::round_trip`] is the two halves
//! in sequence. A worker has at most one request in flight: the pending
//! reply holds the connection, and dropping it unread abandons that
//! connection, so a reply nobody waited for is never read as the answer to
//! a later request. The two implementations are deliberately symmetric so
//! the in-process path remains the bitwise differential reference for the
//! TCP path:
//!
//! - [`InProcessTransport`] — the worker is a thread fed by a channel.
//!   Frames are still *encoded to wire bytes and decoded back* on both
//!   hops, so the only thing TCP adds is the socket itself.
//! - [`TcpTransport`] — the worker is a thread serving a real
//!   `TcpListener` on localhost; the coordinator keeps one reusable
//!   connection per worker and reconnects (under the RPC layer's retry
//!   policy) after failures.
//!
//! Worker servers poll a kill flag between requests, so
//! [`WorkerControl::kill`] simulates abrupt worker death: in-flight and
//! subsequent RPCs surface typed transport errors within their deadline.

use crate::wire::{read_frame, remaining, write_frame, Frame, WireError};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tfe_parallel::lock;

/// How often servers poll the kill flag while idle.
const POLL: Duration = Duration::from_millis(25);

/// A transport-level failure, mapped to [`crate::DistError`] by the RPC
/// layer.
#[derive(Debug)]
pub enum TransportError {
    /// Establishing the connection failed; the request was never sent, so
    /// a retry is always safe.
    Connect(String),
    /// The deadline expired while waiting to send or receive.
    Timeout,
    /// The peer vanished mid-exchange (EOF, reset, dead channel).
    ConnectionLost(String),
    /// The response failed to decode.
    Wire(WireError),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Connect(msg) => write!(f, "connect failed: {msg}"),
            TransportError::Timeout => write!(f, "transport deadline expired"),
            TransportError::ConnectionLost(msg) => write!(f, "connection lost: {msg}"),
            TransportError::Wire(e) => write!(f, "{e}"),
        }
    }
}

/// One request/response exchange with a worker, in two halves.
pub trait Transport: Send + Sync {
    /// Write `request` (one encoded frame, see [`Frame::encode`]), bounded
    /// by the absolute `deadline`. The caller encodes, so a retry re-sends
    /// the same bytes.
    ///
    /// # Errors
    /// Typed [`TransportError`]; implementations never block past the
    /// deadline.
    fn send(
        &self,
        request: &[u8],
        deadline: Instant,
    ) -> Result<Box<dyn PendingReply + '_>, TransportError>;

    /// [`Transport::send`], then [`PendingReply::receive`].
    ///
    /// # Errors
    /// Those of the two halves.
    fn round_trip(&self, request: &[u8], deadline: Instant) -> Result<Frame, TransportError> {
        self.send(request, deadline)?.receive(deadline)
    }

    /// `"in_process"` or `"tcp"` — used in metrics labels and Debug.
    fn kind(&self) -> &'static str;
}

/// The receive half of an exchange: a request that has been written and
/// whose reply has not been read.
pub trait PendingReply {
    /// Wait for the reply, bounded by the absolute `deadline`.
    ///
    /// # Errors
    /// Typed [`TransportError`]; never blocks past the deadline.
    fn receive(self: Box<Self>, deadline: Instant) -> Result<Frame, TransportError>;
}

/// Handle to a running worker server (either transport).
pub struct WorkerControl {
    kill: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
    /// The bound localhost address (TCP workers only).
    pub addr: Option<SocketAddr>,
}

impl WorkerControl {
    /// Abrupt death: stop serving without draining. In-flight requests are
    /// abandoned (TCP connections reset; channel responses never sent) so
    /// the coordinator's next RPC observes `ConnectionLost` or `Timeout`
    /// within its deadline. Used by shutdown and by chaos tests.
    pub fn kill(&mut self) {
        self.kill.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }

    /// Whether the server has been killed.
    pub fn is_killed(&self) -> bool {
        self.kill.load(Ordering::SeqCst)
    }
}

fn count_bytes(worker: &str, sent: usize, received: usize) {
    tfe_metrics::counter_vec(
        "tfe_dist_bytes_sent_total",
        "Wire bytes sent from the coordinator to each worker",
        "worker",
    )
    .with(worker)
    .add(sent as u64);
    tfe_metrics::counter_vec(
        "tfe_dist_bytes_received_total",
        "Wire bytes received by the coordinator from each worker",
        "worker",
    )
    .with(worker)
    .add(received as u64);
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

type ByteCall = (Vec<u8>, Sender<Vec<u8>>);

/// Channel transport to a worker thread in this process. Frames still
/// round-trip through their wire-byte encoding, so this path exercises
/// everything the TCP path does except the socket.
pub struct InProcessTransport {
    tx: Sender<ByteCall>,
    worker: String,
}

impl Transport for InProcessTransport {
    fn send(
        &self,
        request: &[u8],
        _deadline: Instant,
    ) -> Result<Box<dyn PendingReply + '_>, TransportError> {
        let (resp_tx, resp_rx) = channel();
        self.tx
            .send((request.to_vec(), resp_tx))
            .map_err(|_| TransportError::ConnectionLost("worker channel closed".to_string()))?;
        Ok(Box::new(ChannelReply { rx: resp_rx, worker: &self.worker, sent: request.len() }))
    }

    fn kind(&self) -> &'static str {
        "in_process"
    }
}

/// The reply channel of one in-process request; it is the request's own, so
/// an abandoned reply goes nowhere.
struct ChannelReply<'a> {
    rx: Receiver<Vec<u8>>,
    worker: &'a str,
    sent: usize,
}

impl PendingReply for ChannelReply<'_> {
    fn receive(self: Box<Self>, deadline: Instant) -> Result<Frame, TransportError> {
        let timeout = remaining(deadline).ok_or(TransportError::Timeout)?;
        let resp = match self.rx.recv_timeout(timeout) {
            Ok(bytes) => bytes,
            Err(RecvTimeoutError::Timeout) => return Err(TransportError::Timeout),
            Err(RecvTimeoutError::Disconnected) => {
                return Err(TransportError::ConnectionLost(
                    "worker died before responding".to_string(),
                ))
            }
        };
        count_bytes(self.worker, self.sent, resp.len());
        Frame::decode(&resp).map_err(TransportError::Wire)
    }
}

/// Spawn an in-process worker serving `handler` over a channel of wire
/// bytes. `handler` returns `(response_frame, shutdown)`.
pub(crate) fn spawn_in_process(
    name: &str,
    mut handler: impl FnMut(Frame) -> (Frame, bool) + Send + 'static,
) -> (InProcessTransport, WorkerControl) {
    let (tx, rx) = channel::<ByteCall>();
    let kill = Arc::new(AtomicBool::new(false));
    let kill_srv = kill.clone();
    let join = std::thread::Builder::new()
        .name(format!("tfe-worker-{name}"))
        .spawn(move || loop {
            if kill_srv.load(Ordering::SeqCst) {
                break;
            }
            let (bytes, resp_tx) = match rx.recv_timeout(POLL) {
                Ok(call) => call,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            match Frame::decode(&bytes) {
                Ok(frame) => {
                    let (reply, shutdown) = handler(frame);
                    if kill_srv.load(Ordering::SeqCst) && !shutdown {
                        // Killed mid-request: abandon the response so the
                        // caller sees a transport failure, not a last gasp.
                        break;
                    }
                    let _ = resp_tx.send(reply.encode());
                    if shutdown {
                        kill_srv.store(true, Ordering::SeqCst);
                        break;
                    }
                }
                Err(e) => {
                    let reply = Frame::new(0, None, crate::rpc::err_body(&format!("wire: {e}")));
                    let _ = resp_tx.send(reply.encode());
                }
            }
        })
        .expect("spawn in-process worker");
    (
        InProcessTransport { tx, worker: name.to_string() },
        WorkerControl { kill, join: Some(join), addr: None },
    )
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// Socket transport to a worker serving a localhost listener. One
/// connection is kept and reused across calls; any failure, and any reply
/// left unread, poisons it so the next call reconnects from scratch.
pub struct TcpTransport {
    addr: SocketAddr,
    stream: Mutex<Option<TcpStream>>,
    worker: String,
}

impl TcpTransport {
    /// Transport to a worker at `addr` (labelled `worker` in metrics).
    pub fn new(addr: SocketAddr, worker: String) -> TcpTransport {
        TcpTransport { addr, stream: Mutex::new(None), worker }
    }
}

impl Transport for TcpTransport {
    fn send(
        &self,
        request: &[u8],
        deadline: Instant,
    ) -> Result<Box<dyn PendingReply + '_>, TransportError> {
        let mut slot = lock(&self.stream);
        if slot.is_none() {
            let timeout = remaining(deadline).ok_or(TransportError::Timeout)?;
            let stream = TcpStream::connect_timeout(&self.addr, timeout)
                .map_err(|e| TransportError::Connect(e.to_string()))?;
            stream.set_nodelay(true).ok();
            *slot = Some(stream);
        }
        // From here the connection is poisoned unless the reply is read
        // whole: a late or half-read reply would desynchronize call ids.
        let mut reply = TcpReply { slot, worker: &self.worker, sent: request.len(), read: false };
        let stream = reply.slot.as_mut().expect("connected above");
        let timeout = remaining(deadline).ok_or(TransportError::Timeout)?;
        stream.set_write_timeout(Some(timeout)).ok();
        use std::io::Write;
        stream.write_all(request).map_err(|e| {
            if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) {
                TransportError::Timeout
            } else {
                TransportError::ConnectionLost(e.to_string())
            }
        })?;
        Ok(Box::new(reply))
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }
}

/// A request written to the cached connection. It holds the connection's
/// lock until the reply is read or given up on, so nothing else can write
/// to, or read from, the stream in between.
struct TcpReply<'a> {
    slot: MutexGuard<'a, Option<TcpStream>>,
    worker: &'a str,
    sent: usize,
    read: bool,
}

impl PendingReply for TcpReply<'_> {
    fn receive(mut self: Box<Self>, deadline: Instant) -> Result<Frame, TransportError> {
        let stream = self.slot.as_mut().expect("send left the connection in place");
        let timeout = remaining(deadline).ok_or(TransportError::Timeout)?;
        stream.set_read_timeout(Some(timeout)).ok();
        let (reply, reply_bytes) = read_frame(stream, false)
            .map_err(|e| match e {
                WireError::TimedOut => TransportError::Timeout,
                WireError::Disconnected(msg) => TransportError::ConnectionLost(msg),
                other => TransportError::Wire(other),
            })?
            .ok_or_else(|| TransportError::ConnectionLost("eof".to_string()))?;
        count_bytes(self.worker, self.sent, reply_bytes);
        self.read = true;
        Ok(reply)
    }
}

impl Drop for TcpReply<'_> {
    fn drop(&mut self) {
        if !self.read {
            *self.slot = None;
        }
    }
}

/// Spawn a TCP worker: bind `127.0.0.1:0`, serve connections until killed
/// or a shutdown request arrives. Each connection gets its own thread;
/// state is shared behind the handler's own synchronization.
pub(crate) fn spawn_tcp(
    name: &str,
    handler: impl Fn(Frame) -> (Frame, bool) + Send + Sync + 'static,
) -> std::io::Result<(TcpTransport, WorkerControl)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let kill = Arc::new(AtomicBool::new(false));
    let kill_srv = kill.clone();
    let handler = Arc::new(handler);
    let name_owned = name.to_string();
    let join = std::thread::Builder::new()
        .name(format!("tfe-worker-{name}"))
        .spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            loop {
                if kill_srv.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let kill_conn = kill_srv.clone();
                        let handler = handler.clone();
                        let label = format!("tfe-worker-{name_owned}-conn");
                        let h = std::thread::Builder::new()
                            .name(label)
                            .spawn(move || serve_connection(stream, &kill_conn, &*handler))
                            .expect("spawn worker connection");
                        conns.push(h);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL);
                    }
                    Err(_) => break,
                }
            }
            // Listener drops here: new connects are refused. Join the
            // connection threads; they poll the same kill flag.
            for h in conns {
                let _ = h.join();
            }
        })
        .expect("spawn tcp worker");
    Ok((
        TcpTransport::new(addr, name.to_string()),
        WorkerControl { kill, join: Some(join), addr: Some(addr) },
    ))
}

fn serve_connection(
    stream: TcpStream,
    kill: &AtomicBool,
    handler: &(dyn Fn(Frame) -> (Frame, bool) + Send + Sync),
) {
    let mut stream = stream;
    stream.set_read_timeout(Some(POLL)).ok();
    stream.set_nodelay(true).ok();
    loop {
        if kill.load(Ordering::SeqCst) {
            return; // drop the stream mid-whatever: abrupt death
        }
        match read_frame(&mut stream, true) {
            Ok(None) => continue, // idle poll tick: no request yet
            Ok(Some((frame, _))) => {
                let (reply, shutdown) = handler(frame);
                if kill.load(Ordering::SeqCst) && !shutdown {
                    return;
                }
                stream.set_write_timeout(Some(Duration::from_secs(5))).ok();
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
                if shutdown {
                    kill.store(true, Ordering::SeqCst);
                    return;
                }
            }
            Err(WireError::TimedOut) => return, // torn frame: give up on conn
            Err(_) => return,                   // disconnect or garbage
        }
    }
}
