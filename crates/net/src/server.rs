//! The TCP server runtime: accept loop, bounded connection pool, admission
//! control, framed per-connection protocol loop, graceful drain.
//!
//! # Threading model
//!
//! ```text
//!  accept thread                 connection pool (conn_threads threads)
//!  ─────────────                 ──────────────────────────────────────
//!  TcpListener::accept ──▶ mpsc queue ──▶ handler takes one connection,
//!                                         runs its framed request loop to
//!                                         completion (EOF / error / reap /
//!                                         shutdown), then takes the next
//!                                         queued connection
//!
//!  each prediction ──▶ admission gate ──▶ ff_serve::Server micro-batch
//!                                         queue ──▶ reply frame
//! ```
//!
//! The pool bounds concurrent connections at [`NetConfig::conn_threads`];
//! further accepted connections wait in the queue, unserviced — that is the
//! **backpressure** story for connections, and the kernel's listen backlog
//! bounds the rest. Prediction *work* is bounded separately by the
//! [`AdmissionGate`]: rows admitted but not yet replied to may not exceed
//! [`AdmissionConfig::max_in_flight_rows`], and the excess is refused
//! immediately with a typed `Overloaded` error carrying a retry-after hint
//! instead of queuing toward collapse. Requests whose
//! deadline budget has already expired are refused (`DeadlineExceeded`)
//! before they cost a GEMM slot, and the micro-batcher sheds requests whose
//! deadline expires while queued. Control frames (Stats/Health/Shutdown)
//! bypass the gate so operators keep visibility during overload.
//!
//! Within a connection, requests are handled strictly in order (which is
//! what lets clients pipeline without correlation bookkeeping), but every
//! prediction is funneled into the shared [`ff_serve::Server`]
//! micro-batcher, so rows from *different* connections coalesce into the
//! same GEMM batches — batching semantics and per-row quantization are
//! exactly those of in-process serving, and answers are bit-identical to
//! direct [`FrozenModel`] calls.
//!
//! Connections that stop making byte progress — idle between frames *or*
//! stalled mid-frame — are reaped after [`NetConfig::idle_timeout`], so a
//! slow-loris peer (or a wedged NAT) cannot pin a pool slot forever.
//!
//! A frame that fails to decode — including one written at any `FF8P`
//! version other than the live one — is answered with one typed `Protocol`
//! error and the stream is closed.
//!
//! # Shutdown: two-phase drain
//!
//! [`NetServer::shutdown`] (or a client's `Shutdown` frame) moves the
//! server `Running → Draining → Stopped`:
//!
//! 1. **Draining** — the accept loop stops accepting; open connections keep
//!    their protocol loop: in-flight predictions finish and their replies
//!    are written, control frames still work (`Health` reports the draining
//!    state), but *new* predictions are refused with a typed `Draining`
//!    error. The accept thread supervises the drain: it waits until the
//!    admission gate is empty or [`NetConfig::drain_budget`] elapses.
//! 2. **Stopped** — handlers close their connections (between frames, at
//!    EOF, or at the next read-timeout tick), the pool drains, and the
//!    micro-batching engine is shut down last, answering everything still
//!    in flight.

use crate::admission::{AdmissionConfig, AdmissionGate, AdmitError};
use crate::auth::AuthPolicy;
use crate::protocol::{
    decode_frame_meta, write_frame_meta, Frame, FrameMeta, WireHealthState, WireMode,
    DEFAULT_MAX_FRAME_BYTES, FRAME_KIND_COUNT,
};
use crate::{ErrorCode, NetError, Result};
use ff_metrics::Counter;
use ff_serve::{
    FrozenModel, MetricsRegistry, ModelRegistry, ServeConfig, ServeError, ServeHandle, ServeMode,
    Server, SharedHistogram, ShedCounters, Stage, TraceHandle,
};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Network front-end configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Connection-handler threads — the bound on concurrently serviced
    /// connections (excess connections queue unserviced).
    pub conn_threads: usize,
    /// Per-connection read timeout. Doubles as the shutdown/reap poll
    /// period for idle connections, so keep it finite.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Reap a connection after this long without byte progress — idle
    /// between frames or stalled mid-frame — so slow peers cannot pin pool
    /// slots (slow-loris defense). Must be at least `read_timeout`.
    pub idle_timeout: Duration,
    /// How long a graceful shutdown waits for admitted predictions to
    /// finish before closing connections anyway.
    pub drain_budget: Duration,
    /// Upper bound on one frame's length, both directions.
    pub max_frame_bytes: usize,
    /// Admission-control sizing and overload policy.
    pub admission: AdmissionConfig,
    /// Bearer-token auth for predictions and shutdown (default: open — no
    /// tokens required).
    pub auth: AuthPolicy,
    /// Configuration of the inner micro-batching engine.
    pub serve: ServeConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            conn_threads: 4,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            drain_budget: Duration::from_secs(5),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            admission: AdmissionConfig::default(),
            auth: AuthPolicy::default(),
            serve: ServeConfig::default(),
        }
    }
}

/// Server lifecycle phases; transitions are monotonic.
const PHASE_RUNNING: u8 = 0;
const PHASE_DRAINING: u8 = 1;
const PHASE_STOPPED: u8 = 2;

struct NetShared {
    handle: ServeHandle,
    config: NetConfig,
    /// The live auth policy. Seeded from `config.auth`, replaced atomically
    /// by [`NetServer::set_auth`]; each connection snapshots it once at
    /// accept time, so in-flight connections finish under the policy they
    /// started with while every new connection sees the rotated tokens.
    auth: RwLock<Arc<AuthPolicy>>,
    phase: AtomicU8,
    local_addr: SocketAddr,
    gate: AdmissionGate,
    counters: ShedCounters,
    /// The engine's `serve.stage.write_ns` histogram: the reply writers
    /// record each prediction reply's encode time here so wire clients see
    /// all four stages in one `StatsReply`.
    write_stage: SharedHistogram,
    /// Per-kind frame/byte accounting for everything crossing the wire,
    /// both directions (`net.wire.<kind>.{frames,bytes}`), plus the send
    /// side of the reply writers.
    wire: WireCounters,
}

/// Pre-minted per-kind wire counters: the hot path is two atomic adds per
/// frame, with no registry lookup and no lock. Request kinds accumulate on
/// the read path, reply kinds on the write path, so one dense set covers
/// both directions without double counting.
///
/// A reply is accounted once encoded, before its send, so a peer holding
/// the reply already sees it counted. What the send itself costs is
/// observed after it: `net.reply.send_ns` times each prediction reply's
/// socket write, and `net.reply.unsent` counts the accounted replies whose
/// write failed (the connection closes after the first).
#[derive(Clone)]
struct WireCounters {
    frames: Vec<Counter>,
    bytes: Vec<Counter>,
    send: SharedHistogram,
    unsent: Counter,
}

impl WireCounters {
    fn new(metrics: &MetricsRegistry) -> Self {
        let mut frames = Vec::with_capacity(FRAME_KIND_COUNT);
        let mut bytes = Vec::with_capacity(FRAME_KIND_COUNT);
        for name in Frame::kind_names() {
            frames.push(metrics.counter(&format!("net.wire.{name}.frames")));
            bytes.push(metrics.counter(&format!("net.wire.{name}.bytes")));
        }
        WireCounters {
            frames,
            bytes,
            send: metrics.histogram("net.reply.send_ns"),
            unsent: metrics.counter("net.reply.unsent"),
        }
    }

    /// Accounts one frame of `kind_index`. `wire_bytes` is the full
    /// on-the-wire size including the 4-byte length prefix.
    fn account(&self, kind_index: usize, wire_bytes: u64) {
        self.frames[kind_index].inc();
        self.bytes[kind_index].add(wire_bytes);
    }
}

impl NetShared {
    /// The auth policy for a connection starting now.
    fn auth_snapshot(&self) -> Arc<AuthPolicy> {
        match self.auth.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    fn phase(&self) -> u8 {
        self.phase.load(Ordering::Acquire)
    }

    /// Advances the lifecycle phase, never backwards.
    fn advance_phase(&self, to: u8) {
        self.phase.fetch_max(to, Ordering::AcqRel);
    }
}

/// A running TCP inference server wrapping a [`ff_serve::Server`].
///
/// # Examples
///
/// ```
/// use ff_models::small_mlp;
/// use ff_net::{Client, NetConfig, NetServer};
/// use ff_serve::FrozenModel;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = FrozenModel::freeze(&small_mlp(12, &[8], 4, &mut rng), 4)?;
/// let server = NetServer::bind(model, "127.0.0.1:0", NetConfig::default())?;
///
/// let mut client = Client::connect(server.local_addr())?;
/// let label = client.predict(&[0.5; 12])?;
/// assert!(label < 4);
/// client.close();
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct NetServer {
    shared: Arc<NetShared>,
    accept: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
    engine: Option<Server>,
}

impl NetServer {
    /// Starts the inner micro-batching engine, binds `addr` (use port 0 for
    /// an ephemeral port) and spawns the accept loop plus the connection
    /// pool.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Frame`] for an unusable configuration (zero
    /// `conn_threads`, a zero frame limit, zero timeouts, an `idle_timeout`
    /// below `read_timeout`, or a zero admission budget), [`NetError::Io`]
    /// when the bind fails, and engine-start errors rendered as
    /// [`NetError::Remote`] with [`ErrorCode::Internal`].
    pub fn bind(model: FrozenModel, addr: impl ToSocketAddrs, config: NetConfig) -> Result<Self> {
        Self::bind_registry(ModelRegistry::new(model), addr, config)
    }

    /// Like [`NetServer::bind`], but fronting a whole [`ModelRegistry`]:
    /// requests route by the model id carried in their frame header,
    /// every model shares the one micro-batcher and admission gate, and
    /// entries can be hot-swapped under live traffic via the registry
    /// handle ([`NetServer::handle`] →
    /// [`ff_serve::ServeHandle::registry`]).
    ///
    /// # Errors
    ///
    /// Exactly those of [`NetServer::bind`].
    pub fn bind_registry(
        registry: ModelRegistry,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> Result<Self> {
        if config.conn_threads == 0 {
            return Err(NetError::Frame {
                message: "config.conn_threads must be positive".to_string(),
            });
        }
        if config.max_frame_bytes < 64 {
            return Err(NetError::Frame {
                message: "config.max_frame_bytes must be at least 64".to_string(),
            });
        }
        if config.read_timeout.is_zero() || config.write_timeout.is_zero() {
            return Err(NetError::Frame {
                message: "config timeouts must be positive".to_string(),
            });
        }
        if config.idle_timeout < config.read_timeout {
            return Err(NetError::Frame {
                message: "config.idle_timeout must be at least config.read_timeout".to_string(),
            });
        }
        if config.admission.max_in_flight_rows == 0 {
            return Err(NetError::Frame {
                message: "config.admission.max_in_flight_rows must be positive".to_string(),
            });
        }
        let engine = Server::start_registry(registry, config.serve).map_err(serve_to_net)?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let admission = config.admission;
        let shared = Arc::new(NetShared {
            handle: engine.handle(),
            counters: engine.handle().shed_counters(),
            write_stage: engine.handle().stage_histograms().write,
            wire: WireCounters::new(&engine.handle().metrics()),
            auth: RwLock::new(Arc::new(config.auth.clone())),
            config,
            phase: AtomicU8::new(PHASE_RUNNING),
            local_addr,
            gate: AdmissionGate::new(admission),
        });
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let handlers = (0..shared.config.conn_threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let conn_rx = Arc::clone(&conn_rx);
                std::thread::Builder::new()
                    .name(format!("ff-net-conn-{index}"))
                    .spawn(move || handler_loop(&shared, &conn_rx))
                    .expect("spawning a named handler thread cannot fail")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ff-net-accept".to_string())
                .spawn(move || accept_loop(&shared, &listener, conn_tx))
                .expect("spawning the accept thread cannot fail")
        };
        Ok(NetServer {
            shared,
            accept: Some(accept),
            handlers,
            engine: Some(engine),
        })
    }

    /// The address the server is listening on (the resolved ephemeral port
    /// when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// An in-process handle onto the inner micro-batching engine — the
    /// zero-copy path for co-located callers, and what parity tests compare
    /// network answers against.
    pub fn handle(&self) -> ServeHandle {
        self.shared.handle.clone()
    }

    /// Replaces the auth policy without restarting the server — token
    /// rotation for a live fleet.
    ///
    /// The swap is atomic at connection granularity: connections accepted
    /// after this call authenticate every frame against `policy`, while
    /// connections already in flight finish under the policy they were
    /// accepted with (a rotation never cuts off a request stream
    /// mid-conversation). To *revoke* instantly as well, rotate and then
    /// drain: existing connections expire at the idle timeout.
    pub fn set_auth(&self, policy: AuthPolicy) {
        match self.shared.auth.write() {
            Ok(mut slot) => *slot = Arc::new(policy),
            Err(poisoned) => *poisoned.into_inner() = Arc::new(policy),
        }
    }

    /// `true` once a shutdown (local or via a `Shutdown` frame) has been
    /// requested — the server is draining or already stopped.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.phase() >= PHASE_DRAINING
    }

    /// Gracefully stops the server: drain, then close, then shut the
    /// inference engine down.
    ///
    /// The drain phase stops accepting connections and refuses new
    /// predictions with typed `Draining` errors while admitted work
    /// finishes and its replies are written — bounded by
    /// [`NetConfig::drain_budget`]. Connections then close between frames,
    /// at EOF, or at the next read-timeout tick, so the close phase takes
    /// at most one [`NetConfig::read_timeout`] beyond the drain.
    pub fn shutdown(mut self) {
        request_drain(&self.shared);
        if let Some(accept) = self.accept.take() {
            if let Err(panic) = accept.join() {
                std::panic::resume_unwind(panic);
            }
        }
        for handler in self.handlers.drain(..) {
            if let Err(panic) = handler.join() {
                std::panic::resume_unwind(panic);
            }
        }
        if let Some(engine) = self.engine.take() {
            engine.shutdown();
        }
    }
}

/// Starts the drain phase and wakes the accept loop with a loopback
/// connection; the accept thread supervises the rest of the drain.
fn request_drain(shared: &NetShared) {
    if shared
        .phase
        .compare_exchange(
            PHASE_RUNNING,
            PHASE_DRAINING,
            Ordering::AcqRel,
            Ordering::Acquire,
        )
        .is_err()
    {
        return; // already draining or stopped; the nudge was sent
    }
    // A throwaway connection unblocks `TcpListener::accept`; the loop then
    // observes the phase and starts supervising the drain. Failure is fine —
    // the listener may already be gone.
    let _ = TcpStream::connect(shared.local_addr);
}

/// Accepts connections while running, then supervises the drain: waits for
/// the admission gate to empty (or the drain budget to expire) and flips
/// the server to `Stopped`. Dropping `conn_tx` on exit drains the handler
/// pool.
fn accept_loop(shared: &NetShared, listener: &TcpListener, conn_tx: mpsc::Sender<TcpStream>) {
    while shared.phase() == PHASE_RUNNING {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.phase() != PHASE_RUNNING {
                    break; // the shutdown nudge (or a late connection)
                }
                if conn_tx.send(stream).is_err() {
                    break;
                }
            }
            Err(_) => {
                // Transient accept errors (aborted handshakes) are retried;
                // a phase change still wins via the loop condition.
            }
        }
    }
    let deadline = Instant::now() + shared.config.drain_budget;
    while shared.phase() < PHASE_STOPPED
        && shared.gate.in_flight_rows() > 0
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    shared.advance_phase(PHASE_STOPPED);
}

/// One pool thread: service queued connections until the queue closes.
fn handler_loop(shared: &NetShared, conn_rx: &Arc<Mutex<Receiver<TcpStream>>>) {
    loop {
        // Take ONE connection while holding the lock, then release it so
        // sibling handlers can pick up further connections concurrently.
        let stream = {
            let queue = conn_rx.lock().expect("connection queue lock");
            match queue.recv() {
                Ok(stream) => stream,
                Err(_) => return, // accept loop gone and queue drained
            }
        };
        // Per-connection failures never take the handler down.
        let _ = serve_connection(shared, stream);
        if shared.phase() == PHASE_STOPPED {
            return;
        }
    }
}

/// What the connection's reader hands its reply writer, in request order.
/// Every variant carries the header meta to echo (the request's model id —
/// never the auth token).
enum Outgoing {
    /// A reply that is already complete (stats, health, errors, acks).
    Ready { frame: Frame, meta: FrameMeta },
    /// Predictions already submitted to the micro-batcher; the writer waits
    /// for them, builds the `Labels` (or error) reply, and releases the
    /// admission permit once the reply is written.
    Deferred {
        id: u64,
        meta: FrameMeta,
        pendings: Vec<ff_serve::PendingPrediction>,
        permit: crate::admission::Permit,
        /// The request's trace, when sampled: the writer stamps
        /// [`Stage::ReplyWritten`] once the reply bytes hit the socket, and
        /// the last handle drop commits the trace to the flight recorder.
        trace: Option<TraceHandle>,
    },
}

/// Runs one connection's framed request loop to completion.
///
/// The loop is split across two threads so clients can **pipeline**: the
/// reader decodes frames and *submits* predictions to the micro-batcher
/// without waiting ([`ff_serve::ServeHandle::submit`]), while a
/// per-connection writer thread awaits the pending replies **in request
/// order** and writes them back. A wave of pipelined `Predict` frames is
/// therefore entirely in the batch queue before the first reply is due —
/// rows from one wave (and from other connections) coalesce into shared
/// GEMM batches instead of being served one blocking call at a time.
fn serve_connection(shared: &NetShared, stream: TcpStream) -> Result<()> {
    let max = shared.config.max_frame_bytes;
    // One policy per connection lifetime: a concurrent `set_auth` affects
    // connections accepted after it, never a request stream mid-flight.
    let auth = shared.auth_snapshot();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(shared.config.read_timeout))?;
    stream.set_write_timeout(Some(shared.config.write_timeout))?;
    let mut reader = std::io::BufReader::new(stream.try_clone()?);
    // Unbuffered: the reply writer hands each encoded frame to one
    // `write_all`.
    let writer = stream;

    let (out_tx, out_rx) = mpsc::channel::<Outgoing>();
    let writer_alive = Arc::new(AtomicBool::new(true));
    let writer_thread = {
        let alive = Arc::clone(&writer_alive);
        std::thread::Builder::new()
            .name("ff-net-reply".to_string())
            .spawn({
                let write_stage = shared.write_stage.clone();
                let wire = shared.wire.clone();
                move || reply_writer_loop(writer, out_rx, max, &alive, &write_stage, &wire)
            })
            .expect("spawning the reply writer cannot fail")
    };
    let outcome = connection_reader_loop(shared, &auth, &mut reader, &out_tx, &writer_alive);
    drop(out_tx); // writer drains queued replies, then exits
    if let Err(panic) = writer_thread.join() {
        std::panic::resume_unwind(panic);
    }
    outcome
}

/// What one attempt to fill a buffer from the socket produced.
enum Fill {
    /// The buffer is completely filled.
    Done,
    /// Clean EOF before the first byte of the buffer.
    Eof,
    /// Read timeout with nothing of this frame consumed — an idle tick the
    /// caller uses to poll the phase and the reap clock.
    Idle,
    /// Shutdown finished (`Stopped`) while a frame was partially read.
    Aborted,
}

/// Fills `buf` from the socket with frame-aware timeout semantics.
///
/// Read timeouts are only an *idle* signal when nothing of the current
/// frame has been consumed (`frame_started == false` and zero bytes
/// filled). Once a frame has started, a timeout means the sender stalled
/// mid-frame — the bytes already consumed must not be discarded, so the
/// read **resumes** (checking the phase each tick) instead of returning;
/// anything else would desynchronize the length-prefixed stream. The
/// resume is bounded: a sender that makes no byte progress for
/// [`NetConfig::idle_timeout`] is reaped with [`NetError::Timeout`] — a
/// slow-loris peer drip-feeding (or abandoning) a frame cannot pin the
/// handler slot beyond that. Shutdown still interrupts a stalled read
/// within one timeout tick.
fn fill_frame_bytes(
    reader: &mut impl std::io::Read,
    buf: &mut [u8],
    shared: &NetShared,
    frame_started: bool,
) -> Result<Fill> {
    let mut filled = 0;
    let mut last_progress = Instant::now();
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && !frame_started {
                    Ok(Fill::Eof)
                } else {
                    Err(NetError::Closed) // EOF mid-frame
                };
            }
            Ok(n) => {
                filled += n;
                last_progress = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if filled == 0 && !frame_started {
                    return Ok(Fill::Idle);
                }
                if shared.phase() == PHASE_STOPPED {
                    return Ok(Fill::Aborted);
                }
                if last_progress.elapsed() >= shared.config.idle_timeout {
                    return Err(NetError::Timeout); // mid-frame stall: reap
                }
                // Mid-frame stall (slow sender / retransmit): resume.
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Fill::Done)
}

/// The reader half of [`serve_connection`].
fn connection_reader_loop(
    shared: &NetShared,
    auth: &AuthPolicy,
    reader: &mut impl std::io::Read,
    out_tx: &mpsc::Sender<Outgoing>,
    writer_alive: &AtomicBool,
) -> Result<()> {
    let max = shared.config.max_frame_bytes;
    let mut last_activity = Instant::now();
    loop {
        if !writer_alive.load(Ordering::Acquire) {
            return Ok(()); // peer stopped reading replies; stop serving it
        }
        let mut len_bytes = [0u8; 4];
        match fill_frame_bytes(reader, &mut len_bytes, shared, false)? {
            Fill::Done => {}
            Fill::Eof | Fill::Aborted => return Ok(()),
            Fill::Idle => {
                if shared.phase() == PHASE_STOPPED {
                    return Ok(()); // shutdown poll tick
                }
                if last_activity.elapsed() >= shared.config.idle_timeout {
                    return Err(NetError::Timeout); // idle reap: free the slot
                }
                continue; // idle connection: keep waiting
            }
        }
        let len = match ff_codec::wire::frame_len(len_bytes, max) {
            Ok(len) => len,
            Err(error) => {
                // The stream cannot be resynchronized past an unread giant
                // frame: answer once, then close.
                let _ = out_tx.send(Outgoing::Ready {
                    frame: Frame::Error {
                        id: 0,
                        code: ErrorCode::FrameTooLarge,
                        retry_after_millis: 0,
                        message: error.to_string(),
                    },
                    meta: FrameMeta::default(),
                });
                return Ok(());
            }
        };
        let mut bytes = vec![0u8; len];
        match fill_frame_bytes(reader, &mut bytes, shared, true)? {
            Fill::Done => {}
            Fill::Eof | Fill::Idle | Fill::Aborted => return Ok(()),
        }
        last_activity = Instant::now();
        let (frame, meta) = match decode_frame_meta(&bytes) {
            Ok((frame, meta)) => {
                shared
                    .wire
                    .account(frame.kind_index(), bytes.len() as u64 + 4);
                (frame, meta)
            }
            Err(error) => {
                let _ = out_tx.send(Outgoing::Ready {
                    frame: Frame::Error {
                        id: 0,
                        code: ErrorCode::Protocol,
                        retry_after_millis: 0,
                        message: error.to_string(),
                    },
                    meta: FrameMeta::default(),
                });
                return Ok(());
            }
        };
        let outgoing = handle_request(shared, auth, frame, &meta);
        // Only an *acknowledged* shutdown drains the server — an
        // unauthenticated Shutdown frame is answered `Unauthorized` and
        // changes nothing. The drain flag flips BEFORE the ack is handed
        // to the writer: the moment a client reads the ack,
        // `is_shutting_down()` is already true.
        let shutdown_after = matches!(
            &outgoing,
            Outgoing::Ready {
                frame: Frame::ShutdownAck { .. },
                ..
            }
        );
        if shutdown_after {
            request_drain(shared);
        }
        if out_tx.send(outgoing).is_err() {
            return Ok(()); // writer gone (write failure): close
        }
        if shutdown_after {
            return Ok(());
        }
        if shared.phase() == PHASE_STOPPED {
            // A busy connection must notice the stop between frames, not
            // only on idle ticks — already-submitted replies still drain
            // through the writer before the socket closes.
            return Ok(());
        }
    }
}

/// The writer half of [`serve_connection`]: awaits deferred predictions in
/// request order, writes every reply frame, and releases admission permits
/// once their reply is on the wire.
fn reply_writer_loop(
    mut writer: impl std::io::Write,
    out_rx: mpsc::Receiver<Outgoing>,
    max_frame_bytes: usize,
    alive: &AtomicBool,
    write_stage: &SharedHistogram,
    wire: &WireCounters,
) {
    for outgoing in out_rx {
        let (frame, meta, permit, trace) = match outgoing {
            Outgoing::Ready { frame, meta } => (frame, meta, None, None),
            Outgoing::Deferred {
                id,
                meta,
                pendings,
                permit,
                trace,
            } => {
                let mut labels = Vec::with_capacity(pendings.len());
                let mut first_error = None;
                for pending in pendings {
                    match pending.wait() {
                        Ok(prediction) => labels.push(prediction.label as u32),
                        Err(error) => {
                            first_error.get_or_insert(error);
                        }
                    }
                }
                let frame = match first_error {
                    None => Frame::Labels { id, labels },
                    Some(error) => error_reply(id, &error),
                };
                (frame, meta, Some(permit), Some(trace))
            }
        };
        // A reply never precedes its own bookkeeping: the frame is encoded
        // into memory, and its wire accounting, write stage, ReplyWritten
        // stamp and trace commit (the writer holds the last handle) all
        // land before the one socket write. The write stage therefore
        // measures serialization; the send is timed after it, apart.
        let write_start = trace.is_some().then(Instant::now);
        let mut bytes = Vec::new();
        let encoded = write_frame_meta(&mut bytes, &frame, &meta, max_frame_bytes);
        if let Ok(written) = &encoded {
            wire.account(frame.kind_index(), *written as u64);
            if let Some(start) = write_start {
                write_stage.record(start.elapsed());
                if let Some(trace) = trace.flatten() {
                    trace.stamp(Stage::ReplyWritten);
                }
            }
        }
        let send_start = write_start.map(|_| Instant::now());
        let sent = encoded.is_ok()
            && writer
                .write_all(&bytes)
                .and_then(|()| writer.flush())
                .is_ok();
        if let (true, Some(start)) = (sent, send_start) {
            wire.send.record(start.elapsed());
        }
        if encoded.is_ok() && !sent {
            wire.unsent.inc();
        }
        // The admission slot is held until the reply hit the socket (or the
        // peer proved unreachable); dropping the channel on early exit
        // releases the permits of any still-queued replies.
        drop(permit);
        if !sent {
            break; // peer gone; reader observes `alive` and closes
        }
    }
    alive.store(false, Ordering::Release);
}

/// Saturating conversion for the wire's `u32` retry-after hint.
fn retry_hint_millis(hint: Duration) -> u32 {
    hint.as_millis().min(u32::MAX as u128) as u32
}

/// Turns one request frame into its outgoing reply, submitting predictions
/// to the micro-batcher without blocking (replies never fail to build;
/// engine errors become typed error frames).
///
/// `meta` is the request's decoded header: predictions are authorized
/// against its auth token and routed to its model id, `Health` reports the
/// addressed model, and `Shutdown` must authenticate. Replies echo the
/// model id (never the token).
///
/// Predictions pass the admission gate first; refusals are answered with
/// machine-readable `Overloaded` / `DeadlineExceeded` / `Draining` codes so
/// clients can distinguish "retry later" from "give up".
fn handle_request(
    shared: &NetShared,
    auth: &AuthPolicy,
    frame: Frame,
    meta: &FrameMeta,
) -> Outgoing {
    let id = frame.id();
    let reply_meta = FrameMeta::for_model(meta.model_id);
    match frame {
        Frame::Predict {
            id,
            deadline_micros,
            features,
        } => submit_prediction(
            shared,
            auth,
            id,
            meta,
            deadline_micros,
            Payload {
                features: &features,
                rows: 1,
            },
        ),
        Frame::PredictBatch {
            id,
            deadline_micros,
            cols,
            data,
        } => {
            let rows = data.len() / cols as usize;
            submit_prediction(
                shared,
                auth,
                id,
                meta,
                deadline_micros,
                Payload {
                    features: &data,
                    rows,
                },
            )
        }
        // Stats and Health stay open (see `crate::auth`): they carry no
        // tenant data and are what dashboards and load balancers poll.
        Frame::Stats { id } => Outgoing::Ready {
            frame: Frame::StatsReply {
                id,
                stats: Box::new(shared.handle.stats().into()),
            },
            meta: reply_meta,
        },
        Frame::Health { id } => {
            let snapshot = match shared.handle.resolve(meta.model_id) {
                Ok(snapshot) => snapshot,
                Err(error) => {
                    return Outgoing::Ready {
                        frame: error_reply(id, &error),
                        meta: reply_meta,
                    }
                }
            };
            Outgoing::Ready {
                frame: Frame::HealthReply {
                    id,
                    input_features: snapshot.model().input_features() as u32,
                    num_classes: snapshot.model().num_classes() as u32,
                    model_version: snapshot.entry().version(),
                    mode: match shared.config.serve.mode {
                        ServeMode::Logits => WireMode::Logits,
                        ServeMode::Goodness => WireMode::Goodness,
                    },
                    state: if shared.phase() >= PHASE_DRAINING {
                        WireHealthState::Draining
                    } else {
                        WireHealthState::Ok
                    },
                },
                meta: reply_meta,
            }
        }
        // Like Stats/Health, the observability dumps stay open: traces and
        // metrics carry operational timings, not tenant payloads.
        Frame::TraceDump { id, max } => {
            let recorder = shared.handle.flight_recorder();
            Outgoing::Ready {
                frame: Frame::TraceDumpReply {
                    id,
                    dropped: recorder.dropped(),
                    traces: recorder.recent(max as usize),
                },
                meta: reply_meta,
            }
        }
        Frame::MetricsDump { id } => Outgoing::Ready {
            frame: Frame::MetricsDumpReply {
                id,
                text: shared.handle.metrics().expose(),
            },
            meta: reply_meta,
        },
        Frame::Shutdown { id } => {
            if !auth.authenticate(meta.token.as_deref()) {
                return unauthorized_reply(id, reply_meta);
            }
            Outgoing::Ready {
                frame: Frame::ShutdownAck { id },
                meta: reply_meta,
            }
        }
        // A reply frame arriving at the server is a protocol violation.
        other => Outgoing::Ready {
            frame: Frame::Error {
                id,
                code: ErrorCode::Protocol,
                retry_after_millis: 0,
                message: format!("server received a non-request frame ({other:?})"),
            },
            meta: reply_meta,
        },
    }
}

/// The `Unauthorized` refusal. The message deliberately names neither the
/// presented token nor which configured token was closest.
fn unauthorized_reply(id: u64, meta: FrameMeta) -> Outgoing {
    Outgoing::Ready {
        frame: Frame::Error {
            id,
            code: ErrorCode::Unauthorized,
            retry_after_millis: 0,
            message: "missing or invalid auth token".to_string(),
        },
        meta,
    }
}

/// Authorizes, routes, admission-gates and submits `rows` rows of features
/// row-by-row to the micro-batcher, stamping each with the request's
/// deadline.
///
/// The model snapshot is resolved **once** and every row submitted against
/// it, so one request's rows are all answered by the same model epoch even
/// if the entry is hot-swapped mid-request. Rejections bump both the global
/// shed counters and the addressed model's.
/// The feature rows of one `Predict`/`PredictBatch` request.
struct Payload<'a> {
    features: &'a [f32],
    rows: usize,
}

fn submit_prediction(
    shared: &NetShared,
    auth: &AuthPolicy,
    id: u64,
    meta: &FrameMeta,
    deadline_micros: u32,
    payload: Payload<'_>,
) -> Outgoing {
    let Payload { features, rows } = payload;
    let reply_meta = FrameMeta::for_model(meta.model_id);
    // The trace starts at the top of request handling — refused requests
    // drop it unstamped past Recv, committing (flagged incomplete) only if
    // they were sampled or slow.
    let trace = shared.handle.begin_trace(meta.model_id);
    // Auth precedes existence: an unauthorized peer probing ids learns
    // nothing about which models are registered.
    if !auth.authorize(meta.token.as_deref(), meta.model_id) {
        return unauthorized_reply(id, reply_meta);
    }
    let deadline = (deadline_micros > 0)
        .then(|| Instant::now() + Duration::from_micros(deadline_micros.into()));
    if shared.phase() >= PHASE_DRAINING {
        return Outgoing::Ready {
            frame: Frame::Error {
                id,
                code: ErrorCode::Draining,
                retry_after_millis: retry_hint_millis(shared.config.drain_budget),
                message: "server is draining; retry against a live instance".to_string(),
            },
            meta: reply_meta,
        };
    }
    let snapshot = match shared.handle.resolve(meta.model_id) {
        Ok(snapshot) => snapshot,
        Err(error) => {
            return Outgoing::Ready {
                frame: error_reply(id, &error),
                meta: reply_meta,
            }
        }
    };
    let permit = match shared.gate.try_admit(rows, deadline) {
        Ok(permit) => permit,
        Err(AdmitError::Overloaded { retry_after }) => {
            shared.counters.rejected_overload.inc();
            snapshot.entry().shed_counters().rejected_overload.inc();
            return Outgoing::Ready {
                frame: Frame::Error {
                    id,
                    code: ErrorCode::Overloaded,
                    retry_after_millis: retry_hint_millis(retry_after),
                    message: format!(
                        "admission queue full ({} rows in flight)",
                        shared.config.admission.max_in_flight_rows
                    ),
                },
                meta: reply_meta,
            };
        }
        Err(AdmitError::DeadlineExpired) => {
            shared.counters.rejected_deadline.inc();
            snapshot.entry().shed_counters().rejected_deadline.inc();
            return Outgoing::Ready {
                frame: Frame::Error {
                    id,
                    code: ErrorCode::DeadlineExceeded,
                    retry_after_millis: 0,
                    message: "deadline budget expired before admission".to_string(),
                },
                meta: reply_meta,
            };
        }
    };
    if let Some(trace) = &trace {
        trace.stamp(Stage::Admit);
        if let Some(deadline) = deadline {
            let now = Instant::now();
            match deadline.checked_duration_since(now) {
                Some(remaining) => trace.set_deadline_remaining(remaining, false),
                None => trace.set_deadline_remaining(now.duration_since(deadline), true),
            }
        }
    }
    let cols = features.len() / rows;
    let mut pendings = Vec::with_capacity(rows);
    for row in features.chunks_exact(cols) {
        match shared
            .handle
            .submit_snapshot_traced(&snapshot, row, deadline, trace.clone())
        {
            Ok(pending) => pendings.push(pending),
            // The permit drops here, releasing the partial admission.
            Err(error) => {
                return Outgoing::Ready {
                    frame: error_reply(id, &error),
                    meta: reply_meta,
                }
            }
        }
    }
    Outgoing::Deferred {
        id,
        meta: reply_meta,
        pendings,
        permit,
        trace,
    }
}

fn error_reply(id: u64, error: &ServeError) -> Frame {
    let code = match error {
        ServeError::BadRequest { .. } => ErrorCode::BadRequest,
        ServeError::UnknownModel { .. } => ErrorCode::UnknownModel,
        ServeError::ServerClosed => ErrorCode::ServerClosed,
        ServeError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        _ => ErrorCode::Internal,
    };
    Frame::Error {
        id,
        code,
        retry_after_millis: 0,
        message: error.to_string(),
    }
}

fn serve_to_net(error: ServeError) -> NetError {
    NetError::Remote {
        code: ErrorCode::Internal,
        message: error.to_string(),
        retry_after: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::OverloadPolicy;
    use ff_models::small_mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> FrozenModel {
        let mut rng = StdRng::seed_from_u64(5);
        FrozenModel::freeze(&small_mlp(8, &[6], 3, &mut rng), 3).unwrap()
    }

    #[test]
    fn bind_validates_config() {
        for bad in [
            NetConfig {
                conn_threads: 0,
                ..NetConfig::default()
            },
            NetConfig {
                max_frame_bytes: 8,
                ..NetConfig::default()
            },
            NetConfig {
                read_timeout: Duration::ZERO,
                ..NetConfig::default()
            },
            NetConfig {
                idle_timeout: Duration::from_millis(1),
                ..NetConfig::default()
            },
            NetConfig {
                admission: AdmissionConfig {
                    max_in_flight_rows: 0,
                    policy: OverloadPolicy::RejectNew,
                    retry_after: Duration::from_millis(1),
                },
                ..NetConfig::default()
            },
        ] {
            assert!(NetServer::bind(model(), "127.0.0.1:0", bad).is_err());
        }
    }

    #[test]
    fn binds_an_ephemeral_port_and_shuts_down() {
        let server = NetServer::bind(model(), "127.0.0.1:0", NetConfig::default()).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        assert!(!server.is_shutting_down());
        // The in-process handle answers without any socket.
        assert!(server.handle().predict(&[0.1; 8]).is_ok());
        server.shutdown();
    }

    #[test]
    fn a_reply_whose_send_fails_is_accounted_and_counted_unsent() {
        struct Refuses;
        impl std::io::Write for Refuses {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let metrics = MetricsRegistry::new();
        let wire = WireCounters::new(&metrics);
        let (tx, rx) = mpsc::channel();
        for id in [1, 2] {
            let frame = Frame::ShutdownAck { id };
            let meta = FrameMeta::default();
            tx.send(Outgoing::Ready { frame, meta }).unwrap();
        }
        drop(tx);
        let alive = AtomicBool::new(true);
        let stage = SharedHistogram::new();
        reply_writer_loop(Refuses, rx, DEFAULT_MAX_FRAME_BYTES, &alive, &stage, &wire);
        // The first failed send closes the writer: one reply accounted, one
        // counted unsent, the second never taken.
        assert!(!alive.load(Ordering::Acquire));
        assert_eq!(metrics.counter("net.wire.shutdown_ack.frames").get(), 1);
        assert_eq!(metrics.counter("net.reply.unsent").get(), 1);
    }

    #[test]
    fn retry_hints_saturate() {
        assert_eq!(retry_hint_millis(Duration::from_millis(25)), 25);
        assert_eq!(retry_hint_millis(Duration::from_secs(u64::MAX)), u32::MAX);
    }
}
