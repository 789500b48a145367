//! The blocking `FF8P` client: connect/reconnect, single predictions,
//! one-frame batches, pipelined request waves, deadline stamping and
//! opt-in retries over one connection.

use crate::protocol::{
    read_frame, write_frame_meta, Frame, FrameMeta, WireHealthState, WireMode, WireStats,
    DEFAULT_MAX_FRAME_BYTES, MAX_AUTH_TOKEN_LEN,
};
use crate::retry::RetryPolicy;
use crate::{NetError, Result};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side socket, deadline, addressing and retry configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// How long to wait for a reply before failing with
    /// [`NetError::Timeout`].
    pub read_timeout: Duration,
    /// Per-write timeout.
    pub write_timeout: Duration,
    /// Upper bound on one frame's length, both directions (oversized
    /// requests fail locally before anything hits the wire).
    pub max_frame_bytes: usize,
    /// Per-request latency budget. Each prediction is stamped with the
    /// *remaining* budget when it hits the wire, so the server can refuse
    /// or shed it once an answer would arrive too late; the same budget
    /// bounds retries. `None` (the default) means unbounded.
    pub deadline: Option<Duration>,
    /// Which registry model this client's requests address
    /// ([`ff_serve::DEFAULT_MODEL_ID`] by default). Carried in every
    /// request frame's header; `Health` reports the addressed model too.
    pub model: u16,
    /// Bearer token presented on every request. Required when the server
    /// configured an [`crate::AuthPolicy`]; an unknown token (or `None`
    /// against a closed server) yields [`crate::ErrorCode::Unauthorized`].
    pub token: Option<String>,
    /// Retry policy for idempotent requests (Predict / Stats / Health).
    /// Disabled by default; see [`RetryPolicy::standard`].
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            deadline: None,
            model: ff_serve::DEFAULT_MODEL_ID,
            token: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// The identity a server reports in its health reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// Features a request row must provide.
    pub input_features: usize,
    /// Number of classes the model scores.
    pub num_classes: usize,
    /// Swap generation of the addressed registry model: starts at 1 and
    /// bumps on every hot-swap, so a poller can detect a rollout landing.
    pub model_version: u64,
    /// Classification mode the server runs.
    pub mode: WireMode,
    /// Lifecycle phase: [`WireHealthState::Draining`] once a graceful
    /// shutdown has started.
    pub state: WireHealthState,
}

/// A blocking `FF8P` client over one TCP connection.
///
/// The connection is established lazily and **re-established
/// transparently**: any call that finds the connection gone (never opened,
/// or poisoned by an earlier I/O error) dials again first. An I/O failure
/// mid-call drops the connection and surfaces the error — the *next* call
/// (or the next retry attempt, when a [`RetryPolicy`] is enabled)
/// reconnects, so a restarted server needs no client-side ceremony. Replies
/// are matched to requests by the echoed frame id, and within a connection
/// the server answers strictly in order, which is what makes
/// [`Client::predict_pipelined`] safe.
///
/// With [`ClientConfig::retry`] enabled, idempotent requests (Predict /
/// Stats / Health) that fail **retryably** — transport faults, typed
/// `Overloaded` / `Draining` / `ServerClosed` replies — are retried with
/// seeded exponential backoff and jitter, honoring the server's retry-after
/// hint and giving up once [`ClientConfig::deadline`] could no longer be
/// met. Non-idempotent (`Shutdown`) and non-retryable failures surface
/// immediately.
///
/// See [`crate::NetServer`] for a runnable client/server example.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    connection: Option<Connection>,
    next_id: u64,
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Creates a client for `addr` with default timeouts and connects
    /// eagerly (so a wrong address fails here, not at the first request).
    ///
    /// # Errors
    ///
    /// Address-resolution and connect failures as [`NetError::Io`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// [`Client::connect`] with explicit socket configuration.
    ///
    /// # Errors
    ///
    /// As [`Client::connect`], plus [`NetError::Frame`] when
    /// [`ClientConfig::token`] exceeds the wire's
    /// [`MAX_AUTH_TOKEN_LEN`]-byte bound (checked here, once, so no request
    /// can reach the encoder with a token it must refuse).
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Self> {
        if let Some(token) = &config.token {
            if token.len() > MAX_AUTH_TOKEN_LEN {
                return Err(NetError::Frame {
                    message: format!(
                        "auth token of {} bytes exceeds the {MAX_AUTH_TOKEN_LEN}-byte limit",
                        token.len()
                    ),
                });
            }
        }
        let addr = addr
            .to_socket_addrs()
            .map_err(NetError::from)?
            .next()
            .ok_or_else(|| NetError::Io {
                message: "address resolved to nothing".to_string(),
            })?;
        let mut client = Client {
            addr,
            config,
            connection: None,
            next_id: 1,
        };
        client.reconnect()?;
        Ok(client)
    }

    /// The server address this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drops any current connection and dials a fresh one.
    ///
    /// # Errors
    ///
    /// Connect failures as [`NetError::Io`].
    pub fn reconnect(&mut self) -> Result<()> {
        self.connection = None;
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.config.read_timeout))?;
        stream.set_write_timeout(Some(self.config.write_timeout))?;
        self.connection = Some(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        });
        Ok(())
    }

    /// Closes the connection (the next call would reconnect).
    pub fn close(&mut self) {
        self.connection = None;
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// This request's hard deadline, from [`ClientConfig::deadline`].
    fn request_deadline(&self) -> Option<Instant> {
        self.config.deadline.map(|budget| Instant::now() + budget)
    }

    /// Runs `attempt` under the configured retry policy: retryable
    /// failures back off (seeded jitter, server hint honored) and try
    /// again with a fresh request id; attempts stop when the policy is
    /// exhausted, the failure is not retryable, or the next backoff would
    /// overshoot `deadline`.
    fn retry_loop<T>(
        &mut self,
        deadline: Option<Instant>,
        mut attempt: impl FnMut(&mut Self, Option<Instant>) -> Result<T>,
    ) -> Result<T> {
        let mut schedule = self.config.retry.schedule(self.next_id, deadline);
        loop {
            match attempt(self, deadline) {
                Ok(value) => return Ok(value),
                Err(error) => {
                    if !error.is_retryable() {
                        return Err(error);
                    }
                    match schedule.next_backoff(error.retry_after()) {
                        Some(delay) => std::thread::sleep(delay),
                        None => return Err(error),
                    }
                }
            }
        }
    }

    /// Runs `op` on the live connection, reconnecting first if needed and
    /// poisoning the connection on any error so the next call starts clean.
    fn with_connection<T>(
        &mut self,
        op: impl FnOnce(&mut Connection, &ClientConfig) -> Result<T>,
    ) -> Result<T> {
        if self.connection.is_none() {
            self.reconnect()?;
        }
        let connection = self.connection.as_mut().expect("connection just ensured");
        match op(connection, &self.config) {
            Ok(value) => Ok(value),
            Err(error) => {
                // Remote errors leave the stream synchronized (the error
                // frame WAS the reply); everything else poisons it.
                if !matches!(error, NetError::Remote { .. }) {
                    self.connection = None;
                }
                Err(error)
            }
        }
    }

    /// Sends one request frame and returns the reply with the matching id.
    fn call(&mut self, request: Frame) -> Result<Frame> {
        let id = request.id();
        self.with_connection(|connection, config| {
            write_frame_meta(
                &mut connection.writer,
                &request,
                &request_meta(config),
                config.max_frame_bytes,
            )?;
            expect_reply(connection, config, id)
        })
    }

    /// Classifies one sample and returns its label.
    ///
    /// # Errors
    ///
    /// Socket-level [`NetError`]s, or [`NetError::Remote`] carrying the
    /// server's typed error (e.g. [`crate::ErrorCode::BadRequest`] for a
    /// wrong feature count, [`crate::ErrorCode::Overloaded`] under load
    /// shedding). [`NetError::Timeout`] when the configured deadline
    /// expires before an attempt can be sent. Retryable failures are
    /// retried per [`ClientConfig::retry`] first.
    pub fn predict(&mut self, features: &[f32]) -> Result<usize> {
        let deadline = self.request_deadline();
        self.retry_loop(deadline, |client, deadline| {
            let id = client.fresh_id();
            let reply = client.call(Frame::Predict {
                id,
                deadline_micros: wire_deadline(deadline)?,
                features: features.to_vec(),
            })?;
            match reply {
                Frame::Labels { labels, .. } if labels.len() == 1 => Ok(labels[0] as usize),
                other => Err(unexpected_reply("one label", &other)),
            }
        })
    }

    /// Classifies a row-major `⌊data.len() / cols⌋ × cols` batch in one
    /// frame and returns the labels in row order.
    ///
    /// # Errors
    ///
    /// [`NetError::Frame`] when `cols` is zero or does not divide
    /// `data.len()`; otherwise as [`Client::predict`].
    pub fn predict_batch(&mut self, cols: usize, data: &[f32]) -> Result<Vec<usize>> {
        if cols == 0 || !data.len().is_multiple_of(cols) || data.is_empty() {
            return Err(NetError::Frame {
                message: format!(
                    "batch of {} values does not divide into positive rows of {cols}",
                    data.len()
                ),
            });
        }
        let rows = data.len() / cols;
        let deadline = self.request_deadline();
        self.retry_loop(deadline, |client, deadline| {
            let id = client.fresh_id();
            let reply = client.call(Frame::PredictBatch {
                id,
                deadline_micros: wire_deadline(deadline)?,
                cols: cols as u32,
                data: data.to_vec(),
            })?;
            match reply {
                Frame::Labels { labels, .. } if labels.len() == rows => {
                    Ok(labels.into_iter().map(|l| l as usize).collect())
                }
                other => Err(unexpected_reply("one label per row", &other)),
            }
        })
    }

    /// Classifies many samples by **pipelining**: every `Predict` frame is
    /// written before the first reply is read, so the server (which answers
    /// a connection's requests in order) keeps its micro-batcher fed while
    /// replies stream back. One connection, `rows.len()` round-trips of
    /// latency collapsed into roughly one.
    ///
    /// Each frame is stamped with the remaining deadline budget, but the
    /// wave is **not retried** as a whole — with many requests in flight,
    /// the caller decides what partial failure means.
    ///
    /// # Errors
    ///
    /// As [`Client::predict`]; the first failed reply fails the call.
    pub fn predict_pipelined<'r, I>(&mut self, rows: I) -> Result<Vec<usize>>
    where
        I: IntoIterator<Item = &'r [f32]>,
    {
        let deadline = self.request_deadline();
        let first_id = self.next_id;
        let mut count = 0u64;
        let outcome = self.with_connection(|connection, config| {
            let meta = request_meta(config);
            for features in rows {
                let frame = Frame::Predict {
                    id: first_id + count,
                    deadline_micros: wire_deadline(deadline)?,
                    features: features.to_vec(),
                };
                write_frame_meta(
                    &mut connection.writer,
                    &frame,
                    &meta,
                    config.max_frame_bytes,
                )?;
                count += 1;
            }
            let mut labels = Vec::with_capacity(count as usize);
            for offset in 0..count {
                match expect_reply(connection, config, first_id + offset)? {
                    Frame::Labels {
                        labels: mut one, ..
                    } if one.len() == 1 => {
                        labels.push(one.pop().expect("length checked") as usize);
                    }
                    other => return Err(unexpected_reply("one label", &other)),
                }
            }
            Ok(labels)
        });
        self.next_id = first_id + count;
        outcome
    }

    /// Reads the server's aggregate statistics.
    ///
    /// # Errors
    ///
    /// As [`Client::predict`].
    pub fn stats(&mut self) -> Result<WireStats> {
        let deadline = self.request_deadline();
        self.retry_loop(deadline, |client, _| {
            let id = client.fresh_id();
            match client.call(Frame::Stats { id })? {
                Frame::StatsReply { stats, .. } => Ok(*stats),
                other => Err(unexpected_reply("a stats reply", &other)),
            }
        })
    }

    /// Dumps up to `max` recent per-request traces from the server's
    /// flight recorder (0 = everything currently retained), together with
    /// the count of traces the recorder discarded (non-zero only for a
    /// zero-capacity ring). Traces arrive oldest-first.
    ///
    /// # Errors
    ///
    /// As [`Client::predict`].
    pub fn trace_dump(&mut self, max: u32) -> Result<(u64, Vec<ff_serve::RequestTrace>)> {
        let deadline = self.request_deadline();
        self.retry_loop(deadline, |client, _| {
            let id = client.fresh_id();
            match client.call(Frame::TraceDump { id, max })? {
                Frame::TraceDumpReply {
                    dropped, traces, ..
                } => Ok((dropped, traces)),
                other => Err(unexpected_reply("a trace dump reply", &other)),
            }
        })
    }

    /// Reads the server's full metrics registry in its text exposition
    /// format — one `name kind value...` line per metric, sorted by name.
    ///
    /// # Errors
    ///
    /// As [`Client::predict`].
    pub fn metrics_dump(&mut self) -> Result<String> {
        let deadline = self.request_deadline();
        self.retry_loop(deadline, |client, _| {
            let id = client.fresh_id();
            match client.call(Frame::MetricsDump { id })? {
                Frame::MetricsDumpReply { text, .. } => Ok(text),
                other => Err(unexpected_reply("a metrics dump reply", &other)),
            }
        })
    }

    /// Probes the server's identity and liveness.
    ///
    /// # Errors
    ///
    /// As [`Client::predict`].
    pub fn health(&mut self) -> Result<ServerInfo> {
        let deadline = self.request_deadline();
        self.retry_loop(deadline, |client, _| {
            let id = client.fresh_id();
            match client.call(Frame::Health { id })? {
                Frame::HealthReply {
                    input_features,
                    num_classes,
                    model_version,
                    mode,
                    state,
                    ..
                } => Ok(ServerInfo {
                    input_features: input_features as usize,
                    num_classes: num_classes as usize,
                    model_version,
                    mode,
                    state,
                }),
                other => Err(unexpected_reply("a health reply", &other)),
            }
        })
    }

    /// Asks the server to shut down gracefully (drain, then close), waits
    /// for the acknowledgement and closes this client's connection. Never
    /// retried: shutdown is not idempotent from the caller's point of view.
    ///
    /// # Errors
    ///
    /// As [`Client::predict`].
    pub fn shutdown_server(&mut self) -> Result<()> {
        let id = self.fresh_id();
        let outcome = match self.call(Frame::Shutdown { id })? {
            Frame::ShutdownAck { .. } => Ok(()),
            other => Err(unexpected_reply("a shutdown ack", &other)),
        };
        self.close();
        outcome
    }
}

/// The request header this client stamps on every frame: the addressed
/// model and the configured bearer token.
fn request_meta(config: &ClientConfig) -> FrameMeta {
    FrameMeta {
        model_id: config.model,
        token: config.token.clone(),
    }
}

/// The remaining deadline budget as the wire's `u32` microseconds field
/// (0 = unbounded), or [`NetError::Timeout`] when the budget is already
/// spent — there is no point putting a dead request on the wire.
fn wire_deadline(deadline: Option<Instant>) -> Result<u32> {
    let Some(deadline) = deadline else {
        return Ok(0);
    };
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(NetError::Timeout);
    }
    Ok(remaining.as_micros().clamp(1, u32::MAX as u128) as u32)
}

/// Reads the next reply, validating the correlation id and unwrapping
/// error frames into [`NetError::Remote`].
fn expect_reply(connection: &mut Connection, config: &ClientConfig, id: u64) -> Result<Frame> {
    let reply = read_frame(&mut connection.reader, config.max_frame_bytes)?;
    if let Frame::Error {
        code,
        retry_after_millis,
        message,
        ..
    } = reply
    {
        return Err(NetError::Remote {
            code,
            message,
            retry_after: (retry_after_millis > 0)
                .then(|| Duration::from_millis(retry_after_millis.into())),
        });
    }
    if reply.id() != id {
        return Err(NetError::Frame {
            message: format!("reply id {} does not match request id {id}", reply.id()),
        });
    }
    if reply.is_request() {
        return Err(NetError::Frame {
            message: "peer sent a request frame where a reply was expected".to_string(),
        });
    }
    Ok(reply)
}

fn unexpected_reply(expected: &str, got: &Frame) -> NetError {
    NetError::Frame {
        message: format!("expected {expected}, got {got:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_to_nothing_fails_with_io_error() {
        // Port 1 on loopback is essentially never listening.
        let outcome = Client::connect("127.0.0.1:1");
        assert!(matches!(
            outcome.map(|_| ()),
            Err(NetError::Io { .. }) | Err(NetError::Timeout) | Err(NetError::Closed)
        ));
    }

    #[test]
    fn oversized_tokens_are_refused_at_connect() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dial = |token_len: usize| {
            Client::connect_with(
                listener.local_addr().unwrap(),
                ClientConfig {
                    token: Some("x".repeat(token_len)),
                    ..ClientConfig::default()
                },
            )
        };
        assert!(dial(MAX_AUTH_TOKEN_LEN).is_ok());
        // Unchecked, the first request would panic in the frame encoder.
        let outcome = dial(MAX_AUTH_TOKEN_LEN + 1).and_then(|mut client| client.shutdown_server());
        assert!(matches!(outcome, Err(NetError::Frame { .. })));
    }

    #[test]
    fn batch_geometry_is_validated_locally() {
        // Validation fires before any connection is touched, so a client
        // pointed at a dead address still reports the local error…
        // (construct without the eager connect by dialing a live listener).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
        assert!(matches!(
            client.predict_batch(0, &[]),
            Err(NetError::Frame { .. })
        ));
        assert!(matches!(
            client.predict_batch(3, &[0.0; 4]),
            Err(NetError::Frame { .. })
        ));
    }

    #[test]
    fn wire_deadlines_encode_the_remaining_budget() {
        assert_eq!(wire_deadline(None), Ok(0));
        let soon = Instant::now() + Duration::from_millis(500);
        let micros = wire_deadline(Some(soon)).unwrap();
        assert!(micros > 0 && micros <= 500_000);
        let spent = Instant::now() - Duration::from_millis(1);
        assert_eq!(wire_deadline(Some(spent)), Err(NetError::Timeout));
    }

    #[test]
    fn an_expired_deadline_fails_before_dialing() {
        // A client whose budget is already spent must not even connect: the
        // listener below never accepts, so reaching it would hang.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
        client.config.deadline = Some(Duration::ZERO);
        assert_eq!(client.predict(&[0.0; 4]), Err(NetError::Timeout));
    }
}
