//! The wire-protocol client, and a failover wrapper that retries
//! idempotent reads across the primary and its replicas.
//!
//! [`Client`] is the thin layer: one TCP connection, HELLO handshake,
//! synchronous `execute`, plus a split `start_execute`/`finish_execute`
//! pair so a test (or an interactive front end) can fire a `CANCEL`
//! while a statement is still running.
//!
//! [`FailoverClient`] adds the retry discipline the serving tier's
//! error contract is designed for:
//!
//! * **Reads are idempotent** — on any failure (connection refused,
//!   mid-stream disconnect, typed retryable error) they are retried
//!   with bounded exponential backoff, rotating primary-first through
//!   the replica list. A server-supplied `retry_after` hint takes
//!   precedence over the computed backoff when larger.
//! * **Writes are not** — a write is retried only on errors that
//!   *prove* the statement was never applied: a failed connect, or a
//!   typed retryable shed (`Overloaded`/`ReadOnly`/`ShuttingDown`,
//!   all raised before execution). An I/O error after the statement
//!   was sent is ambiguous (the commit may have landed) and is
//!   surfaced to the caller undisguised.

use crate::frame::{self, ErrorCode, Frame, FrameBuf, Role, PROTO_VERSION};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure. After a statement has been sent this is
    /// *ambiguous*: the server may or may not have applied it.
    Io(std::io::Error),
    /// The peer violated the frame grammar.
    Proto(String),
    /// A typed error frame from the server.
    Server {
        /// The wire error code.
        code: ErrorCode,
        /// Server-suggested wait before retrying (zero when absent).
        retry_after: Duration,
        /// Human-readable diagnostic.
        message: String,
    },
    /// The endpoint is not the primary (a replica, or a fenced
    /// ex-primary): the statement was refused *before* execution, so
    /// retrying it elsewhere is unconditionally safe. `leader_hint` is
    /// the server's best guess at the current primary (may be empty).
    NotPrimary {
        /// Address of the believed-current primary; empty when the
        /// endpoint has no hint.
        leader_hint: String,
    },
    /// A replica was skipped because its replication lag exceeded the
    /// client's configured bound.
    ReplicaLagging {
        /// The lag the health probe reported.
        lag: u64,
        /// The configured bound it exceeded.
        bound: u64,
    },
}

impl NetError {
    /// True when the statement provably did not execute and may be
    /// retried unchanged: a typed retryable shed, a `NotPrimary`
    /// redirect, or a lag-bound skip.
    pub fn is_retryable(&self) -> bool {
        match self {
            NetError::Server { code, .. } => code.retryable(),
            NetError::NotPrimary { .. } | NetError::ReplicaLagging { .. } => true,
            _ => false,
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Proto(m) => write!(f, "protocol: {m}"),
            NetError::Server {
                code,
                retry_after,
                message,
            } => write!(
                f,
                "server {code:?}: {message} (retry after {retry_after:?})"
            ),
            NetError::NotPrimary { leader_hint } if leader_hint.is_empty() => {
                write!(f, "endpoint is not the primary (no leader hint)")
            }
            NetError::NotPrimary { leader_hint } => {
                write!(
                    f,
                    "endpoint is not the primary (leader hint: {leader_hint})"
                )
            }
            NetError::ReplicaLagging { lag, bound } => write!(
                f,
                "replica skipped: replication lag {lag} exceeds bound {bound}"
            ),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e)
    }
}

/// The health word a `PONG` carries: everything a failover-aware
/// client needs to pick a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Health {
    /// What the endpoint currently is.
    pub role: Role,
    /// The primary generation (fencing term) it serves or tails.
    pub generation: u64,
    /// Latest epoch it serves.
    pub epoch: u64,
    /// Replication lag in commit units (0 on the primary).
    pub lag: u64,
}

/// A complete statement response.
#[derive(Debug, Clone, Default)]
pub struct Response {
    /// Epoch the statement observed (or committed into).
    pub epoch: u64,
    /// Column names (empty for non-relation outcomes).
    pub columns: Vec<String>,
    /// Rendered cells, one `Vec` per row.
    pub rows: Vec<Vec<String>>,
    /// Rendered non-relational output (DDL acks, reports, …).
    pub info: String,
}

/// One authenticated wire-protocol connection.
pub struct Client {
    stream: TcpStream,
    buf: FrameBuf,
    /// 8 KiB socket read buffer, allocated once per connection.
    chunk: Box<[u8; 8192]>,
    next_id: u64,
    session: u64,
    role: Role,
    epoch: u64,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("session", &self.session)
            .field("role", &self.role)
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl Client {
    /// Connects, handshakes, and authenticates. `token` may be empty
    /// when the server does not require one.
    pub fn connect(addr: &str, token: &str) -> Result<Client, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut c = Client {
            stream,
            buf: FrameBuf::new(),
            chunk: Box::new([0; 8192]),
            next_id: 1,
            session: 0,
            role: Role::Primary,
            epoch: 0,
        };
        c.send(&Frame::Hello {
            version: PROTO_VERSION,
            token: token.to_string(),
        })?;
        match c.read_frame()? {
            Frame::HelloAck {
                session,
                role,
                epoch,
            } => {
                c.session = session;
                c.role = role;
                c.epoch = epoch;
                Ok(c)
            }
            Frame::Error {
                code,
                retry_after_ms,
                message,
                ..
            } => Err(NetError::Server {
                code,
                retry_after: Duration::from_millis(retry_after_ms),
                message,
            }),
            other => Err(NetError::Proto(format!(
                "expected HELLO_ACK, got {other:?}"
            ))),
        }
    }

    /// Server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Whether the peer is the primary or a replica.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The epoch last reported by the server (handshake or ping).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sets the socket read timeout used while waiting for responses.
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(t)?;
        Ok(())
    }

    /// Executes one statement and collects its full response.
    pub fn execute(&mut self, src: &str) -> Result<Response, NetError> {
        self.execute_with(src, 0)
    }

    /// Executes with a server-side deadline (`0` = none).
    pub fn execute_with(&mut self, src: &str, deadline_ms: u64) -> Result<Response, NetError> {
        let id = self.start_execute(src, deadline_ms)?;
        self.finish_execute(id)
    }

    /// Sends an `Execute` without waiting for the response; returns
    /// the statement id (pass it to [`Client::cancel`] /
    /// [`Client::finish_execute`]).
    pub fn start_execute(&mut self, src: &str, deadline_ms: u64) -> Result<u64, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Frame::Execute {
            id,
            deadline_ms,
            src: src.to_string(),
        })?;
        Ok(id)
    }

    /// Fires a mid-query cancel for `id`. The server answers the
    /// original statement with a `Cancelled` error frame.
    pub fn cancel(&mut self, id: u64) -> Result<(), NetError> {
        self.send(&Frame::Cancel { id })
    }

    /// Prepares `src` (the statement body, with `?n` parameters) under
    /// `name` on this connection. Prepared names do not survive a
    /// reconnect — re-prepare after failover.
    pub fn prepare(&mut self, name: &str, src: &str) -> Result<Response, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Frame::Prepare {
            id,
            deadline_ms: 0,
            name: name.to_string(),
            src: src.to_string(),
        })?;
        self.finish_execute(id)
    }

    /// Runs a statement prepared earlier on this connection. `args` are
    /// argument literals in XSQL syntax (e.g. `12000`, `"Smith"`), one
    /// per `?n` in the prepared body.
    pub fn execute_prepared(&mut self, name: &str, args: &[&str]) -> Result<Response, NetError> {
        self.execute_prepared_with(name, args, 0)
    }

    /// [`Client::execute_prepared`] with a server-side deadline
    /// (`0` = none).
    pub fn execute_prepared_with(
        &mut self,
        name: &str,
        args: &[&str],
        deadline_ms: u64,
    ) -> Result<Response, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Frame::ExecutePrepared {
            id,
            deadline_ms,
            name: name.to_string(),
            args: args.iter().map(|s| s.to_string()).collect(),
        })?;
        self.finish_execute(id)
    }

    /// Collects the response frames of statement `id`.
    pub fn finish_execute(&mut self, id: u64) -> Result<Response, NetError> {
        let mut resp = Response::default();
        loop {
            match self.read_frame()? {
                Frame::RowsHeader {
                    id: rid,
                    epoch,
                    columns,
                } if rid == id => {
                    resp.epoch = epoch;
                    self.epoch = epoch;
                    resp.columns = columns;
                }
                Frame::Row { id: rid, cells } if rid == id => resp.rows.push(cells),
                Frame::Done {
                    id: rid,
                    epoch,
                    info,
                    ..
                } if rid == id => {
                    if epoch > 0 {
                        resp.epoch = epoch;
                        self.epoch = epoch;
                    }
                    resp.info = info;
                    return Ok(resp);
                }
                // Connection-scoped errors carry id 0 (protocol
                // violations, idle reaping); statement errors carry the
                // statement id. Either terminates this request.
                Frame::Error {
                    id: rid,
                    code,
                    retry_after_ms,
                    message,
                } if rid == id || rid == 0 => {
                    return Err(NetError::Server {
                        code,
                        retry_after: Duration::from_millis(retry_after_ms),
                        message,
                    })
                }
                Frame::NotPrimary {
                    id: rid,
                    leader_hint,
                } if rid == id || rid == 0 => return Err(NetError::NotPrimary { leader_hint }),
                Frame::Goodbye => {
                    return Err(NetError::Io(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        "server said goodbye",
                    )))
                }
                other => return Err(NetError::Proto(format!("unexpected frame {other:?}"))),
            }
        }
    }

    /// Round-trips a `Ping`; returns the endpoint's [`Health`] word
    /// (role, generation, epoch, lag).
    pub fn ping(&mut self) -> Result<Health, NetError> {
        self.send(&Frame::Ping)?;
        match self.read_frame()? {
            Frame::Pong {
                role,
                generation,
                epoch,
                lag,
            } => {
                self.epoch = epoch;
                self.role = role;
                Ok(Health {
                    role,
                    generation,
                    epoch,
                    lag,
                })
            }
            Frame::Error {
                code,
                retry_after_ms,
                message,
                ..
            } => Err(NetError::Server {
                code,
                retry_after: Duration::from_millis(retry_after_ms),
                message,
            }),
            other => Err(NetError::Proto(format!("expected PONG, got {other:?}"))),
        }
    }

    /// Sends a token-gated `PROMOTE` admin frame; on success the peer
    /// is (now) the primary and the returned value is the generation
    /// it accepts writes under. Idempotent against an existing
    /// primary.
    pub fn promote(&mut self) -> Result<u64, NetError> {
        self.send(&Frame::Promote)?;
        match self.read_frame()? {
            Frame::PromoteAck { generation } => {
                self.role = Role::Primary;
                Ok(generation)
            }
            Frame::Error {
                code,
                retry_after_ms,
                message,
                ..
            } => Err(NetError::Server {
                code,
                retry_after: Duration::from_millis(retry_after_ms),
                message,
            }),
            other => Err(NetError::Proto(format!(
                "expected PROMOTE_ACK, got {other:?}"
            ))),
        }
    }

    /// Polite close: announces `Goodbye` and drops the connection.
    pub fn goodbye(mut self) {
        let _ = self.send(&Frame::Goodbye);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn send(&mut self, f: &Frame) -> Result<(), NetError> {
        self.stream.write_all(&frame::encode(f))?;
        Ok(())
    }

    fn read_frame(&mut self) -> Result<Frame, NetError> {
        loop {
            match self.buf.next_frame() {
                Ok(Some(f)) => return Ok(f),
                Ok(None) => {}
                Err(e) => return Err(NetError::Proto(e.to_string())),
            }
            match self.stream.read(&mut self.chunk[..]) {
                Ok(0) => {
                    return Err(NetError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Ok(n) => self.buf.push(&self.chunk[..n]),
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }
}

/// Bounded-exponential retry schedule with deterministic seeded
/// jitter (so chaos runs replay exactly).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included).
    pub attempts: usize,
    /// Backoff before the second attempt; doubles each retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Jitter band: each wait is scaled by `1 + jitter * u` with
    /// `u ∈ [0, 1)` drawn from the seeded stream.
    pub jitter: f64,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 6,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(250),
            jitter: 0.5,
            seed: 0x00c1_1e47,
        }
    }
}

/// A client that knows the topology: one primary plus read replicas.
pub struct FailoverClient {
    primary: String,
    replicas: Vec<String>,
    token: String,
    policy: RetryPolicy,
    jitter_state: u64,
    conns: std::collections::HashMap<String, Client>,
    /// When set, a read is routed to a replica only after a health
    /// probe shows its lag at or under this bound. `None` routes reads
    /// to replicas regardless of how far behind they are.
    max_replica_lag: Option<u64>,
}

impl FailoverClient {
    /// A failover client over `primary` and `replicas`.
    pub fn new(
        primary: impl Into<String>,
        replicas: Vec<String>,
        token: impl Into<String>,
        policy: RetryPolicy,
    ) -> FailoverClient {
        let seed = policy.seed;
        FailoverClient {
            primary: primary.into(),
            replicas,
            token: token.into(),
            policy,
            jitter_state: seed,
            conns: std::collections::HashMap::new(),
            max_replica_lag: None,
        }
    }

    /// Bounds how stale a replica may be (in commit units) before
    /// reads skip it. Unset, reads rotate onto replicas no matter how
    /// far behind they are.
    pub fn with_max_replica_lag(mut self, bound: u64) -> FailoverClient {
        self.max_replica_lag = Some(bound);
        self
    }

    /// The address writes currently target (follows `NotPrimary`
    /// leader hints as failovers happen).
    pub fn primary_addr(&self) -> &str {
        &self.primary
    }

    fn unit(&mut self) -> f64 {
        self.jitter_state = self.jitter_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The wait before retry number `attempt` (1-based), honouring a
    /// server hint when it is longer than the computed backoff.
    fn backoff(&mut self, attempt: usize, hint: Duration) -> Duration {
        let exp = self
            .policy
            .base_delay
            .saturating_mul(1u32 << (attempt.min(16) as u32))
            .min(self.policy.max_delay);
        let jittered = exp + exp.mul_f64(self.policy.jitter * self.unit());
        jittered.max(hint)
    }

    fn conn(&mut self, addr: &str) -> Result<&mut Client, NetError> {
        if !self.conns.contains_key(addr) {
            let c = Client::connect(addr, &self.token)?;
            self.conns.insert(addr.to_string(), c);
        }
        Ok(self.conns.get_mut(addr).expect("just inserted"))
    }

    /// Executes an idempotent read, retrying across the topology:
    /// primary first, then each replica, with bounded-exponential
    /// jittered backoff between rounds. Safe for reads only.
    pub fn execute_read(&mut self, src: &str) -> Result<Response, NetError> {
        let mut targets = vec![self.primary.clone()];
        targets.extend(self.replicas.iter().cloned());
        let mut last: Option<NetError> = None;
        for attempt in 0..self.policy.attempts {
            let addr = targets[attempt % targets.len()].clone();
            // A bounded-staleness read must not land on a replica that
            // has fallen too far behind: probe its health first and
            // skip it (burning this attempt) when the lag is over the
            // bound.
            if addr != self.primary {
                if let Some(bound) = self.max_replica_lag {
                    match self.ping(&addr) {
                        Ok(h) if h.lag > bound => {
                            last = Some(NetError::ReplicaLagging { lag: h.lag, bound });
                            continue;
                        }
                        Ok(_) => {}
                        Err(e) => {
                            let wait = self.backoff(attempt + 1, Duration::ZERO);
                            last = Some(e);
                            if attempt + 1 < self.policy.attempts {
                                std::thread::sleep(wait);
                            }
                            continue;
                        }
                    }
                }
            }
            let res = self.conn(&addr).and_then(|c| c.execute(src));
            match res {
                Ok(r) => return Ok(r),
                Err(e) => {
                    // Reads are idempotent: any failure mode is safe to
                    // retry, but a dead or confused connection must not
                    // be reused.
                    if matches!(e, NetError::Io(_) | NetError::Proto(_)) {
                        self.conns.remove(&addr);
                    }
                    let hint = match &e {
                        NetError::Server { retry_after, .. } => *retry_after,
                        _ => Duration::ZERO,
                    };
                    let wait = self.backoff(attempt + 1, hint);
                    last = Some(e);
                    if attempt + 1 < self.policy.attempts {
                        std::thread::sleep(wait);
                    }
                }
            }
        }
        Err(last.expect("at least one attempt"))
    }

    /// Executes a write against the primary. Retries **only** failures
    /// that prove the statement never ran: connect errors, typed
    /// retryable sheds, and `NotPrimary` redirects (raised before the
    /// statement reaches an engine). A redirect's leader hint — or,
    /// when the hint is empty, a health sweep of the known topology —
    /// re-aims subsequent attempts. An ambiguous post-send I/O error
    /// is returned as-is — the caller must decide (the statement may
    /// have committed).
    pub fn execute_write(&mut self, src: &str) -> Result<Response, NetError> {
        let mut addr = self.primary.clone();
        let mut last: Option<NetError> = None;
        for attempt in 0..self.policy.attempts {
            let sent_before_error;
            let res = match self.conn(&addr) {
                Ok(c) => {
                    sent_before_error = true;
                    c.execute(src)
                }
                Err(e) => {
                    sent_before_error = false;
                    Err(e)
                }
            };
            match res {
                Ok(r) => {
                    self.primary = addr;
                    return Ok(r);
                }
                Err(NetError::NotPrimary { leader_hint }) => {
                    // Provably pre-execution: the endpoint refused the
                    // statement before any engine saw it. Follow the
                    // hint; with none, probe the topology for whoever
                    // now reports itself primary.
                    let next = if leader_hint.is_empty() {
                        self.discover_primary()
                    } else {
                        Some(leader_hint.clone())
                    };
                    if let Some(next) = next {
                        if next != addr {
                            addr = next.clone();
                            self.primary = next;
                        }
                    }
                    let wait = self.backoff(attempt + 1, Duration::ZERO);
                    last = Some(NetError::NotPrimary { leader_hint });
                    if attempt + 1 < self.policy.attempts {
                        std::thread::sleep(wait);
                    }
                }
                Err(e) => {
                    if matches!(e, NetError::Io(_) | NetError::Proto(_)) {
                        self.conns.remove(&addr);
                        if sent_before_error {
                            // Ambiguous: the write may have applied.
                            return Err(e);
                        }
                    }
                    if sent_before_error && !e.is_retryable() {
                        return Err(e);
                    }
                    let hint = match &e {
                        NetError::Server { retry_after, .. } => *retry_after,
                        _ => Duration::ZERO,
                    };
                    let wait = self.backoff(attempt + 1, hint);
                    last = Some(e);
                    if attempt + 1 < self.policy.attempts {
                        std::thread::sleep(wait);
                    }
                }
            }
        }
        Err(last.expect("at least one attempt"))
    }

    /// Pings `addr` (must be the primary or a listed replica),
    /// returning its [`Health`] word.
    pub fn ping(&mut self, addr: &str) -> Result<Health, NetError> {
        let res = self.conn(addr).and_then(|c| c.ping());
        if res.is_err() {
            self.conns.remove(addr);
        }
        res
    }

    /// Health-sweeps the known topology and returns the first address
    /// reporting itself primary, if any.
    fn discover_primary(&mut self) -> Option<String> {
        let mut candidates = vec![self.primary.clone()];
        candidates.extend(self.replicas.iter().cloned());
        for addr in candidates {
            if let Ok(h) = self.ping(&addr) {
                if h.role == Role::Primary {
                    return Some(addr);
                }
            }
        }
        None
    }

    /// Drops every cached connection (politely).
    pub fn disconnect_all(&mut self) {
        for (_, c) in self.conns.drain() {
            c.goodbye();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_exponential_and_seed_deterministic() {
        let mk = |seed| {
            let mut f = FailoverClient::new(
                "127.0.0.1:1",
                vec![],
                "",
                RetryPolicy {
                    seed,
                    ..RetryPolicy::default()
                },
            );
            (1..=8)
                .map(|a| f.backoff(a, Duration::ZERO))
                .collect::<Vec<_>>()
        };
        let a = mk(7);
        let b = mk(7);
        let c = mk(8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different jitter");
        // Bounded: never exceeds max_delay * (1 + jitter).
        let cap = Duration::from_millis(250).mul_f64(1.5);
        assert!(a.iter().all(|d| *d <= cap), "{a:?}");
        // Roughly exponential up to the ceiling: attempt 3 ≥ attempt 1.
        assert!(a[2] >= a[0]);
    }

    #[test]
    fn server_hint_dominates_small_backoff() {
        let mut f = FailoverClient::new("127.0.0.1:1", vec![], "", RetryPolicy::default());
        let hint = Duration::from_secs(2);
        assert_eq!(f.backoff(1, hint), hint);
    }

    /// A minimal scripted peer: handshakes, answers `Ping` with a
    /// fixed health word, `Execute` with `Done { info }`, and (when
    /// `redirect_to` is set) refuses every Execute with `NotPrimary`.
    fn fake_server(
        role: Role,
        lag: u64,
        info: &'static str,
        redirect_to: Option<String>,
    ) -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut s) = stream else { return };
                let redirect = redirect_to.clone();
                std::thread::spawn(move || {
                    let mut buf = FrameBuf::new();
                    let mut chunk = [0u8; 4096];
                    loop {
                        let f = loop {
                            match buf.next_frame() {
                                Ok(Some(f)) => break f,
                                Ok(None) => {}
                                Err(_) => return,
                            }
                            match s.read(&mut chunk) {
                                Ok(0) => return,
                                Ok(n) => buf.push(&chunk[..n]),
                                Err(_) => return,
                            }
                        };
                        let reply = match f {
                            Frame::Hello { .. } => Frame::HelloAck {
                                session: 1,
                                role,
                                epoch: 7,
                            },
                            Frame::Ping => Frame::Pong {
                                role,
                                generation: 2,
                                epoch: 7,
                                lag,
                            },
                            Frame::Execute { id, .. } => match &redirect {
                                Some(hint) => Frame::NotPrimary {
                                    id,
                                    leader_hint: hint.clone(),
                                },
                                None => Frame::Done {
                                    id,
                                    epoch: 7,
                                    rows: 0,
                                    info: info.into(),
                                },
                            },
                            _ => return,
                        };
                        if s.write_all(&frame::encode(&reply)).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(5),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn unbounded_reads_rotate_onto_a_lagging_replica() {
        // Dead primary, replica 1000 units behind: with no lag bound
        // the read must still rotate onto the replica and succeed.
        let replica = fake_server(Role::Replica, 1000, "from-replica", None);
        let mut f = FailoverClient::new("127.0.0.1:1", vec![replica], "", fast_policy());
        let r = f.execute_read("SELECT X FROM Counter X").expect("read");
        assert_eq!(r.info, "from-replica");
    }

    #[test]
    fn bounded_reads_skip_a_replica_over_the_lag_bound() {
        let replica = fake_server(Role::Replica, 1000, "from-replica", None);
        let mut f = FailoverClient::new("127.0.0.1:1", vec![replica], "", fast_policy())
            .with_max_replica_lag(5);
        let err = f
            .execute_read("SELECT X FROM Counter X")
            .expect_err("every target is dead or too stale");
        assert!(
            matches!(
                err,
                NetError::ReplicaLagging {
                    lag: 1000,
                    bound: 5
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn bounded_reads_accept_a_replica_within_the_lag_bound() {
        let replica = fake_server(Role::Replica, 3, "from-replica", None);
        let mut f = FailoverClient::new("127.0.0.1:1", vec![replica], "", fast_policy())
            .with_max_replica_lag(5);
        let r = f.execute_read("SELECT X FROM Counter X").expect("read");
        assert_eq!(r.info, "from-replica");
    }

    #[test]
    fn writes_follow_a_not_primary_leader_hint() {
        let new_primary = fake_server(Role::Primary, 0, "from-new-primary", None);
        let deposed = fake_server(Role::Fenced, 0, "", Some(new_primary.clone()));
        let mut f = FailoverClient::new(deposed, vec![], "", fast_policy());
        let r = f.execute_write("INSERT Counter c0").expect("redirected");
        assert_eq!(r.info, "from-new-primary");
        assert_eq!(f.primary_addr(), new_primary, "client re-aimed at the hint");
    }

    #[test]
    fn writes_discover_the_primary_when_the_hint_is_empty() {
        let new_primary = fake_server(Role::Primary, 0, "from-new-primary", None);
        let deposed = fake_server(Role::Fenced, 0, "", Some(String::new()));
        let mut f = FailoverClient::new(deposed, vec![new_primary.clone()], "", fast_policy());
        let r = f.execute_write("INSERT Counter c0").expect("discovered");
        assert_eq!(r.info, "from-new-primary");
        assert_eq!(f.primary_addr(), new_primary);
    }

    #[test]
    fn ping_returns_the_full_health_word() {
        let replica = fake_server(Role::Replica, 42, "", None);
        let mut f = FailoverClient::new(replica.clone(), vec![], "", fast_policy());
        let h = f.ping(&replica).expect("ping");
        assert_eq!(
            h,
            Health {
                role: Role::Replica,
                generation: 2,
                epoch: 7,
                lag: 42,
            }
        );
    }
}
