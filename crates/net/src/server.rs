//! The TCP front end: one listener, one thread per admitted
//! connection, layered on the service executor (primary) or a
//! replica's published epochs (read-only).
//!
//! ## Robustness contract
//!
//! * **Bounded accept.** At most `max_conns` live connections; an
//!   accept beyond that is answered with a typed `Overloaded` error
//!   frame carrying a *jittered* retry-after — shed, never silently
//!   dropped.
//! * **Deadlines everywhere.** The handshake must complete within
//!   `handshake_timeout`; a partially received frame older than
//!   `frame_timeout` is a protocol error (a peer cannot wedge a
//!   connection by sending half a frame); writes time out after
//!   `write_timeout`; a connection with no traffic for `idle_timeout`
//!   is reaped with a typed `IdleTimeout` frame.
//! * **Mid-query CANCEL.** Each connection splits into a socket
//!   *reader* thread and a statement *executor* thread. The reader
//!   parses frames as they arrive, so a `CANCEL` lands while the
//!   executor is mid-statement: it trips the statement's cooperative
//!   [`CancelFlag`] directly. A client disconnect does the same — an
//!   abandoned runaway query stops consuming the server.
//! * **Graceful drain.** [`Server::begin_drain`] stops admitting new
//!   connections (refused with `ShuttingDown`) and lets in-flight
//!   statements finish; each connection closes after answering its
//!   next request with `ShuttingDown`. [`Server::shutdown`] then joins
//!   every thread.
//! * **Malformed input is answered, then closed.** Any byte sequence
//!   that cannot become a valid frame gets a final typed `Protocol`
//!   error frame before the connection closes; the server never
//!   panics and never just vanishes on garbage (the fuzz suite sweeps
//!   every truncation and corruption position).

use crate::frame::{self, ErrorCode, Frame, FrameBuf, Role, PROTO_VERSION};
use crate::replica::ReplicaShared;
use service::{
    EpochReader, ExecResult, QueryContext, ReadResult, RetryJitter, Service, ServiceError,
    SessionHandle,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xsql::ast::Stmt;
use xsql::eval::CancelFlag;
use xsql::{Outcome, XsqlResult};

/// Network-tier knobs. Defaults suit an interactive deployment; tests
/// shrink the timeouts to force the reaping paths.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum live connections; accepts beyond this are shed with a
    /// jittered `Overloaded` error frame.
    pub max_conns: usize,
    /// Shared-secret token clients must present in HELLO; `None`
    /// accepts any.
    pub auth_token: Option<String>,
    /// HELLO must arrive within this after connect.
    pub handshake_timeout: Duration,
    /// A connection with no complete frame for this long is reaped.
    pub idle_timeout: Duration,
    /// A *partial* frame older than this is a protocol error.
    pub frame_timeout: Duration,
    /// Per-write socket deadline (a stuck client cannot wedge the
    /// executor).
    pub write_timeout: Duration,
    /// Base retry-after suggested on server-side sheds (jittered).
    pub retry_after: Duration,
    /// Jitter band fraction on shed hints.
    pub retry_jitter: f64,
    /// Seed of the server's jitter stream.
    pub jitter_seed: u64,
    /// Socket poll granularity; bounds how fast drain/stop/idle are
    /// noticed.
    pub poll_interval: Duration,
    /// Address of the believed-current primary, carried in
    /// `NotPrimary` redirects so clients can follow. Best-effort: may
    /// be stale after a failover; empty when unknown.
    pub leader_hint: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_conns: 64,
            auth_token: None,
            handshake_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(300),
            frame_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(10),
            retry_after: Duration::from_millis(50),
            retry_jitter: 0.5,
            jitter_seed: 0x5eed_07e7,
            poll_interval: Duration::from_millis(25),
            leader_hint: None,
        }
    }
}

/// What the server serves: the writable primary (over the service
/// executor) or a WAL-shipped read replica.
pub enum Backend {
    /// Full read/write service.
    Primary(Arc<Service>),
    /// Snapshot reads at the replica's published epochs; writes are
    /// answered with a `NotPrimary` redirect.
    Replica(Arc<ReplicaShared>),
}

impl Backend {
    /// The live role: a primary whose writer observed a newer
    /// generation reports itself fenced.
    fn role(&self) -> Role {
        match self {
            Backend::Primary(svc) if svc.fenced().is_some() => Role::Fenced,
            Backend::Primary(_) => Role::Primary,
            Backend::Replica(_) => Role::Replica,
        }
    }

    fn generation(&self) -> u64 {
        match self {
            Backend::Primary(svc) => svc.generation(),
            Backend::Replica(r) => r.generation(),
        }
    }

    fn epoch_seq(&self) -> u64 {
        match self {
            Backend::Primary(svc) => svc.epoch().seq,
            Backend::Replica(r) => r.epoch().seq,
        }
    }

    fn lag(&self) -> u64 {
        match self {
            Backend::Primary(_) => 0,
            Backend::Replica(r) => r.lag(),
        }
    }

    fn registry(&self) -> Arc<telemetry::Registry> {
        match self {
            Backend::Primary(svc) => Arc::clone(svc.registry()),
            Backend::Replica(r) => Arc::clone(r.registry()),
        }
    }
}

/// Wire encoding of [`Role`] for the `net_role` gauge.
fn role_gauge_value(role: Role) -> i64 {
    match role {
        Role::Primary => 0,
        Role::Replica => 1,
        Role::Fenced => 2,
    }
}

/// One-shot callback that turns this process's replica into a primary:
/// stop tailing, recover a writable session over the same artifacts,
/// bump the generation, start a service. Supplied by the embedder via
/// [`Server::set_promote_hook`].
pub type PromoteHook = Box<dyn FnOnce() -> Result<Arc<Service>, String> + Send>;

/// Cached handles for the network tier's hot-path metrics.
struct NetMetrics {
    accepted: Arc<telemetry::Counter>,
    shed_conn_limit: Arc<telemetry::Counter>,
    shed_drain: Arc<telemetry::Counter>,
    protocol_errors: Arc<telemetry::Counter>,
    idle_reaped: Arc<telemetry::Counter>,
    cancels: Arc<telemetry::Counter>,
    requests: Arc<telemetry::Counter>,
    conns: Arc<telemetry::Gauge>,
    role: Arc<telemetry::Gauge>,
    fenced_refusals: Arc<telemetry::Counter>,
    promotions: Arc<telemetry::Counter>,
    /// Wire bytes of every statement reply.
    reply_bytes: Arc<telemetry::Counter>,
    /// Rendering and encoding one reply into its wire buffer.
    encode_us: Arc<telemetry::Histogram>,
}

impl NetMetrics {
    fn new(r: &Arc<telemetry::Registry>) -> NetMetrics {
        NetMetrics {
            accepted: r.counter("net_accepted_total", &[]),
            shed_conn_limit: r.counter("net_shed_total", &[("reason", "conn_limit")]),
            shed_drain: r.counter("net_shed_total", &[("reason", "drain")]),
            protocol_errors: r.counter("net_protocol_errors_total", &[]),
            idle_reaped: r.counter("net_idle_reaped_total", &[]),
            cancels: r.counter("net_cancels_total", &[]),
            requests: r.counter("net_requests_total", &[]),
            conns: r.gauge("net_conns", &[]),
            role: r.gauge("net_role", &[]),
            fenced_refusals: r.counter("net_fenced_refusals_total", &[]),
            promotions: r.counter("net_promotions_total", &[]),
            reply_bytes: r.counter("net_reply_bytes_total", &[]),
            encode_us: r.latency("net_request_phase_us", &[("phase", "encode")]),
        }
    }
}

struct ServerInner {
    cfg: ServerConfig,
    /// Swapped Replica → Primary by a successful `PROMOTE`.
    backend: RwLock<Backend>,
    promote_hook: Mutex<Option<PromoteHook>>,
    conns: AtomicUsize,
    draining: AtomicBool,
    stopping: AtomicBool,
    jitter: RetryJitter,
    /// Rebuilt on promotion so the gauges land in the new primary's
    /// registry (what STATS renders).
    metrics: RwLock<NetMetrics>,
    next_session: AtomicU64,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerInner {
    fn retry_hint_ms(&self) -> u64 {
        self.jitter.next_after(self.cfg.retry_after).as_millis() as u64
    }

    fn backend(&self) -> std::sync::RwLockReadGuard<'_, Backend> {
        self.backend.read().unwrap_or_else(|e| e.into_inner())
    }

    fn m(&self) -> std::sync::RwLockReadGuard<'_, NetMetrics> {
        self.metrics.read().unwrap_or_else(|e| e.into_inner())
    }

    fn leader_hint(&self) -> String {
        self.cfg.leader_hint.clone().unwrap_or_default()
    }
}

/// A running TCP server.
pub struct Server {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts accepting.
    pub fn start(backend: Backend, cfg: ServerConfig, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let registry = backend.registry();
        let inner = Arc::new(ServerInner {
            jitter: RetryJitter::new(cfg.jitter_seed, cfg.retry_jitter),
            metrics: RwLock::new(NetMetrics::new(&registry)),
            backend: RwLock::new(backend),
            promote_hook: Mutex::new(None),
            conns: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            next_session: AtomicU64::new(1),
            conn_threads: Mutex::new(Vec::new()),
            cfg,
        });
        inner.m().role.set(role_gauge_value(inner.backend().role()));
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("xsql-net-accept".into())
            .spawn(move || accept_loop(listener, accept_inner))
            .expect("spawn accept thread");
        Ok(Server {
            inner,
            addr: local,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live connection count.
    pub fn conn_count(&self) -> usize {
        self.inner.conns.load(Ordering::Relaxed)
    }

    /// Installs the one-shot callback a `PROMOTE` frame runs to turn
    /// this replica process into the primary. Without one, PROMOTE is
    /// refused.
    pub fn set_promote_hook(&self, hook: PromoteHook) {
        *self
            .inner
            .promote_hook
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(hook);
    }

    /// The live role of this endpoint (promotion and fencing change it
    /// at runtime).
    pub fn role(&self) -> Role {
        self.inner.backend().role()
    }

    /// The primary generation this endpoint serves or tails.
    pub fn generation(&self) -> u64 {
        self.inner.backend().generation()
    }

    /// Starts a graceful drain: new connections are refused with
    /// `ShuttingDown`; each live connection finishes its in-flight
    /// statement and closes after its next request. Idempotent.
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
    }

    /// True once a drain (or shutdown) has begun.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Drains, stops the accept loop, and joins every connection
    /// thread. In-flight statements finish first.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.inner.draining.store(true, Ordering::Release);
        self.inner.stopping.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        let threads: Vec<_> = {
            let mut g = self
                .inner
                .conn_threads
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            g.drain(..).collect()
        };
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<ServerInner>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => continue,
        };
        if inner.stopping.load(Ordering::Acquire) {
            return;
        }
        // Opportunistically reap finished connection threads so the
        // registry does not grow without bound on a long-lived server.
        {
            let mut g = inner.conn_threads.lock().unwrap_or_else(|e| e.into_inner());
            let (done, live): (Vec<_>, Vec<_>) = g.drain(..).partition(|t| t.is_finished());
            *g = live;
            for t in done {
                let _ = t.join();
            }
        }
        if inner.draining.load(Ordering::Acquire) {
            inner.m().shed_drain.inc();
            refuse(
                stream,
                ErrorCode::ShuttingDown,
                inner.retry_hint_ms(),
                "server is draining",
            );
            continue;
        }
        if inner.conns.load(Ordering::Relaxed) >= inner.cfg.max_conns {
            inner.m().shed_conn_limit.inc();
            refuse(
                stream,
                ErrorCode::Overloaded,
                inner.retry_hint_ms(),
                "connection limit reached",
            );
            continue;
        }
        inner.m().accepted.inc();
        inner.conns.fetch_add(1, Ordering::Relaxed);
        inner.m().conns.add(1);
        let conn_inner = Arc::clone(&inner);
        let t = std::thread::Builder::new()
            .name("xsql-net-conn".into())
            .spawn(move || {
                serve_conn(stream, &conn_inner);
                conn_inner.conns.fetch_sub(1, Ordering::Relaxed);
                conn_inner.m().conns.add(-1);
            })
            .expect("spawn conn thread");
        inner
            .conn_threads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(t);
    }
}

/// Refuses a connection with one typed error frame — shed is never
/// silent. Best-effort: the peer may already be gone.
fn refuse(mut stream: TcpStream, code: ErrorCode, retry_after_ms: u64, message: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.write_all(&frame::encode(&Frame::Error {
        id: 0,
        code,
        retry_after_ms,
        message: message.into(),
    }));
}

/// What the socket-reader thread reports to the executor.
enum Event {
    Frame(Frame),
    /// The byte stream can never parse as a frame again.
    Malformed(String),
    /// No complete frame within the idle timeout.
    Idle,
    /// EOF or socket error.
    Disconnected,
}

/// In-flight statement registration: the reader trips the flag when a
/// matching CANCEL (or a disconnect) arrives.
type CancelSlot = Arc<Mutex<Option<(u64, CancelFlag)>>>;

fn serve_conn(mut stream: TcpStream, inner: &Arc<ServerInner>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
    // Handshake first, on this thread: one HELLO within the timeout.
    let mut buf = FrameBuf::new();
    let hello = match read_one_frame(&mut stream, &mut buf, inner.cfg.handshake_timeout) {
        Ok(Some(f)) => f,
        Ok(None) => return, // disconnected or timed out silently
        Err(m) => {
            inner.m().protocol_errors.inc();
            send(&mut stream, &conn_error(ErrorCode::Protocol, m));
            return;
        }
    };
    match hello {
        Frame::Hello { version, token } => {
            if version != PROTO_VERSION {
                inner.m().protocol_errors.inc();
                send(
                    &mut stream,
                    &conn_error(
                        ErrorCode::Protocol,
                        format!("protocol version {version} unsupported (want {PROTO_VERSION})"),
                    ),
                );
                return;
            }
            if let Some(required) = &inner.cfg.auth_token {
                if &token != required {
                    send(&mut stream, &conn_error(ErrorCode::Auth, "bad token"));
                    return;
                }
            }
        }
        _ => {
            inner.m().protocol_errors.inc();
            send(
                &mut stream,
                &conn_error(ErrorCode::Protocol, "expected HELLO"),
            );
            return;
        }
    }
    // Admission: the primary's session gate is the authority; shed
    // verdicts pass through as typed frames. Snapshot the backend under
    // the read lock — the connection keeps serving what it was admitted
    // to even if a promotion swaps the backend underneath.
    let picked = match &*inner.backend() {
        Backend::Primary(svc) => Ok(Arc::clone(svc)),
        Backend::Replica(r) => Err(Arc::clone(r)),
    };
    let mut backend_conn = match picked {
        Ok(svc) => match svc.connect() {
            Ok(h) => ConnBackend::Primary(h),
            Err(e) => {
                let (code, retry_after_ms, message) = map_service_err(&e);
                send(
                    &mut stream,
                    &Frame::Error {
                        id: 0,
                        code,
                        retry_after_ms,
                        message,
                    },
                );
                return;
            }
        },
        Err(r) => ConnBackend::Replica {
            reader: EpochReader::new(r.epoch(), r.base_opts().clone(), Arc::clone(r.registry())),
            shared: r,
        },
    };
    let session = inner.next_session.fetch_add(1, Ordering::Relaxed);
    let (role, epoch) = {
        let b = inner.backend();
        (b.role(), b.epoch_seq())
    };
    if !send(
        &mut stream,
        &Frame::HelloAck {
            session,
            role,
            epoch,
        },
    ) {
        return;
    }
    // Split into reader + executor.
    let cancel_slot: CancelSlot = Arc::new(Mutex::new(None));
    let conn_stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::sync_channel::<Event>(64);
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let reader = {
        let slot = Arc::clone(&cancel_slot);
        let stop = Arc::clone(&conn_stop);
        let cfg = inner.cfg.clone();
        let metrics_cancels = Arc::clone(&inner.m().cancels);
        std::thread::Builder::new()
            .name("xsql-net-read".into())
            .spawn(move || reader_loop(read_half, buf, tx, slot, stop, cfg, metrics_cancels))
            .expect("spawn conn reader")
    };
    executor_loop(&mut stream, rx, &mut backend_conn, &cancel_slot, inner);
    // Tear down: close both halves so the reader unblocks, then join.
    conn_stop.store(true, Ordering::Release);
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = reader.join();
}

/// Blocking-reads until one complete frame, a decode error, EOF, or
/// the deadline. Used only for the handshake.
fn read_one_frame(
    stream: &mut TcpStream,
    buf: &mut FrameBuf,
    timeout: Duration,
) -> Result<Option<Frame>, String> {
    let deadline = Instant::now() + timeout;
    let mut chunk = [0u8; 4096];
    loop {
        match buf.next_frame() {
            Ok(Some(f)) => return Ok(Some(f)),
            Ok(None) => {}
            Err(e) => return Err(e.to_string()),
        }
        let now = Instant::now();
        if now >= deadline {
            return Ok(None);
        }
        let _ = stream.set_read_timeout(Some((deadline - now).min(Duration::from_millis(100))));
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(None),
            Ok(n) => buf.push(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return Ok(None),
        }
    }
}

/// The socket-reader thread: parses frames as bytes arrive, handles
/// CANCEL inline (it must overtake the executor), forwards the rest,
/// and enforces the idle and torn-frame deadlines.
#[allow(clippy::too_many_arguments)]
fn reader_loop(
    mut stream: TcpStream,
    mut buf: FrameBuf,
    tx: SyncSender<Event>,
    cancel_slot: CancelSlot,
    stop: Arc<AtomicBool>,
    cfg: ServerConfig,
    cancels: Arc<telemetry::Counter>,
) {
    let trip_current = |why_disconnect: bool| {
        // A vanished or malformed peer implicitly cancels its in-flight
        // statement: nobody is left to read the answer.
        let _ = why_disconnect;
        if let Some((_, flag)) = &*cancel_slot.lock().unwrap_or_else(|e| e.into_inner()) {
            flag.cancel();
        }
    };
    let _ = stream.set_read_timeout(Some(cfg.poll_interval));
    let mut chunk = [0u8; 8192];
    let mut last_frame = Instant::now();
    let mut partial_since: Option<Instant> = None;
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        // Drain everything already buffered first — the handshake read
        // may have slurped bytes past HELLO, and a peer that then goes
        // quiet must not park them unseen.
        loop {
            match buf.next_frame() {
                Ok(Some(Frame::Cancel { id })) => {
                    let slot = cancel_slot.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some((cur, flag)) = &*slot {
                        if *cur == id {
                            flag.cancel();
                            cancels.inc();
                        }
                    }
                    last_frame = Instant::now();
                }
                Ok(Some(f)) => {
                    last_frame = Instant::now();
                    if tx.send(Event::Frame(f)).is_err() {
                        return; // executor gone
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    trip_current(false);
                    let _ = tx.send(Event::Malformed(e.to_string()));
                    return;
                }
            }
        }
        partial_since = if buf.has_partial() {
            partial_since.or_else(|| Some(Instant::now()))
        } else {
            None
        };
        match stream.read(&mut chunk) {
            Ok(0) => {
                trip_current(true);
                let _ = tx.send(Event::Disconnected);
                return;
            }
            Ok(n) => buf.push(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if let Some(since) = partial_since {
                    if since.elapsed() >= cfg.frame_timeout {
                        trip_current(false);
                        let _ = tx.send(Event::Malformed(
                            "partial frame timed out (torn write?)".into(),
                        ));
                        return;
                    }
                }
                if last_frame.elapsed() >= cfg.idle_timeout {
                    let _ = tx.send(Event::Idle);
                    return;
                }
            }
            Err(_) => {
                trip_current(true);
                let _ = tx.send(Event::Disconnected);
                return;
            }
        }
    }
}

/// Per-connection execution state.
enum ConnBackend {
    Primary(SessionHandle),
    Replica {
        shared: Arc<ReplicaShared>,
        /// The connection's reader; it also holds the connection's
        /// prepared statements (read-only bodies only).
        reader: EpochReader,
    },
}

fn executor_loop(
    stream: &mut TcpStream,
    rx: Receiver<Event>,
    conn: &mut ConnBackend,
    cancel_slot: &CancelSlot,
    inner: &Arc<ServerInner>,
) {
    loop {
        let ev = match rx.recv_timeout(inner.cfg.poll_interval) {
            Ok(ev) => ev,
            Err(RecvTimeoutError::Timeout) => {
                if inner.stopping.load(Ordering::Acquire) {
                    let _ = send(stream, &Frame::Goodbye);
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let frame = match ev {
            Event::Frame(f) => f,
            Event::Malformed(m) => {
                inner.m().protocol_errors.inc();
                send(stream, &conn_error(ErrorCode::Protocol, m));
                return;
            }
            Event::Idle => {
                inner.m().idle_reaped.inc();
                send(
                    stream,
                    &conn_error(ErrorCode::IdleTimeout, "connection idle too long"),
                );
                return;
            }
            Event::Disconnected => return,
        };
        // The three statement frames run through one path, so deadlines,
        // cancel, draining, and error mapping behave identically.
        // Prepared names live in the connection's reader session, on
        // primary and replica alike. Every other frame is handled in
        // place.
        let (id, deadline_ms, stmt) = match parse_request(frame) {
            Ok(req) => req,
            Err(Frame::Ping) => {
                // Compute the health word before writing: holding the
                // backend lock across a socket write would let a slow
                // client stall a promotion.
                let pong = {
                    let b = inner.backend();
                    Frame::Pong {
                        role: b.role(),
                        generation: b.generation(),
                        epoch: b.epoch_seq(),
                        lag: b.lag(),
                    }
                };
                if !send(stream, &pong) {
                    return;
                }
                continue;
            }
            Err(Frame::Promote) => {
                let reply = handle_promote(inner);
                if !send(stream, &reply) {
                    return;
                }
                continue;
            }
            Err(Frame::Goodbye) => {
                let _ = send(stream, &Frame::Goodbye);
                return;
            }
            // Cancel is consumed reader-side; any other frame from a
            // client is a grammar violation.
            Err(_) => {
                inner.m().protocol_errors.inc();
                send(
                    stream,
                    &conn_error(ErrorCode::Protocol, "unexpected frame kind from client"),
                );
                return;
            }
        };
        inner.m().requests.inc();
        if inner.draining.load(Ordering::Acquire) {
            send(
                stream,
                &Frame::Error {
                    id,
                    code: ErrorCode::ShuttingDown,
                    retry_after_ms: inner.retry_hint_ms(),
                    message: "server is draining".into(),
                },
            );
            let _ = send(stream, &Frame::Goodbye);
            return;
        }
        if !execute_one(stream, conn, cancel_slot, inner, id, deadline_ms, stmt) {
            return; // write failure: peer is gone
        }
    }
}

/// A statement frame's id, deadline and statement, which is parsed here
/// and nowhere after: a `Prepare` frame's name and body, and an
/// `ExecutePrepared` frame's name and each argument, must each be
/// exactly one of their kind. Any other frame comes back as `Err`.
fn parse_request(frame: Frame) -> Result<(u64, u64, XsqlResult<Stmt>), Frame> {
    Ok(match frame {
        Frame::Execute {
            id,
            deadline_ms,
            src,
        } => (id, deadline_ms, xsql::parse(&src)),
        Frame::Prepare {
            id,
            deadline_ms,
            name,
            src,
        } => (id, deadline_ms, xsql::parse_prepare(&name, &src)),
        Frame::ExecutePrepared {
            id,
            deadline_ms,
            name,
            args,
        } => (id, deadline_ms, xsql::parse_execute(&name, &args)),
        other => return Err(other),
    })
}

/// What one statement produced, before it is encoded: a service
/// result to render, or one ready-made frame (an error, a redirect, an
/// acknowledgement).
enum Reply {
    Exec(ExecResult),
    Frame(Frame),
}

/// Runs one statement request and streams its response; a statement
/// that did not parse is answered with its error. Returns false when
/// the peer stopped reading (write failure) and the connection should
/// die.
fn execute_one(
    stream: &mut TcpStream,
    conn: &mut ConnBackend,
    cancel_slot: &CancelSlot,
    inner: &Arc<ServerInner>,
    id: u64,
    deadline_ms: u64,
    stmt: XsqlResult<Stmt>,
) -> bool {
    let ctx = QueryContext {
        deadline: (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms)),
        cancel: CancelFlag::new(),
        cancel_at_tick: None,
    };
    *cancel_slot.lock().unwrap_or_else(|e| e.into_inner()) = Some((id, ctx.cancel.clone()));
    let reply = match (stmt, conn) {
        (Err(e), _) => Reply::Frame(error_frame(id, &ServiceError::Xsql(e))),
        (Ok(stmt), ConnBackend::Primary(handle)) => match handle.execute(&stmt, &ctx) {
            Ok(r) => Reply::Exec(r),
            Err(ServiceError::Fenced { .. }) => {
                // Deposed: a newer generation owns the store. The write
                // provably never reached an engine (the writer refused
                // before ack), so redirect rather than error.
                let m = inner.m();
                m.fenced_refusals.inc();
                m.role.set(role_gauge_value(Role::Fenced));
                Reply::Frame(Frame::NotPrimary {
                    id,
                    leader_hint: inner.leader_hint(),
                })
            }
            Err(e) => Reply::Frame(error_frame(id, &e)),
        },
        (Ok(stmt), ConnBackend::Replica { shared, reader }) => {
            replica_execute(shared, reader, id, &stmt, &ctx, &inner.leader_hint())
        }
    };
    *cancel_slot.lock().unwrap_or_else(|e| e.into_inner()) = None;
    let started = Instant::now();
    let mut wire = Vec::with_capacity(1024);
    match reply {
        Reply::Exec(r) => encode_result(&mut wire, id, r, inner),
        Reply::Frame(f) => frame::encode_into(&mut wire, &f),
    }
    {
        let m = inner.m();
        m.encode_us.observe_since(started);
        m.reply_bytes.add(wire.len() as u64);
    }
    stream.write_all(&wire).is_ok()
}

/// Encodes the reply to a successful execution.
fn encode_result(out: &mut Vec<u8>, id: u64, r: ExecResult, inner: &Arc<ServerInner>) {
    let done = match r {
        ExecResult::Read(read) => return encode_read(out, id, &read),
        ExecResult::Write(ack) | ExecResult::TxnCommitted(ack) => {
            // Render against the epoch that exposes the write: the
            // current one is always at least as new.
            let db = match &*inner.backend() {
                Backend::Primary(svc) => svc.epoch().db,
                Backend::Replica(r) => r.epoch().db,
            };
            let info = ack
                .outcomes
                .iter()
                .map(|o| crate::render_outcome(&db, o))
                .collect::<Vec<_>>()
                .join("");
            Frame::Done {
                id,
                epoch: ack.epoch,
                rows: 0,
                info: if info.is_empty() {
                    "committed\n".into()
                } else {
                    info
                },
            }
        }
        ExecResult::TxnStarted => done_info(id, "transaction started\n"),
        ExecResult::Buffered => done_info(id, "buffered\n"),
        ExecResult::TxnRolledBack => done_info(id, "transaction rolled back\n"),
    };
    frame::encode_into(out, &done);
}

fn done_info(id: u64, info: &str) -> Frame {
    Frame::Done {
        id,
        epoch: 0,
        rows: 0,
        info: info.into(),
    }
}

/// Encodes a read result: header, rows (rendered server-side against
/// the read's own snapshot, straight into `out`), terminal Done. The
/// one relational writer for primary and replica reads.
fn encode_read(out: &mut Vec<u8>, id: u64, r: &ReadResult) {
    let done = match &r.outcome {
        Outcome::Relation(rel) => {
            frame::encode_into(
                out,
                &Frame::RowsHeader {
                    id,
                    epoch: r.epoch,
                    columns: rel.columns().to_vec(),
                },
            );
            let oids = r.snapshot.oids();
            for t in rel.iter() {
                frame::encode_row_into(out, id, oids, t);
            }
            Frame::Done {
                id,
                epoch: r.epoch,
                rows: rel.len() as u64,
                info: String::new(),
            }
        }
        other => Frame::Done {
            id,
            epoch: r.epoch,
            rows: 0,
            info: crate::render_outcome(&r.snapshot, other),
        },
    };
    frame::encode_into(out, &done);
}

/// Executes one statement against the replica's latest published
/// epoch. Writes (and transaction control) are refused with a
/// `NotPrimary` redirect carrying the configured leader hint.
fn replica_execute(
    shared: &ReplicaShared,
    reader: &mut EpochReader,
    id: u64,
    stmt: &Stmt,
    ctx: &QueryContext,
    leader_hint: &str,
) -> Reply {
    let writes = match stmt {
        Stmt::Stats => {
            return Reply::Frame(Frame::Done {
                id,
                epoch: shared.epoch().seq,
                rows: 0,
                info: shared.registry().render(),
            })
        }
        // Only read-only bodies are ever prepared here, so every
        // EXECUTE reads (an unknown name is the reader's error).
        Stmt::Prepare { stmt: body, .. } => !service::is_read_only(body),
        Stmt::Execute { .. } => false,
        s => !service::is_read_only(s),
    };
    if writes {
        // Provably pre-execution: the statement was never handed to an
        // engine, so the client may retry it elsewhere unconditionally.
        return Reply::Frame(Frame::NotPrimary {
            id,
            leader_hint: leader_hint.into(),
        });
    }
    match reader.read(shared.epoch_cell(), stmt, ctx) {
        Ok(r) => Reply::Exec(ExecResult::Read(r)),
        Err(e) => Reply::Frame(error_frame(id, &ServiceError::Xsql(e))),
    }
}

/// Handles a `PROMOTE` admin frame: token-gated, idempotent on an
/// existing primary, otherwise runs the embedder's promotion hook and
/// swaps the backend so new connections land on the primary.
fn handle_promote(inner: &Arc<ServerInner>) -> Frame {
    if inner.cfg.auth_token.is_none() {
        // The whole point of the fencing term is that promotion is a
        // deliberate operator action; an unauthenticated surface must
        // not expose it.
        return conn_error(
            ErrorCode::Auth,
            "promotion requires a server configured with a shared-secret token",
        );
    }
    {
        let b = inner.backend();
        if let Backend::Primary(svc) = &*b {
            if let Some(observed) = svc.fenced() {
                return conn_error(
                    ErrorCode::Stmt,
                    format!(
                        "this node is fenced by generation {observed}; \
                         restart it as a replica before promoting it"
                    ),
                );
            }
            // Already the primary: promotion is idempotent.
            return Frame::PromoteAck {
                generation: svc.generation(),
            };
        }
    }
    let hook = inner
        .promote_hook
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take();
    let Some(hook) = hook else {
        return conn_error(
            ErrorCode::Internal,
            "this replica cannot be promoted (no promotion hook, \
                      or a promotion is already in flight)",
        );
    };
    match hook() {
        Ok(svc) => {
            let generation = svc.generation();
            let registry = Arc::clone(svc.registry());
            *inner.backend.write().unwrap_or_else(|e| e.into_inner()) = Backend::Primary(svc);
            // Rebuild the metric handles in the new primary's registry
            // so STATS on the promoted node shows the network tier.
            {
                let mut m = inner.metrics.write().unwrap_or_else(|e| e.into_inner());
                *m = NetMetrics::new(&registry);
                m.promotions.inc();
                m.role.set(role_gauge_value(Role::Primary));
            }
            Frame::PromoteAck { generation }
        }
        Err(m) => conn_error(ErrorCode::Internal, format!("promotion failed: {m}")),
    }
}

/// Maps a service error to the wire contract.
fn map_service_err(e: &ServiceError) -> (ErrorCode, u64, String) {
    match e {
        ServiceError::Overloaded { retry_after } => (
            ErrorCode::Overloaded,
            retry_after.as_millis() as u64,
            e.to_string(),
        ),
        ServiceError::ReadOnly { retry_after } => (
            ErrorCode::ReadOnly,
            retry_after.as_millis() as u64,
            e.to_string(),
        ),
        ServiceError::ShuttingDown => (ErrorCode::ShuttingDown, 0, e.to_string()),
        ServiceError::Poisoned(_) => (ErrorCode::Poisoned, 0, e.to_string()),
        // Normally intercepted earlier and answered with a NotPrimary
        // redirect; as a plain error it is not same-node-retryable.
        ServiceError::Fenced { .. } => (ErrorCode::Stmt, 0, e.to_string()),
        ServiceError::Xsql(xsql::XsqlError::Cancelled { .. }) => {
            (ErrorCode::Cancelled, 0, e.to_string())
        }
        ServiceError::Xsql(_) | ServiceError::Protocol(_) => (ErrorCode::Stmt, 0, e.to_string()),
    }
}

/// A connection-level error frame (`id` 0) with no retry hint.
fn conn_error(code: ErrorCode, message: impl Into<String>) -> Frame {
    Frame::Error {
        id: 0,
        code,
        retry_after_ms: 0,
        message: message.into(),
    }
}

fn error_frame(id: u64, e: &ServiceError) -> Frame {
    let (code, retry_after_ms, message) = map_service_err(e);
    Frame::Error {
        id,
        code,
        retry_after_ms,
        message,
    }
}

/// Writes one frame; false when the peer is unreachable.
fn send(stream: &mut TcpStream, f: &Frame) -> bool {
    stream.write_all(&frame::encode(f)).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{ReplicaConfig, ReplicaCore};
    use crate::ship::ShipSource;

    /// A ship source with nothing shipped: the replica serves its base.
    struct Nothing;

    impl ShipSource for Nothing {
        fn fetch(&mut self, _name: &str) -> std::io::Result<Option<Vec<u8>>> {
            Ok(None)
        }
    }

    /// Every request on the replica read path is parsed exactly once, in
    /// the step from frame to statement: plain queries, PREPARE and
    /// EXECUTE alike, and nothing after that step parses again.
    #[test]
    fn replica_requests_are_parsed_once() {
        let mut s = xsql::Session::new(oodb::Database::new());
        s.run_script(
            "CREATE CLASS Person;
             ALTER CLASS Person ADD SIGNATURE Age => Numeral;
             CREATE OBJECT mary CLASS Person SET Age = 31;",
        )
        .unwrap();
        let opts = xsql::EvalOptions::default();
        let core = ReplicaCore::new(
            Box::new(Nothing),
            s.into_db(),
            ReplicaConfig {
                base_tag: "test".into(),
                opts: opts.clone(),
            },
        );
        let shared = core.shared();
        let mut reader = EpochReader::new(shared.epoch(), opts, Arc::clone(shared.registry()));
        let execute = |src: &str| Frame::Execute {
            id: 1,
            deadline_ms: 0,
            src: src.into(),
        };
        let execute_prepared = |arg: &str| Frame::ExecutePrepared {
            id: 1,
            deadline_ms: 0,
            name: "q".into(),
            args: vec![arg.into()],
        };
        let requests = [
            execute("SELECT X FROM Person X WHERE X.Age > 30"),
            execute("SELECT X FROM Person X WHERE X.Age > 30"),
            Frame::Prepare {
                id: 1,
                deadline_ms: 0,
                name: "q".into(),
                src: "SELECT X FROM Person X WHERE X.Age > ?1".into(),
            },
            execute_prepared("30"),
            execute_prepared("40"),
            execute("EXECUTE q (30)"),
        ];
        let n = requests.len() as u64;
        let parses = xsql::parses_on_this_thread();
        for frame in requests {
            let shown = format!("{frame:?}");
            let Ok((id, _, Ok(stmt))) = parse_request(frame) else {
                panic!("{shown} did not parse");
            };
            let reply = replica_execute(
                &shared,
                &mut reader,
                id,
                &stmt,
                &QueryContext::default(),
                "",
            );
            assert!(matches!(reply, Reply::Exec(ExecResult::Read(_))), "{shown}");
        }
        assert_eq!(xsql::parses_on_this_thread() - parses, n);
    }
}
