//! Wire-protocol fuzzing, in the spirit of `tests/wal_torn_boundary.rs`
//! for the WAL: sweep **every** truncation point and **every** byte
//! corruption of a valid client byte stream against a live server and
//! prove that
//!
//! 1. the server never panics (it still serves a pristine conversation
//!    after the whole sweep),
//! 2. everything the server sends back is well-formed frames, and
//! 3. streams the server can *tell* are malformed are answered with a
//!    typed `Protocol` error frame before the connection closes —
//!    garbage gets an answer, not a vanishing act. (A stream cut at a
//!    frame boundary is indistinguishable from a client hanging up,
//!    and is closed without complaint.)

use net::{Backend, ErrorCode, Frame, FrameBuf, Server, ServerConfig, PROTO_VERSION};
use oodb::Database;
use service::{Service, ServiceConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsql::{EvalOptions, Session};

fn start_server() -> (Server, Arc<Service>) {
    let session = Session::with_options(Database::new(), EvalOptions::default());
    let svc = Arc::new(Service::start(session, ServiceConfig::default()));
    let server = Server::start(
        Backend::Primary(Arc::clone(&svc)),
        ServerConfig {
            // Tight so torn-frame reaping triggers inside the test, but
            // far above per-position round-trip time.
            handshake_timeout: Duration::from_millis(500),
            frame_timeout: Duration::from_millis(200),
            idle_timeout: Duration::from_secs(5),
            poll_interval: Duration::from_millis(2),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind");
    (server, svc)
}

/// The canonical two-frame client stream the sweeps mutate.
fn good_stream() -> Vec<u8> {
    let mut bytes = net::frame::encode(&Frame::Hello {
        version: PROTO_VERSION,
        token: String::new(),
    });
    bytes.extend_from_slice(&net::frame::encode(&Frame::Execute {
        id: 1,
        deadline_ms: 0,
        src: "SELECT X FROM Person X".into(),
    }));
    bytes
}

/// Sends `bytes`, closes the write half, and drains the response until
/// EOF (bounded). Panics if the server's reply is not a clean sequence
/// of complete, well-formed frames.
fn roundtrip(addr: &std::net::SocketAddr, bytes: &[u8]) -> Vec<Frame> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    // The peer may answer-and-close before we finish writing; a broken
    // pipe here is the server legitimately cutting off garbage.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                assert!(
                    Instant::now() < deadline,
                    "server neither answered nor closed within 5s"
                );
            }
            Err(_) => break, // reset: the server hung up hard
        }
    }
    let mut buf = FrameBuf::new();
    buf.push(&raw);
    let mut frames = Vec::new();
    loop {
        match buf.next_frame() {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => break,
            Err(e) => panic!("server sent a malformed frame: {e}"),
        }
    }
    assert!(
        !buf.has_partial(),
        "server closed mid-frame ({} stray bytes)",
        raw.len()
    );
    frames
}

fn assert_alive(addr: &std::net::SocketAddr) {
    let mut c = net::Client::connect(&addr.to_string(), "").expect("server still accepts");
    let h = c.ping().expect("server still answers");
    assert_eq!(h.lag, 0);
    c.goodbye();
}

#[test]
fn every_truncation_point_is_survived() {
    let (server, svc) = start_server();
    let addr = server.local_addr();
    let stream = good_stream();

    for k in 0..=stream.len() {
        let frames = roundtrip(&addr, &stream[..k]);
        // Whatever came back must be sane for the prefix sent: the
        // handshake only completes once the whole HELLO arrived.
        let hello_len = net::frame::encode(&Frame::Hello {
            version: PROTO_VERSION,
            token: String::new(),
        })
        .len();
        if k < hello_len {
            // At most a typed error (e.g. handshake garbage); never a
            // HELLO_ACK.
            assert!(
                !frames.iter().any(|f| matches!(f, Frame::HelloAck { .. })),
                "ack without a full HELLO at k={k}: {frames:?}"
            );
        } else {
            assert!(
                matches!(frames.first(), Some(Frame::HelloAck { .. })),
                "full HELLO at k={k} must be acked: {frames:?}"
            );
        }
    }
    assert_alive(&addr);
    server.shutdown();
    drop(svc);
}

#[test]
fn every_single_byte_corruption_is_survived_and_answered() {
    let (server, svc) = start_server();
    let addr = server.local_addr();
    let stream = good_stream();

    let mut typed_protocol_answers = 0usize;
    for i in 0..stream.len() {
        let mut mutated = stream.clone();
        mutated[i] ^= 0xA5;
        let frames = roundtrip(&addr, &mutated);
        for f in &frames {
            if let Frame::Error { code, .. } = f {
                assert!(
                    matches!(
                        code,
                        ErrorCode::Protocol | ErrorCode::Auth | ErrorCode::Stmt
                    ),
                    "unexpected error class at byte {i}: {f:?}"
                );
                if *code == ErrorCode::Protocol {
                    typed_protocol_answers += 1;
                }
            }
        }
    }
    // Most corruptions are detectable (checksummed body, strict
    // decoder) and must have been *answered*, not just dropped.
    assert!(
        typed_protocol_answers >= stream.len() / 4,
        "only {typed_protocol_answers} of {} corruptions got a typed protocol error",
        stream.len()
    );
    assert_alive(&addr);
    server.shutdown();
    drop(svc);
}

#[test]
fn random_garbage_and_oversized_lengths_are_refused() {
    let (server, svc) = start_server();
    let addr = server.local_addr();

    // A classic: huge length prefix. Must be refused outright, not
    // buffered until memory runs out.
    let mut huge = Vec::new();
    huge.extend_from_slice(&u32::MAX.to_le_bytes());
    huge.extend_from_slice(&[0u8; 64]);
    let frames = roundtrip(&addr, &huge);
    assert!(
        frames.iter().any(|f| matches!(
            f,
            Frame::Error {
                code: ErrorCode::Protocol,
                ..
            }
        )),
        "oversized length must get a typed refusal: {frames:?}"
    );

    // Deterministic pseudo-random garbage blobs.
    let mut state = 0x6a77_55aa_u64;
    for round in 0..16 {
        let mut blob = Vec::with_capacity(round * 17 + 3);
        for _ in 0..(round * 17 + 3) {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            blob.push((state >> 33) as u8);
        }
        let _ = roundtrip(&addr, &blob); // must not panic / hang
    }
    assert_alive(&addr);
    server.shutdown();
    drop(svc);
}

#[test]
fn a_torn_frame_is_reaped_with_a_typed_error() {
    let (server, svc) = start_server();
    let addr = server.local_addr();

    // Complete handshake, then leave half an Execute on the wire with
    // the connection open: the server must reap it via frame_timeout
    // (a stuck peer cannot hold a connection hostage), answering with
    // a typed error first.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&net::frame::encode(&Frame::Hello {
            version: PROTO_VERSION,
            token: String::new(),
        }))
        .expect("hello");
    let exec = net::frame::encode(&Frame::Execute {
        id: 1,
        deadline_ms: 0,
        src: "SELECT X FROM Person X".into(),
    });
    stream
        .write_all(&exec[..exec.len() / 2])
        .expect("half a frame");

    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut buf = FrameBuf::new();
    let mut chunk = [0u8; 4096];
    let mut frames = Vec::new();
    loop {
        match buf.next_frame() {
            Ok(Some(f)) => {
                frames.push(f);
                continue;
            }
            Ok(None) => {}
            Err(e) => panic!("malformed server frame: {e}"),
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.push(&chunk[..n]),
            Err(_) => break,
        }
    }
    assert!(
        matches!(frames.first(), Some(Frame::HelloAck { .. })),
        "handshake should have completed: {frames:?}"
    );
    assert!(
        frames.iter().any(|f| matches!(
            f,
            Frame::Error {
                code: ErrorCode::Protocol,
                ..
            }
        )),
        "torn frame must be reaped with a typed error: {frames:?}"
    );
    assert_alive(&addr);
    server.shutdown();
    drop(svc);
}

/// Fragments the field sweep strings together: XSQL tokens, separators
/// that would split a spliced statement, and bytes the lexer refuses.
const FIELD_BITS: &[&str] = &[
    "q", "p", "X", " ", "(", ")", ",", ";", "30", "-4", "1.5", "'Ada'", "\"", "'", "?1", "#", "AS",
    "SELECT", "FROM", "Person", "WHERE", "X.Age", ">", "UNION", "EXECUTE", "PREPARE", "EXPLAIN",
    "é", "\n", "{", "@",
];

/// A seeded run of `Prepare` and `ExecutePrepared` frames whose names,
/// bodies and arguments are random strings of [`FIELD_BITS`]. Every
/// frame gets a typed answer (rows, or a statement error), and the
/// connection never drops or panics the server.
#[test]
fn random_prepared_frame_fields_get_typed_answers() {
    let (server, svc) = start_server();
    let addr = server.local_addr();
    for seed in 0..4u64 {
        let mut c = net::Client::connect(&addr.to_string(), "").expect("connect");
        if seed == 0 {
            for src in [
                "CREATE CLASS Person",
                "ALTER CLASS Person ADD SIGNATURE Age => Numeral",
                "CREATE OBJECT mary CLASS Person SET Age = 31",
            ] {
                c.execute(src).expect("fixture");
            }
        }
        let mut state = 0x9e37_79b9_7f4a_7c15_u64 ^ seed;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let mut field = || -> String {
            let len = next(5);
            (0..len)
                .map(|_| FIELD_BITS[next(FIELD_BITS.len())])
                .collect()
        };
        let (mut ok, mut refused) = (0, 0);
        for i in 0..150 {
            let reply = if i % 3 == 0 {
                let body = match i % 2 {
                    0 => "SELECT X FROM Person X WHERE X.Age > ?1".to_string(),
                    _ => field(),
                };
                let name = if i % 4 == 0 { "q".to_string() } else { field() };
                c.prepare(&name, &body)
            } else {
                let name = if i % 2 == 0 { "q".to_string() } else { field() };
                let args: Vec<String> = (0..i % 3).map(|_| field()).collect();
                let args: Vec<&str> = args.iter().map(String::as_str).collect();
                c.execute_prepared(&name, &args)
            };
            match reply {
                Ok(_) => ok += 1,
                Err(net::NetError::Server {
                    code: ErrorCode::Stmt,
                    ..
                }) => refused += 1,
                Err(e) => panic!("seed {seed}, request {i}: untyped answer {e:?}"),
            }
        }
        assert!(
            ok > 0 && refused > 0,
            "seed {seed}: {ok} answered, {refused} refused"
        );
        c.ping().expect("the connection survives the sweep");
        c.goodbye();
    }
    assert_alive(&addr);
    server.shutdown();
    drop(svc);
}
