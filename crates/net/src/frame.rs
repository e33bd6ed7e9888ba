//! The wire frame grammar: length-prefixed, checksummed, strictly
//! parsed.
//!
//! Every frame on the wire is
//!
//! ```text
//! | len: u32 LE | crc: u32 LE | body: len bytes |
//! ```
//!
//! where `crc` is the same CRC-32 (IEEE) the WAL uses
//! ([`storage::wal::crc32`]) computed over `body`, and `body` is
//!
//! ```text
//! | kind: u8 | payload |
//! ```
//!
//! Integers are little-endian; strings and byte fields are
//! `u32`-length-prefixed UTF-8. Decoding is *strict*: an unknown kind,
//! a checksum mismatch, a length beyond [`MAX_FRAME`], a string
//! running past the body, invalid UTF-8, or trailing bytes after the
//! payload are all [`FrameError::Corrupt`] — the server answers with a
//! typed protocol error and closes, never guesses. A prefix of a valid
//! frame is *not* an error; [`decode`] reports it as "need more bytes"
//! so torn TCP reads assemble incrementally in a [`FrameBuf`].

use oodb::{Oid, OidTable};
use std::fmt;
use storage::wal::crc32;

/// Protocol version sent in `HELLO`; the server rejects mismatches.
pub const PROTO_VERSION: u32 = 1;

/// Hard cap on one frame's body. Anything larger is corruption (a
/// flipped length byte), not a legitimate message; refusing it bounds
/// per-connection buffer memory.
pub const MAX_FRAME: u32 = 16 << 20;

/// Bytes of the `len + crc` frame header.
pub const HEADER: usize = 8;

/// Which side of the topology a connection landed on, reported in
/// `HELLO_ACK`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The single writable primary.
    Primary,
    /// A WAL-shipped read replica: snapshot reads only.
    Replica,
    /// A deposed primary: a newer generation owns the store, so this
    /// endpoint refuses writes but keeps serving its published epochs.
    Fenced,
}

impl Role {
    fn to_u8(self) -> u8 {
        match self {
            Role::Primary => 0,
            Role::Replica => 1,
            Role::Fenced => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Role, FrameError> {
        Ok(match v {
            0 => Role::Primary,
            1 => Role::Replica,
            2 => Role::Fenced,
            r => return Err(FrameError::Corrupt(format!("unknown role {r}"))),
        })
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Role::Primary => "primary",
            Role::Replica => "replica",
            Role::Fenced => "fenced",
        })
    }
}

/// Typed error codes carried by [`Frame::Error`]. The code — not the
/// human-readable message — is the retry contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The peer broke the frame grammar; the connection closes after
    /// this frame.
    Protocol = 1,
    /// Authentication failed at HELLO.
    Auth = 2,
    /// Admission control shed the request; retry after the hint.
    Overloaded = 3,
    /// Writes are refused here: the store is degraded (disk full) or
    /// this endpoint is a replica. Retry after the hint (against the
    /// primary, for the replica case).
    ReadOnly = 4,
    /// The server is draining; reconnect elsewhere or later.
    ShuttingDown = 5,
    /// The server's writer hit an unrecoverable storage fault.
    Poisoned = 6,
    /// The statement reached the engine and failed there (parse, type,
    /// budget, …). Retrying unchanged will fail identically.
    Stmt = 7,
    /// The statement was cancelled (deadline or CANCEL frame).
    Cancelled = 8,
    /// The connection sat idle past the server's limit and was reaped.
    IdleTimeout = 9,
    /// Unexpected server-side failure.
    Internal = 10,
}

impl ErrorCode {
    /// True when retrying the same request (after the supplied
    /// `retry_after`) can succeed without changing it.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Overloaded | ErrorCode::ReadOnly | ErrorCode::ShuttingDown
        )
    }

    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Auth,
            3 => ErrorCode::Overloaded,
            4 => ErrorCode::ReadOnly,
            5 => ErrorCode::ShuttingDown,
            6 => ErrorCode::Poisoned,
            7 => ErrorCode::Stmt,
            8 => ErrorCode::Cancelled,
            9 => ErrorCode::IdleTimeout,
            10 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// One protocol message. See the module docs for the byte layout and
/// `docs/SERVING.md` for the conversation grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server, first frame on a connection.
    Hello {
        /// Must equal [`PROTO_VERSION`].
        version: u32,
        /// Shared-secret token; empty when the server requires none.
        token: String,
    },
    /// Server → client: the connection is admitted.
    HelloAck {
        /// Server-assigned session id (diagnostics only).
        session: u64,
        /// Primary or replica.
        role: Role,
        /// Epoch published at admission time.
        epoch: u64,
    },
    /// Client → server: run one statement.
    Execute {
        /// Client-chosen id echoed on every frame of the response.
        id: u64,
        /// Per-statement deadline in milliseconds; `0` = server default.
        deadline_ms: u64,
        /// XSQL source text.
        src: String,
    },
    /// Client → server: cancel the in-flight statement with this id.
    /// Answered by the statement finishing early with a `Cancelled`
    /// error frame (or its normal result, if it won the race).
    Cancel {
        /// Id of the Execute to cancel.
        id: u64,
    },
    /// Client → server: liveness / health probe.
    Ping,
    /// Server → client: answer to Ping — the full health word a
    /// failover-aware client needs to pick a target.
    Pong {
        /// What this endpoint currently is (promotion and fencing
        /// change it at runtime).
        role: Role,
        /// The primary generation (fencing term) of the store this
        /// endpoint serves or tails.
        generation: u64,
        /// Latest epoch this endpoint serves.
        epoch: u64,
        /// Replication lag in commit units (always 0 on the primary).
        lag: u64,
    },
    /// Client → server: promote this replica to primary. Gated on the
    /// shared-secret token (rejected with `Auth` when the connection
    /// authenticated without one); idempotent on an existing primary.
    Promote,
    /// Server → client: promotion finished (or was a no-op); the
    /// endpoint now accepts writes under `generation`.
    PromoteAck {
        /// The generation the endpoint serves writes under.
        generation: u64,
    },
    /// Server → client: this endpoint cannot take the write — it is a
    /// replica or a fenced ex-primary. Provably pre-execution: the
    /// statement never reached an engine, so retrying elsewhere is
    /// always safe.
    NotPrimary {
        /// Echo of the Execute id; 0 for connection-level refusals.
        id: u64,
        /// Address of the believed-current primary; empty when the
        /// endpoint has no hint.
        leader_hint: String,
    },
    /// Either direction: orderly close.
    Goodbye,
    /// Server → client: a result set begins.
    RowsHeader {
        /// Echo of the Execute id.
        id: u64,
        /// Epoch the read evaluated against.
        epoch: u64,
        /// Column names.
        columns: Vec<String>,
    },
    /// Server → client: one result row, rendered.
    Row {
        /// Echo of the Execute id.
        id: u64,
        /// One rendered cell per column.
        cells: Vec<String>,
    },
    /// Server → client: the statement finished successfully.
    Done {
        /// Echo of the Execute id.
        id: u64,
        /// Epoch of the result: the read snapshot, or the epoch that
        /// first exposes a committed write.
        epoch: u64,
        /// Row count of the result set (0 for non-queries).
        rows: u64,
        /// Human-readable summary for non-query statements.
        info: String,
    },
    /// Client → server: compile a statement once under a name, for
    /// repeated [`Frame::ExecutePrepared`] runs. Prepared names are
    /// per-connection; a reconnect starts with none.
    Prepare {
        /// Client-chosen id echoed on every frame of the response.
        id: u64,
        /// Per-statement deadline in milliseconds; `0` = server default.
        deadline_ms: u64,
        /// Name to prepare under.
        name: String,
        /// XSQL source of the statement body (what follows `AS` in
        /// `PREPARE name AS …`); may contain `?1`, `?2`, … parameters.
        src: String,
    },
    /// Client → server: run a statement prepared earlier on this
    /// connection, binding `?n` to the n-th argument.
    ExecutePrepared {
        /// Client-chosen id echoed on every frame of the response.
        id: u64,
        /// Per-statement deadline in milliseconds; `0` = server default.
        deadline_ms: u64,
        /// Name given at [`Frame::Prepare`].
        name: String,
        /// Argument literals in XSQL syntax (e.g. `12000`, `"Smith"`),
        /// one per `?n` in the prepared body.
        args: Vec<String>,
    },
    /// Server → client: the statement (or the connection, when
    /// `id == 0`) failed.
    Error {
        /// Echo of the Execute id; 0 for connection-level errors.
        id: u64,
        /// The typed failure class.
        code: ErrorCode,
        /// Suggested back-off before retrying, 0 when not retryable.
        retry_after_ms: u64,
        /// Human-readable detail (not part of the contract).
        message: String,
    },
}

const K_HELLO: u8 = 0x01;
const K_HELLO_ACK: u8 = 0x02;
const K_EXECUTE: u8 = 0x03;
const K_CANCEL: u8 = 0x04;
const K_PING: u8 = 0x05;
const K_PONG: u8 = 0x06;
const K_GOODBYE: u8 = 0x07;
const K_PROMOTE: u8 = 0x08;
const K_ROWS_HEADER: u8 = 0x10;
const K_ROW: u8 = 0x11;
const K_DONE: u8 = 0x12;
const K_ERROR: u8 = 0x13;
const K_PROMOTE_ACK: u8 = 0x14;
const K_NOT_PRIMARY: u8 = 0x15;
const K_PREPARE: u8 = 0x16;
const K_EXECUTE_PREPARED: u8 = 0x17;

/// Why a byte sequence failed to decode as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes are not a valid frame and never will be, no matter
    /// what arrives next: bad checksum, bad kind, oversized length,
    /// malformed payload.
    Corrupt(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_strs(out: &mut Vec<u8>, ss: &[String]) {
    put_u32(out, ss.len() as u32);
    for s in ss {
        put_str(out, s);
    }
}

/// Encodes one frame to wire bytes (header + checksummed body).
pub fn encode(f: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + 32);
    encode_into(&mut out, f);
    out
}

/// Appends one frame's wire bytes to `out`: the body is written in
/// place behind a reserved header, which is then patched with the
/// body's length and checksum. Byte-identical to [`encode`].
pub fn encode_into(out: &mut Vec<u8>, f: &Frame) {
    let start = begin_frame(out);
    match f {
        Frame::Hello { version, token } => {
            out.push(K_HELLO);
            put_u32(out, *version);
            put_str(out, token);
        }
        Frame::HelloAck {
            session,
            role,
            epoch,
        } => {
            out.push(K_HELLO_ACK);
            put_u64(out, *session);
            out.push(role.to_u8());
            put_u64(out, *epoch);
        }
        Frame::Execute {
            id,
            deadline_ms,
            src,
        } => {
            out.push(K_EXECUTE);
            put_u64(out, *id);
            put_u64(out, *deadline_ms);
            put_str(out, src);
        }
        Frame::Cancel { id } => {
            out.push(K_CANCEL);
            put_u64(out, *id);
        }
        Frame::Prepare {
            id,
            deadline_ms,
            name,
            src,
        } => {
            out.push(K_PREPARE);
            put_u64(out, *id);
            put_u64(out, *deadline_ms);
            put_str(out, name);
            put_str(out, src);
        }
        Frame::ExecutePrepared {
            id,
            deadline_ms,
            name,
            args,
        } => {
            out.push(K_EXECUTE_PREPARED);
            put_u64(out, *id);
            put_u64(out, *deadline_ms);
            put_str(out, name);
            put_strs(out, args);
        }
        Frame::Ping => out.push(K_PING),
        Frame::Pong {
            role,
            generation,
            epoch,
            lag,
        } => {
            out.push(K_PONG);
            out.push(role.to_u8());
            put_u64(out, *generation);
            put_u64(out, *epoch);
            put_u64(out, *lag);
        }
        Frame::Goodbye => out.push(K_GOODBYE),
        Frame::Promote => out.push(K_PROMOTE),
        Frame::PromoteAck { generation } => {
            out.push(K_PROMOTE_ACK);
            put_u64(out, *generation);
        }
        Frame::NotPrimary { id, leader_hint } => {
            out.push(K_NOT_PRIMARY);
            put_u64(out, *id);
            put_str(out, leader_hint);
        }
        Frame::RowsHeader { id, epoch, columns } => {
            out.push(K_ROWS_HEADER);
            put_u64(out, *id);
            put_u64(out, *epoch);
            put_strs(out, columns);
        }
        Frame::Row { id, cells } => {
            out.push(K_ROW);
            put_u64(out, *id);
            put_strs(out, cells);
        }
        Frame::Done {
            id,
            epoch,
            rows,
            info,
        } => {
            out.push(K_DONE);
            put_u64(out, *id);
            put_u64(out, *epoch);
            put_u64(out, *rows);
            put_str(out, info);
        }
        Frame::Error {
            id,
            code,
            retry_after_ms,
            message,
        } => {
            out.push(K_ERROR);
            put_u64(out, *id);
            out.push(*code as u8);
            put_u64(out, *retry_after_ms);
            put_str(out, message);
        }
    }
    finish_frame(out, start);
}

/// Reserves a frame header at the end of `out`; returns its offset.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER]);
    start
}

/// Patches the header reserved at `start` with the length and CRC of
/// everything written after it.
fn finish_frame(out: &mut [u8], start: usize) {
    let (header, body) = out[start..].split_at_mut(HEADER);
    header[0..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[4..8].copy_from_slice(&crc32(0, body).to_le_bytes());
}

/// Appends one `Row` frame to `out`, rendering each cell of `tuple`
/// straight into the buffer. Byte-identical to encoding
/// `Frame::Row { id, cells }` with `cells[i] = oids.render(tuple[i])`,
/// without building the cell strings.
pub fn encode_row_into(out: &mut Vec<u8>, id: u64, oids: &OidTable, tuple: &[Oid]) {
    let start = begin_frame(out);
    out.push(K_ROW);
    put_u64(out, id);
    put_u32(out, tuple.len() as u32);
    for &o in tuple {
        let at = out.len();
        put_u32(out, 0);
        oids.render_into(o, &mut ByteSink(out));
        let n = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&n.to_le_bytes());
    }
    finish_frame(out, start);
}

/// `fmt::Write` over a byte buffer, so cells render in place.
struct ByteSink<'a>(&'a mut Vec<u8>);

impl fmt::Write for ByteSink<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Strict little-endian cursor over one frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.buf.len() - self.pos < n {
            return Err(FrameError::Corrupt("payload truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> Result<String, FrameError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FrameError::Corrupt("string is not UTF-8".into()))
    }

    fn strs(&mut self) -> Result<Vec<String>, FrameError> {
        let n = self.u32()? as usize;
        // Each entry costs at least its 4-byte length prefix; a count
        // beyond that is a forged header, not a big list.
        if n > (self.buf.len() - self.pos) / 4 {
            return Err(FrameError::Corrupt(
                "string list count overflows body".into(),
            ));
        }
        (0..n).map(|_| self.str()).collect()
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.pos != self.buf.len() {
            return Err(FrameError::Corrupt(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
    let mut c = Cursor { buf: body, pos: 0 };
    let kind = c.u8()?;
    let f = match kind {
        K_HELLO => Frame::Hello {
            version: c.u32()?,
            token: c.str()?,
        },
        K_HELLO_ACK => Frame::HelloAck {
            session: c.u64()?,
            role: Role::from_u8(c.u8()?)?,
            epoch: c.u64()?,
        },
        K_EXECUTE => Frame::Execute {
            id: c.u64()?,
            deadline_ms: c.u64()?,
            src: c.str()?,
        },
        K_CANCEL => Frame::Cancel { id: c.u64()? },
        K_PREPARE => Frame::Prepare {
            id: c.u64()?,
            deadline_ms: c.u64()?,
            name: c.str()?,
            src: c.str()?,
        },
        K_EXECUTE_PREPARED => Frame::ExecutePrepared {
            id: c.u64()?,
            deadline_ms: c.u64()?,
            name: c.str()?,
            args: c.strs()?,
        },
        K_PING => Frame::Ping,
        K_PONG => Frame::Pong {
            role: Role::from_u8(c.u8()?)?,
            generation: c.u64()?,
            epoch: c.u64()?,
            lag: c.u64()?,
        },
        K_GOODBYE => Frame::Goodbye,
        K_PROMOTE => Frame::Promote,
        K_PROMOTE_ACK => Frame::PromoteAck {
            generation: c.u64()?,
        },
        K_NOT_PRIMARY => Frame::NotPrimary {
            id: c.u64()?,
            leader_hint: c.str()?,
        },
        K_ROWS_HEADER => Frame::RowsHeader {
            id: c.u64()?,
            epoch: c.u64()?,
            columns: c.strs()?,
        },
        K_ROW => Frame::Row {
            id: c.u64()?,
            cells: c.strs()?,
        },
        K_DONE => Frame::Done {
            id: c.u64()?,
            epoch: c.u64()?,
            rows: c.u64()?,
            info: c.str()?,
        },
        K_ERROR => Frame::Error {
            id: c.u64()?,
            code: ErrorCode::from_u8(c.u8()?)
                .ok_or_else(|| FrameError::Corrupt("unknown error code".into()))?,
            retry_after_ms: c.u64()?,
            message: c.str()?,
        },
        k => return Err(FrameError::Corrupt(format!("unknown frame kind {k:#04x}"))),
    };
    c.finish()?;
    Ok(f)
}

/// Attempts to decode one frame from the front of `buf`.
///
/// `Ok(Some((frame, consumed)))` on success; `Ok(None)` when `buf`
/// holds a valid *prefix* and more bytes are needed; `Err` when the
/// bytes can never become a valid frame.
pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
    if buf.len() < HEADER {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4"));
    if len == 0 || len > MAX_FRAME {
        return Err(FrameError::Corrupt(format!(
            "frame length {len} out of range"
        )));
    }
    let crc = u32::from_le_bytes(buf[4..8].try_into().expect("4"));
    let total = HEADER + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let body = &buf[HEADER..total];
    if crc32(0, body) != crc {
        return Err(FrameError::Corrupt("checksum mismatch".into()));
    }
    Ok(Some((decode_body(body)?, total)))
}

/// Reassembly buffer for a TCP byte stream: push whatever chunk the
/// socket produced, pop complete frames.
///
/// Popping only advances a read cursor; consumed bytes are reclaimed
/// on the next [`FrameBuf::push`], and only when the cursor has passed
/// half the buffer or the chunk would otherwise grow it. A reply of
/// thousands of small frames therefore costs one short move per
/// socket read, not one per frame, and the buffer's capacity stays
/// within twice one chunk plus the largest frame.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Start of the first unconsumed byte.
    pos: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends raw bytes read from the socket.
    pub fn push(&mut self, chunk: &[u8]) {
        let len = self.buf.len();
        if self.pos > 0 && (2 * self.pos > len || len + chunk.len() > self.buf.capacity()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Pops the next complete frame, if the buffer holds one.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        match decode(&self.buf[self.pos..])? {
            Some((f, consumed)) => {
                self.pos += consumed;
                Ok(Some(f))
            }
            None => Ok(None),
        }
    }

    /// True when bytes of an incomplete frame are waiting.
    pub fn has_partial(&self) -> bool {
        self.pos < self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb::OidData;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: PROTO_VERSION,
                token: "s3cret".into(),
            },
            Frame::HelloAck {
                session: 7,
                role: Role::Replica,
                epoch: 42,
            },
            Frame::Execute {
                id: 1,
                deadline_ms: 250,
                src: "SELECT X FROM Counter X".into(),
            },
            Frame::Cancel { id: 1 },
            Frame::Prepare {
                id: 5,
                deadline_ms: 0,
                name: "rich".into(),
                src: "SELECT X FROM Employee X WHERE X.Salary > ?1".into(),
            },
            Frame::ExecutePrepared {
                id: 6,
                deadline_ms: 250,
                name: "rich".into(),
                args: vec!["12000".into(), "\"Smith\"".into()],
            },
            Frame::Ping,
            Frame::Pong {
                role: Role::Replica,
                generation: 2,
                epoch: 9,
                lag: 3,
            },
            Frame::Pong {
                role: Role::Fenced,
                generation: 2,
                epoch: 9,
                lag: 0,
            },
            Frame::Goodbye,
            Frame::Promote,
            Frame::PromoteAck { generation: 3 },
            Frame::NotPrimary {
                id: 4,
                leader_hint: "127.0.0.1:7878".into(),
            },
            Frame::RowsHeader {
                id: 1,
                epoch: 9,
                columns: vec!["X".into(), "W".into()],
            },
            Frame::Row {
                id: 1,
                cells: vec!["c0".into(), "41".into()],
            },
            Frame::Done {
                id: 1,
                epoch: 9,
                rows: 2,
                info: "committed".into(),
            },
            Frame::Error {
                id: 1,
                code: ErrorCode::Overloaded,
                retry_after_ms: 63,
                message: "service overloaded".into(),
            },
        ]
    }

    #[test]
    fn roundtrip_every_frame_kind() {
        for f in all_frames() {
            let bytes = encode(&f);
            let (got, consumed) = decode(&bytes).unwrap().unwrap();
            assert_eq!(consumed, bytes.len());
            assert_eq!(got, f);
        }
    }

    #[test]
    fn every_prefix_is_need_more_never_corrupt() {
        for f in all_frames() {
            let bytes = encode(&f);
            for k in 0..bytes.len() {
                assert_eq!(
                    decode(&bytes[..k]).unwrap(),
                    None,
                    "prefix of {k} bytes must ask for more"
                );
            }
        }
    }

    #[test]
    fn flipped_body_byte_is_caught_by_the_checksum() {
        let bytes = encode(&Frame::Execute {
            id: 3,
            deadline_ms: 0,
            src: "SELECT X FROM Counter X".into(),
        });
        for i in HEADER..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                decode(&bad).is_err(),
                "flip at body byte {i} must fail the checksum"
            );
        }
    }

    #[test]
    fn trailing_bytes_inside_the_body_are_rejected() {
        // Re-frame a valid body with one extra byte, fixing len + crc:
        // the strict cursor must still reject it.
        let mut body = vec![K_PING];
        body.push(0xAA);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(0, &body).to_le_bytes());
        bytes.extend_from_slice(&body);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn oversized_length_is_corrupt_not_a_wait() {
        let mut bytes = vec![0u8; HEADER];
        bytes[0..4].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn frame_buf_reassembles_byte_by_byte() {
        let frames = all_frames();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode(f));
        }
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        for b in wire {
            fb.push(&[b]);
            while let Some(f) = fb.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert!(!fb.has_partial());
    }
    #[test]
    fn encode_into_matches_encode_for_every_frame_kind() {
        let mut out = vec![0xEE]; // appends after existing bytes
        for f in all_frames() {
            let at = out.len();
            encode_into(&mut out, &f);
            assert_eq!(out[at..], encode(&f)[..], "{f:?}");
        }
    }

    /// An `OidTable` holding one OID of every `OidData` kind, and a
    /// nested id-term over them. `-0.0` and NaN cannot be interned
    /// (`OidTable::real` normalises and rejects them), so they enter as
    /// raw entries, as a decoded snapshot could carry them.
    fn every_kind() -> (OidTable, Vec<Oid>) {
        let mut t = OidTable::new();
        let sym = t.sym("mary123");
        let int = t.int(-42);
        let quoted = t.str("O'Brien \"Jr\"");
        let yes = t.bool(true);
        let nil = t.nil();
        let huge = t.real(1e300);
        let f = t.sym("f");
        let g = t.sym("g");
        let inner = t.func(g, &[int, quoted]);
        let nested = t.func(f, &[sym, inner, nil]);
        let mut entries: Vec<OidData> = t.entries().cloned().collect();
        let neg_zero = Oid::from_index(entries.len());
        entries.push(OidData::Real((-0.0f64).to_bits()));
        let nan = Oid::from_index(entries.len());
        entries.push(OidData::Real(f64::NAN.to_bits()));
        let t = OidTable::from_entries(entries);
        assert_eq!(t.render(neg_zero), "-0");
        assert_eq!(t.render(nan), "NaN");
        let oids = vec![sym, int, quoted, yes, nil, neg_zero, huge, nan, nested];
        (t, oids)
    }

    #[test]
    fn encode_row_into_matches_the_row_frame() {
        let (t, oids) = every_kind();
        let mut rows: Vec<Vec<Oid>> = oids.iter().map(|&o| vec![o]).collect();
        rows.push(Vec::new());
        rows.push(oids.clone());
        for (i, tuple) in rows.iter().enumerate() {
            let id = 0x0102_0304_0506_0708 + i as u64;
            let mut out = Vec::new();
            encode_row_into(&mut out, id, &t, tuple);
            let cells = tuple.iter().map(|&o| t.render(o)).collect();
            assert_eq!(out, encode(&Frame::Row { id, cells }), "row {i}");
        }
    }

    #[test]
    fn row_frame_bytes_are_pinned() {
        // len 25, crc, kind 0x11, id 1, two cells "c0" and "41".
        let golden = "19000000f837d6af11010000000000000002000000\
                      020000006330020000003431";
        let f = Frame::Row {
            id: 1,
            cells: vec!["c0".into(), "41".into()],
        };
        let hex: String = encode(&f).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden);
        let mut t = OidTable::new();
        let tuple = [t.sym("c0"), t.int(41)];
        let mut out = Vec::new();
        encode_row_into(&mut out, 1, &t, &tuple);
        assert_eq!(out, encode(&f));
    }

    fn row(i: usize) -> Frame {
        Frame::Row {
            id: 9,
            cells: vec![format!("emp{i}"), format!("{}", i * 37)],
        }
    }

    #[test]
    fn frame_buf_pops_ten_thousand_rows_in_order_with_bounded_memory() {
        let frames: Vec<Frame> = (0..10_000).map(row).collect();
        let mut wire = Vec::new();
        let mut largest = 0;
        for f in &frames {
            let at = wire.len();
            encode_into(&mut wire, f);
            largest = largest.max(wire.len() - at);
        }
        for chunk in [8192, 1] {
            let mut fb = FrameBuf::new();
            let mut got = 0;
            for piece in wire.chunks(chunk) {
                fb.push(piece);
                // Growth is amortised doubling, so the bound is twice
                // one chunk plus one partial frame.
                assert!(
                    fb.buf.capacity() <= 2 * (chunk + largest),
                    "capacity {} with {chunk}-byte chunks",
                    fb.buf.capacity()
                );
                while let Some(f) = fb.next_frame().unwrap() {
                    assert_eq!(f, frames[got], "frame {got}");
                    got += 1;
                }
            }
            assert_eq!(got, frames.len());
            assert!(!fb.has_partial());
        }
    }

    #[test]
    fn corrupt_frame_after_a_thousand_good_ones_fails_exactly_there() {
        let mut wire = Vec::new();
        for i in 0..1_000 {
            encode_into(&mut wire, &row(i));
        }
        let bad = wire.len();
        encode_into(&mut wire, &row(1_000));
        wire[bad + HEADER + 1] ^= 0x01; // a body byte: checksum mismatch
        encode_into(&mut wire, &row(1_001));
        for chunk in [8192, 7, 1] {
            let mut fb = FrameBuf::new();
            let mut good = 0;
            let mut failed = false;
            'feed: for piece in wire.chunks(chunk) {
                fb.push(piece);
                loop {
                    match fb.next_frame() {
                        Ok(Some(f)) => {
                            assert_eq!(f, row(good));
                            good += 1;
                        }
                        Ok(None) => break,
                        Err(_) => {
                            failed = true;
                            break 'feed;
                        }
                    }
                }
            }
            assert!(failed, "{chunk}-byte chunks never hit the corrupt frame");
            assert_eq!(good, 1_000, "{chunk}-byte chunks");
        }
    }
}
