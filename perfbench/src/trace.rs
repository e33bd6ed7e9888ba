//! The traced run's instruments, all in the benchmark's own code: spans
//! kept in memory, replays of each layer's public functions on the
//! inputs and replies of sampled operations, and readings of the
//! service's telemetry registry.

use crate::workload::{Op, ReqKind};
use net::frame::{self, Frame, FrameBuf};
use net::Response;
use service::Service;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;
use telemetry::Registry;
use xsql::{EvalOptions, Outcome, Session};

/// One completed span. Operations are root spans (`parent == 0`); the
/// requests an operation sent and the layer calls replayed for it are
/// its children.
struct Span {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// In-memory span store, written out once the run ends.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its id.
    fn record(
        &mut self,
        parent: u64,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end,
        });
        id
    }

    /// Times `f` as a child span of `parent`.
    fn time<T>(&mut self, parent: u64, req: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(parent, req, name, start, Instant::now());
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Mean duration in µs of the spans named `name` (0 when none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(sum, n), s| {
                (sum + (s.end - s.start).as_secs_f64() * 1e6, n + 1)
            });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| (t - self.t0).as_secs_f64() * 1e6;
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.parent,
                s.req,
                s.name,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}

/// Counts gathered alongside the replayed spans.
#[derive(Default)]
pub struct Counts {
    pub replies: u64,
    pub reply_bytes: u64,
    pub frames: u64,
    pub explained: u64,
    pub eval_ticks: u64,
    pub rows_out: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Replays layer calls for sampled operations on a private session
/// built from the service's latest epoch, the way a connection's
/// reader session is.
pub struct Replayer {
    prepare_src: Option<String>,
    /// The private reader session and the epoch it was built from.
    reader: Option<(u64, Session)>,
    pub counts: Counts,
}

impl Replayer {
    pub fn new(prepare_src: Option<String>) -> Replayer {
        Replayer {
            prepare_src,
            reader: None,
            counts: Counts::default(),
        }
    }

    /// Records `op` (root span plus one child per request) and replays
    /// its layer calls as further children.
    pub fn trace_op(
        &mut self,
        t: &mut Tracer,
        req_id: u64,
        op: &Op,
        svc: &Service,
        replay: bool,
    ) -> Result<(), String> {
        let root = t.record(0, req_id, "op", op.start, op.end);
        for r in &op.reqs {
            let name = match r.kind {
                ReqKind::Read => "client.read",
                ReqKind::FreshRead => "client.fresh_read",
                ReqKind::Commit => "client.commit",
            };
            t.record(root, req_id, name, r.start, r.end);
        }
        if replay {
            self.replay(t, root, req_id, op, svc)?;
        }
        // The root covers the operation and its replays.
        let end = Instant::now();
        t.spans[root as usize - 1].end = end;
        Ok(())
    }

    fn replay(
        &mut self,
        t: &mut Tracer,
        root: u64,
        rid: u64,
        op: &Op,
        svc: &Service,
    ) -> Result<(), String> {
        let ep = svc.epoch();
        // Only the copy is timed; it is freed outside the span.
        let copy = t.time(root, rid, "oodb.clone", || (*ep.db).clone());
        drop(copy);
        // `read_in_slot`'s rebuild of a connection's reader session.
        let rebuilt = t.time(root, rid, "service.reader_rebuild", || {
            Session::with_options((*ep.db).clone(), EvalOptions::default())
        });
        if self.reader.as_ref().map(|(seq, _)| *seq) != Some(ep.seq) {
            let mut s = rebuilt;
            if let Some(p) = &self.prepare_src {
                s.run(p).map_err(|e| format!("replay prepare: {e}"))?;
            }
            self.reader = Some((ep.seq, s));
        }
        let sess = &mut self.reader.as_mut().expect("reader installed").1;
        for r in &op.reqs {
            let stmt = t
                .time(root, rid, "xsql.parse", || xsql::parse(&r.body))
                .map_err(|e| format!("replay parse: {e}"))?;
            t.time(root, rid, "xsql.resolve", || {
                xsql::resolve_stmt(sess.db_mut(), &stmt)
            })
            .map_err(|e| format!("replay resolve: {e}"))?;
            // Commits have no rows to replay; failed requests no reply.
            let Some(resp) = r.response.as_ref().filter(|_| r.kind != ReqKind::Commit) else {
                continue;
            };
            let (h0, m0) = cache_counts(sess.registry());
            let out = t
                .time(root, rid, "xsql.exec", || sess.run(&r.run_src))
                .map_err(|e| format!("replay exec: {e}"))?;
            let (h1, m1) = cache_counts(sess.registry());
            self.counts.cache_hits += h1 - h0;
            self.counts.cache_misses += m1 - m0;
            let Outcome::Relation(rel) = out else {
                return Err(format!("replay of `{}` gave no relation", r.run_src));
            };
            let oids = sess.db().oids();
            let cells = t.time(root, rid, "relalg.render", || {
                rel.iter()
                    .map(|tup| tup.iter().map(|o| oids.render(*o)).collect::<Vec<_>>())
                    .collect::<Vec<_>>()
            });
            if !same_rows(cells, &resp.rows) {
                return Err(format!(
                    "replayed rows differ from the reply to `{}`",
                    r.run_src
                ));
            }
            let frames = reply_frames(resp);
            let bytes = t.time(root, rid, "net.encode", || {
                let mut out = Vec::new();
                for f in &frames {
                    out.extend_from_slice(&frame::encode(f));
                }
                out
            });
            let decoded = t.time(root, rid, "net.decode", || decode_like_client(&bytes));
            if decoded != Some(frames.len()) {
                return Err("replayed frames did not decode".into());
            }
            std::hint::black_box(t.time(root, rid, "storage.crc32", || {
                storage::wal::crc32(0, &bytes)
            }));
            self.counts.replies += 1;
            self.counts.reply_bytes += bytes.len() as u64;
            self.counts.frames += frames.len() as u64;
            let explained = match sess.run(&format!("EXPLAIN ANALYZE {}", r.body)) {
                Ok(Outcome::Explained { report }) => report,
                other => return Err(format!("EXPLAIN ANALYZE gave {other:?}")),
            };
            self.counts.explained += 1;
            self.counts.eval_ticks += number_after(&explained, "cost: ");
            self.counts.rows_out += number_after(&explained, "rows out: ");
        }
        Ok(())
    }
}

fn cache_counts(r: &Registry) -> (u64, u64) {
    (
        r.counter_total("xsql_plan_cache_hits_total"),
        r.counter_total("xsql_plan_cache_misses_total"),
    )
}

/// Row-set equality (the two sessions may order rows differently).
fn same_rows(mut a: Vec<Vec<String>>, b: &[Vec<String>]) -> bool {
    if a == b {
        return true;
    }
    let mut b = b.to_vec();
    a.sort();
    b.sort();
    a == b
}

/// The frames the server sent for a relational reply.
fn reply_frames(r: &Response) -> Vec<Frame> {
    let id = 1;
    let mut frames = Vec::with_capacity(r.rows.len() + 2);
    frames.push(Frame::RowsHeader {
        id,
        epoch: r.epoch,
        columns: r.columns.clone(),
    });
    frames.extend(r.rows.iter().map(|cells| Frame::Row {
        id,
        cells: cells.clone(),
    }));
    frames.push(Frame::Done {
        id,
        epoch: r.epoch,
        rows: r.rows.len() as u64,
        info: r.info.clone(),
    });
    frames
}

/// Feeds `bytes` through a [`FrameBuf`] in the client's 8 KiB socket
/// reads, popping frames as they complete; the frame count, or `None`
/// on a decode error.
fn decode_like_client(bytes: &[u8]) -> Option<usize> {
    let mut buf = FrameBuf::new();
    let mut n = 0;
    for chunk in bytes.chunks(8192) {
        buf.push(chunk);
        while let Some(f) = buf.next_frame().ok()? {
            std::hint::black_box(f);
            n += 1;
        }
    }
    Some(n)
}

/// The integer following the first occurrence of `key` in `text`.
fn number_after(text: &str, key: &str) -> u64 {
    text.find(key)
        .map(|i| &text[i + key.len()..])
        .and_then(|rest| {
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            digits.parse().ok()
        })
        .unwrap_or(0)
}

/// Count and sum of one registry histogram, for before/after deltas.
fn hist(r: &Registry, name: &str, labels: &[(&str, &str)]) -> (u64, u64) {
    let h = r.latency(name, labels);
    (h.count(), h.sum())
}

/// Label pairs of one registry histogram.
type Labels = &'static [(&'static str, &'static str)];

/// The registry histograms the per-layer metrics use: key, name, labels.
const HISTS: [(&str, &str, Labels); 7] = [
    ("service.publish_us", "svc_epoch_publish_lag_us", &[]),
    ("service.write_queue_us", "svc_write_queue_latency_us", &[]),
    (
        "service.write_exec_us",
        "svc_exec_latency_us",
        &[("kind", "write")],
    ),
    (
        "service.read_exec_us",
        "svc_exec_latency_us",
        &[("kind", "read")],
    ),
    (
        "service.read_total_us",
        "svc_total_latency_us",
        &[("kind", "read")],
    ),
    (
        "storage.wal_append_us",
        "storage_wal_append_latency_us",
        &[],
    ),
    ("storage.fsync_us", "storage_wal_fsync_latency_us", &[]),
];

const COUNTERS: [(&str, &str); 3] = [
    ("storage.wal_bytes", "storage_wal_bytes_written_total"),
    ("storage.checkpoints", "storage_checkpoints_total"),
    ("storage.checkpoint_bytes", "storage_checkpoint_bytes_total"),
];

/// A snapshot of the registry readings.
pub struct RegistrySnap {
    hists: BTreeMap<&'static str, (u64, u64)>,
    counters: BTreeMap<&'static str, u64>,
}

impl RegistrySnap {
    pub fn take(r: &Registry) -> RegistrySnap {
        RegistrySnap {
            hists: HISTS
                .iter()
                .map(|(key, name, labels)| (*key, hist(r, name, labels)))
                .collect(),
            counters: COUNTERS
                .iter()
                .map(|(key, name)| (*key, r.counter_total(name)))
                .collect(),
        }
    }

    /// Mean µs of a histogram between `self` (earlier) and `later`,
    /// with the number of observations.
    pub fn mean_between(&self, later: &RegistrySnap, key: &str) -> (f64, u64) {
        let (c0, s0) = self.hists[key];
        let (c1, s1) = later.hists[key];
        let n = c1 - c0;
        (
            if n == 0 {
                0.0
            } else {
                (s1 - s0) as f64 / n as f64
            },
            n,
        )
    }

    pub fn counter_between(&self, later: &RegistrySnap, key: &str) -> u64 {
        later.counters[key] - self.counters[key]
    }
}
