//! One-client TCP benchmark of the XSQL server.
//!
//! ```text
//! perfbench --workload wire_scan|point_update|path_walk --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Starts the real `net` server in-process on loopback over a durable
//! store and drives it with one client thread on one connection in a
//! closed loop, checking every reply. Set-up is repeated several times
//! and its median reported. `--trace 1` alternates untraced and traced
//! slices of the run: traced operations become root spans, every
//! fourth one also replays its layer calls as child spans, and the
//! run ends with a short write probe. It reports the per-layer metrics
//! and its own overhead (traced slices against untraced ones) and
//! writes the spans to `DIR/trace-<workload>-seed<N>.jsonl`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every reply was correct.

mod env;
mod stack;
mod trace;
mod workload;

use stack::Stack;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{RegistrySnap, Replayer, Tracer};
use workload::{Op, ReqKind, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Length of one untraced or traced slice of a `--trace 1` run.
const SLICE: Duration = Duration::from_millis(250);
/// Every this many traced operations, one replays its layer calls.
const REPLAY_EVERY: u64 = 4;
/// Commits in the write probe that ends a traced run.
const PROBE_COMMITS: usize = 24;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = num(&val)?,
            "--seconds" => a.seconds = num(&val)?.max(1),
            "--trace" => a.trace = num(&val)? != 0,
            "--out" => a.out = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {:?})",
            workload::NAMES
        ));
    }
    Ok(a)
}

/// Linear-interpolated quantile of `v` (sorted in place).
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The operations and request latencies of one part of the run.
#[derive(Default)]
struct Phase {
    op_ms: Vec<f64>,
    wall_s: f64,
    failed: u64,
    read_ms: Vec<f64>,
    fresh_ms: Vec<f64>,
    commit_ms: Vec<f64>,
}

impl Phase {
    fn add(&mut self, op: &Op) {
        self.op_ms.push((op.end - op.start).as_secs_f64() * 1e3);
        self.failed += u64::from(!op.ok);
        for r in &op.reqs {
            let ms = r.latency().as_secs_f64() * 1e3;
            match r.kind {
                ReqKind::Read => self.read_ms.push(ms),
                ReqKind::FreshRead => self.fresh_ms.push(ms),
                ReqKind::Commit => self.commit_ms.push(ms),
            }
        }
    }

    fn ops_per_s(&self) -> f64 {
        self.op_ms.len() as f64 / self.wall_s.max(1e-9)
    }

    /// Every latency series of this phase, as printed lines.
    fn report(&self, tag: &str) {
        let series = [
            ("op", &self.op_ms),
            ("read", &self.read_ms),
            ("fresh_read", &self.fresh_ms),
            ("commit", &self.commit_ms),
        ];
        for (name, v) in series {
            if v.is_empty() {
                continue;
            }
            let mut v = v.clone();
            println!(
                "{tag} {name}_p50_ms {:.4} ms  {name}_p90_ms {:.4} ms  {name}s_per_s {:.2} 1/s  (n={})",
                quantile(&mut v, 0.5),
                quantile(&mut v, 0.9),
                v.len() as f64 / self.wall_s.max(1e-9),
                v.len()
            );
        }
    }
}

/// Ordered `name → (value, unit)` pairs for the result line.
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn main() {
    match run() {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let t_oracle = Instant::now();
    let mut wl = Workload::new(&args.workload, args.seed)?;
    let oracle_s = t_oracle.elapsed().as_secs_f64();
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let store_dir = args.out.join(format!("store-{}", std::process::id()));

    // Set-up, several times over: data generation, store create,
    // service and server start, connect, PREPARE, warm-up.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let (mut warm_ops, mut warm_failed) = (0u64, 0u64);
    let mut live: Option<Stack> = None;
    for _ in 0..SETUPS {
        if let Some(old) = live.take() {
            old.stop();
        }
        wl.reset();
        let t = Instant::now();
        let db = datagen::figure1_scaled(&wl.params);
        let mut s = Stack::start(db, &store_dir, &wl.base_tag())?;
        wl.prepare(&mut s.client)?;
        for _ in 0..wl.warmup_ops() {
            warm_ops += 1;
            warm_failed += u64::from(!wl.op(&mut s.client).ok);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        live = Some(s);
    }
    let mut stack = live.expect("at least one set-up");
    let objects = stack.service().epoch().db.individual_count();
    println!(
        "env workload={} seed={} nproc={} cpu_affinity={} store_fs={} flush=\"{}\" objects={} clients=1 loop=closed",
        wl.name,
        args.seed,
        env::nproc(),
        env::cpu_affinity(),
        env::filesystem_of(&store_dir),
        stack::FLUSH_POLICY,
        objects
    );
    println!("oracle_s {oracle_s:.4} s (naive engine and salary model, not part of setup_s)");

    // The measured loop: untraced, or alternating untraced (A) and
    // traced (B) slices.
    let t0 = Instant::now();
    let total = Duration::from_secs(args.seconds);
    let mut a = Phase::default();
    let mut b = Phase::default();
    let mut tracer = Tracer::new(t0);
    let mut replayer = Replayer::new(wl.prepare_src());
    let before = RegistrySnap::take(stack.service().registry());
    let (mut slice, mut next_id, mut traced_ops) = (0u64, 1u64, 0u64);
    while t0.elapsed() < total {
        let traced = args.trace && slice % 2 == 1;
        let end = (Instant::now() + SLICE).min(t0 + total);
        let started = Instant::now();
        let mut wall = Duration::ZERO;
        while Instant::now() < end {
            let mut op = wl.op(&mut stack.client);
            if traced {
                let replay = traced_ops % REPLAY_EVERY == 0;
                if let Err(e) =
                    replayer.trace_op(&mut tracer, next_id, &op, stack.service(), replay)
                {
                    eprintln!("replay: {e}");
                    op.ok = false;
                }
                traced_ops += 1;
                b.add(&op);
            } else {
                a.add(&op);
            }
            next_id += 1;
            wall = started.elapsed();
        }
        if traced {
            b.wall_s += wall.as_secs_f64();
        } else {
            a.wall_s += wall.as_secs_f64();
        }
        slice += 1;
    }
    let after = RegistrySnap::take(stack.service().registry());

    let mut probe_failed = 0u64;
    let mut probe_commits = 0usize;
    if args.trace {
        for _ in 0..PROBE_COMMITS {
            probe_failed += u64::from(!wl.probe_write(&mut stack.client).ok);
            probe_commits += 1;
        }
    }
    let end_snap = RegistrySnap::take(stack.service().registry());
    stack.stop();
    let _ = std::fs::remove_dir_all(&store_dir);

    // Warm-up operations and the write probe are checked and counted
    // like measured ones.
    let attempted = warm_ops + (a.op_ms.len() + b.op_ms.len() + probe_commits) as u64;
    let failed = warm_failed + a.failed + b.failed + probe_failed;
    let correct = failed == 0;
    let mut setup = setup_s.clone();
    let setup_med = quantile(&mut setup, 0.5);
    println!(
        "setup_s {setup_med:.4} s (median of {SETUPS}: {})",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    a.report(if args.trace { "untraced" } else { "measured" });
    let mut m = Metrics(Vec::new());
    if !args.trace {
        let mut op = a.op_ms.clone();
        m.put("setup_s", setup_med, "s");
        m.put("op_p50_ms", quantile(&mut op, 0.5), "ms");
        m.put("op_p90_ms", quantile(&mut op, 0.9), "ms");
        m.put("ops_per_s", a.ops_per_s(), "1/s");
        m.put("peak_rss_mb", env::peak_rss_mb(), "MB");
        m.put(
            "ok_frac",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        );
    } else {
        b.report("traced");
        per_layer(
            &mut m, &a, &b, &tracer, &replayer, &before, &after, &end_snap, objects,
        );
        let path = args
            .out
            .join(format!("trace-{}-seed{}.jsonl", wl.name, args.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans {} written to {}", tracer.len(), path.display());
    }
    for (n, v, u) in &m.0 {
        println!("metric {n} {v} {u}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.json()
    );
    Ok(correct)
}

/// The per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &mut Metrics,
    a: &Phase,
    b: &Phase,
    t: &Tracer,
    r: &Replayer,
    before: &RegistrySnap,
    after: &RegistrySnap,
    end: &RegistrySnap,
    objects: usize,
) {
    let c = &r.counts;
    let per = |x: u64, n: u64| x as f64 / n.max(1) as f64;

    // net: what one reply costs to build, frame and read back.
    m.put("net.reply_bytes", per(c.reply_bytes, c.replies), "bytes");
    m.put("net.frames_per_reply", per(c.frames, c.replies), "count");
    m.put("net.encode_us", t.mean_us("net.encode"), "us");
    m.put("net.decode_us", t.mean_us("net.decode"), "us");
    m.put(
        "storage.crc32_mb_per_s",
        c.reply_bytes as f64 / 1e6 / t.total_s("storage.crc32").max(1e-12),
        "MB/s",
    );
    m.put("relalg.render_us", t.mean_us("relalg.render"), "us");
    // Client read latency minus the service's own read latency.
    let reads: Vec<f64> = [&a.read_ms, &a.fresh_ms, &b.read_ms, &b.fresh_ms]
        .into_iter()
        .flatten()
        .copied()
        .collect();
    let client_read_us = reads.iter().sum::<f64>() * 1e3 / reads.len().max(1) as f64;
    let (svc_read_us, _) = before.mean_between(after, "service.read_total_us");
    m.put("net.wire_overhead_us", client_read_us - svc_read_us, "us");

    // oodb / service: the copies an epoch change costs.
    m.put("oodb.clone_us", t.mean_us("oodb.clone"), "us");
    m.put(
        "service.reader_rebuild_us",
        t.mean_us("service.reader_rebuild"),
        "us",
    );
    // Write path, over the run's commits and the closing write probe.
    for key in [
        "service.publish_us",
        "service.write_queue_us",
        "service.write_exec_us",
        "storage.wal_append_us",
        "storage.fsync_us",
    ] {
        m.put(key, before.mean_between(end, key).0, "us");
    }
    let commits = before.mean_between(end, "storage.wal_append_us").1;
    m.put(
        "storage.wal_bytes_per_commit",
        per(before.counter_between(end, "storage.wal_bytes"), commits),
        "bytes",
    );
    m.put(
        "storage.checkpoints",
        before.counter_between(end, "storage.checkpoints") as f64,
        "count",
    );
    m.put(
        "storage.checkpoint_bytes",
        before.counter_between(end, "storage.checkpoint_bytes") as f64,
        "bytes",
    );

    // xsql: front end, plan cache and evaluation.
    m.put("xsql.parse_us", t.mean_us("xsql.parse"), "us");
    m.put("xsql.resolve_us", t.mean_us("xsql.resolve"), "us");
    m.put("xsql.exec_us", t.mean_us("xsql.exec"), "us");
    m.put(
        "xsql.plan_cache_hit_ratio",
        per(c.cache_hits, c.cache_hits + c.cache_misses),
        "ratio",
    );
    m.put("xsql.eval_ticks", per(c.eval_ticks, c.explained), "count");
    m.put("xsql.rows_out", per(c.rows_out, c.explained), "count");
    // service: read execution and admission, from its registry.
    let (read_exec_us, _) = before.mean_between(after, "service.read_exec_us");
    m.put("service.read_exec_us", read_exec_us, "us");
    // Time a read spends in the service outside execution: the
    // admission gate and its bookkeeping. (Its own histogram records
    // whole microseconds of an uncontended gate, so it reads 0; the
    // difference of the two means does not truncate that way.)
    m.put(
        "service.read_admission_us",
        svc_read_us - read_exec_us,
        "us",
    );
    m.put("oodb.objects", objects as f64, "count");

    // The traced run's own cost: traced slices against untraced ones.
    let p50 = |v: &Vec<f64>| quantile(&mut v.clone(), 0.5);
    m.put(
        "trace.op_p50_overhead",
        p50(&b.op_ms) / p50(&a.op_ms) - 1.0,
        "ratio",
    );
    m.put(
        "trace.ops_per_s_overhead",
        1.0 - b.ops_per_s() / a.ops_per_s(),
        "ratio",
    );
    m.put("trace.spans", t.len() as f64, "count");
}
