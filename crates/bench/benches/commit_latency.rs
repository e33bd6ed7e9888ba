//! E9 — per-statement commit latency under the durable-storage layer.
//!
//! Three configurations over the same statement workload:
//!
//! * `wal_off`      — store attached, `WAL OFF` (undo log only);
//! * `wal_nosync`   — WAL appended per commit, fsync disabled
//!   (`Session::set_sync_on_commit(false)`);
//! * `wal_fsync`    — the durable default: append + fsync per commit.
//!
//! The spread between the three is the price of logging vs the price of
//! the fsync barrier. A `checkpoint_cost` section times `CHECKPOINT` on
//! a durable store at three sizes (see [`checkpoint_cost`]), a
//! `publish_sweep` section times what one epoch publication costs the
//! in-memory database at the same sizes (see [`publish_sweep`]), and an
//! `in_process` section times the bulk loads, the extent lookup and a
//! warm point read (see [`in_process`]). Both of the last two report the
//! median and quartiles of hundreds of rounds, so a cell can be told
//! apart from host drift.
//! Results are written to `BENCH_storage.json` at the repo root
//! (hand-rendered JSON; the offline criterion shim has no reporting).
//! Uses wall-clock timing directly — commit latency is
//! I/O-bound, so the statistical machinery criterion adds for
//! nanosecond-scale kernels buys nothing here.

use datagen::{figure1_scaled, Figure1Params};
use oodb::Database;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use storage::{RealFs, Store};
use xsql::Session;

/// Statements per configuration: enough to amortize warm-up and give a
/// stable p95 without the fsync variant taking minutes on slow disks.
const STATEMENTS: usize = 300;

fn fresh_store_session(dir: &Path) -> Session {
    let _ = std::fs::remove_dir_all(dir);
    assert!(!Store::exists(&RealFs, dir));
    let mut s = Session::open_dir(
        Box::new(RealFs),
        dir,
        Database::new(),
        "empty",
        Default::default(),
    )
    .expect("create store");
    s.run("CREATE CLASS Item").unwrap();
    s.run("ALTER CLASS Item ADD SIGNATURE Num => Numeral")
        .unwrap();
    s
}

/// Runs the workload and returns per-statement latencies in nanoseconds.
fn run_workload(s: &mut Session) -> Vec<u128> {
    let mut lat = Vec::with_capacity(STATEMENTS);
    for i in 0..STATEMENTS {
        let stmt = if i % 2 == 0 {
            format!("CREATE OBJECT it{i} CLASS Item SET Num = {i}")
        } else {
            format!("UPDATE CLASS Object SET it{}.Num = {i}", i - 1)
        };
        let t = Instant::now();
        s.run(&stmt).unwrap();
        lat.push(t.elapsed().as_nanos());
    }
    lat
}

struct Summary {
    name: &'static str,
    mean_ns: u128,
    p50_ns: u128,
    p95_ns: u128,
}

fn summarize(name: &'static str, mut lat: Vec<u128>) -> Summary {
    lat.sort_unstable();
    let mean = lat.iter().sum::<u128>() / lat.len() as u128;
    Summary {
        name,
        mean_ns: mean,
        p50_ns: lat[lat.len() / 2],
        p95_ns: lat[lat.len() * 95 / 100],
    }
}

/// `with_total_objects` arguments of both sweeps: about 1.6k, 14k and
/// 80k objects.
const SWEEP_SIZES: [usize; 3] = [500, 5_000, 30_000];
/// Checkpoints timed per size; the sweep reports their median.
const SWEEP_ROUNDS: usize = 15;
/// Publications timed per size, and rounds of each `in_process` cell;
/// those report the median and quartiles.
const QUARTILE_ROUNDS: usize = 400;
/// Salary UPDATEs committed before each timed checkpoint.
const UPDATES_PER_CHECKPOINT: usize = 10;

struct CheckpointCost {
    total_objects: usize,
    objects: usize,
    checkpoint_ms: f64,
    snapshot_bytes: u64,
}

struct PublishCost {
    total_objects: usize,
    objects: usize,
    clone_us: Quartiles,
    first_write_after_clone_us: Quartiles,
    drop_us: Quartiles,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// First quartile, median and third quartile of a sample.
#[derive(Clone, Copy)]
struct Quartiles {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Quartiles {
    fn of(mut v: Vec<f64>) -> Quartiles {
        v.sort_by(|a, b| a.total_cmp(b));
        let at = |q: usize| v[(v.len() - 1) * q / 4];
        Quartiles {
            q1: at(1),
            median: at(2),
            q3: at(3),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"q1\": {:.2}, \"median\": {:.2}, \"q3\": {:.2}}}",
            self.q1, self.median, self.q3
        )
    }
}

/// One epoch publication as the service performs it, against the
/// database alone: the writer copies its database (`clone_us`), the copy
/// replaces the published epoch while the epoch before it stays alive
/// (a reader may still hold it), the epoch two publications back is
/// dropped (`drop_us`), and the writer's next statement stores a fresh
/// salary literal into the database it shares with the new epoch
/// (`first_write_after_clone_us`).
fn publish_sweep(total_objects: usize) -> PublishCost {
    let mut w = figure1_scaled(&Figure1Params::with_total_objects(total_objects));
    let objects = w.individual_count();
    let salary = w.oids().find_sym("Salary").expect("Salary attribute");
    let emp = w.oids().find_sym("emp0_0_0").expect("first employee");
    let mut live = Arc::new(w.clone());
    let mut superseded = Arc::new(w.clone());
    let (mut clone_us, mut write_us, mut drop_us) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..QUARTILE_ROUNDS {
        let t = Instant::now();
        let snap = w.clone();
        clone_us.push(t.elapsed().as_secs_f64() * 1e6);
        let dead = std::mem::replace(
            &mut superseded,
            std::mem::replace(&mut live, Arc::new(snap)),
        );
        let t = Instant::now();
        drop(dead);
        drop_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let v = w.oids_mut().int(1_000_000 + round as i64);
        w.set_scalar(emp, salary, &[], v).unwrap();
        write_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop((live, superseded));
    PublishCost {
        total_objects,
        objects,
        clone_us: Quartiles::of(clone_us),
        first_write_after_clone_us: Quartiles::of(write_us),
        drop_us: Quartiles::of(drop_us),
    }
}

/// One `in_process` cell: what was timed, at which
/// `with_total_objects` size, over how many objects.
struct Cell {
    name: &'static str,
    total_objects: usize,
    objects: usize,
    us: Quartiles,
}

/// Times `f` [`QUARTILE_ROUNDS`] times after a few warm-up calls; each
/// round runs it `batch` times and counts the mean, so calls far below
/// the timer's resolution still time well.
fn rounds(batch: usize, mut f: impl FnMut()) -> Quartiles {
    for _ in 0..batch.min(8) {
        f();
    }
    let mut us = Vec::with_capacity(QUARTILE_ROUNDS);
    for _ in 0..QUARTILE_ROUNDS {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        us.push(t.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    Quartiles::of(us)
}

/// The in-process cells:
///
/// * `figure1_scaled_us` — generating the `wire_scan` database
///   (`with_total_objects(150)`) through the builder's per-insert path;
/// * `import_snapshot_us` — rebuilding that database from its exported
///   image (crash recovery, replica bootstrap), the image copy untimed;
/// * `instances_of_us` — `Database::instances_of(Employee)` plus its
///   `len`, at the `point_update` size (`with_total_objects(500)`);
/// * `point_read_us` — one warm `point_update` read,
///   `SELECT X.Salary FROM Employee X WHERE X.Name = 'Emp 0-0-0'`, on a
///   plain session at that size.
fn in_process() -> Vec<Cell> {
    let small = Figure1Params::with_total_objects(150);
    let db = figure1_scaled(&small);
    let small_objects = db.individual_count();
    let image = db.export_snapshot();
    let mut cells = vec![
        Cell {
            name: "figure1_scaled_us",
            total_objects: 150,
            objects: small_objects,
            us: rounds(1, || drop(black_box(figure1_scaled(&small)))),
        },
        Cell {
            name: "import_snapshot_us",
            total_objects: 150,
            objects: small_objects,
            us: {
                let mut us = Vec::with_capacity(QUARTILE_ROUNDS);
                for _ in 0..QUARTILE_ROUNDS {
                    let copy = image.clone();
                    let t = Instant::now();
                    let db = Database::import_snapshot(copy).unwrap();
                    us.push(t.elapsed().as_secs_f64() * 1e6);
                    drop(black_box(db));
                }
                Quartiles::of(us)
            },
        },
    ];
    let db = figure1_scaled(&Figure1Params::with_total_objects(500));
    let objects = db.individual_count();
    let employee = db.oids().find_sym("Employee").expect("Employee class");
    cells.push(Cell {
        name: "instances_of_us",
        total_objects: 500,
        objects,
        us: rounds(100, || {
            black_box(db.instances_of(black_box(employee)).len());
        }),
    });
    let mut s = Session::new(db);
    cells.push(Cell {
        name: "point_read_us",
        total_objects: 500,
        objects,
        us: rounds(1, || {
            let r = s
                .query("SELECT X.Salary FROM Employee X WHERE X.Name = 'Emp 0-0-0'")
                .unwrap();
            assert_eq!(r.len(), 1);
        }),
    });
    cells
}

/// What `CHECKPOINT` costs a durable store over the scaled figure-1
/// database: each round commits [`UPDATES_PER_CHECKPOINT`] salary
/// UPDATEs (fsync'd) and then times one `CHECKPOINT` statement, which
/// writes the whole image and starts a fresh WAL segment.
fn checkpoint_cost(dir: &Path, total_objects: usize) -> CheckpointCost {
    let _ = std::fs::remove_dir_all(dir);
    let db = figure1_scaled(&Figure1Params::with_total_objects(total_objects));
    let objects = db.individual_count();
    let mut s = Session::open_dir(
        Box::new(RealFs),
        dir,
        db,
        "figure1_scaled",
        Default::default(),
    )
    .expect("create store");
    let mut ms = Vec::with_capacity(SWEEP_ROUNDS);
    for round in 0..SWEEP_ROUNDS {
        for k in 0..UPDATES_PER_CHECKPOINT {
            let salary = 1_000_000 + round * UPDATES_PER_CHECKPOINT + k;
            s.run(&format!(
                "UPDATE CLASS Employee SET emp0_0_0.Salary = {salary}"
            ))
            .unwrap();
        }
        let t = Instant::now();
        s.run("CHECKPOINT").unwrap();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let snapshot_bytes = std::fs::metadata(dir.join("snapshot.bin"))
        .expect("checkpoint image")
        .len();
    CheckpointCost {
        total_objects,
        objects,
        checkpoint_ms: median(ms),
        snapshot_bytes,
    }
}

fn main() {
    let base = std::env::temp_dir().join(format!("xsql_bench_store_{}", std::process::id()));

    let mut results = Vec::new();

    let dir = base.join("off");
    let mut s = fresh_store_session(&dir);
    s.run("WAL OFF").unwrap();
    results.push(summarize("wal_off", run_workload(&mut s)));

    let dir = base.join("nosync");
    let mut s = fresh_store_session(&dir);
    s.set_sync_on_commit(false);
    results.push(summarize("wal_nosync", run_workload(&mut s)));

    let dir = base.join("fsync");
    let mut s = fresh_store_session(&dir);
    results.push(summarize("wal_fsync", run_workload(&mut s)));

    let checkpoints: Vec<CheckpointCost> = SWEEP_SIZES
        .iter()
        .map(|&n| checkpoint_cost(&base.join(format!("ckpt{n}")), n))
        .collect();

    let _ = std::fs::remove_dir_all(&base);

    let sweep: Vec<PublishCost> = SWEEP_SIZES.iter().map(|&n| publish_sweep(n)).collect();
    let cells = in_process();

    let mut json = String::from("{\n  \"experiment\": \"E9_commit_latency\",\n");
    let _ = writeln!(json, "  \"statements_per_config\": {STATEMENTS},");
    json.push_str("  \"unit\": \"ns_per_statement\",\n  \"configs\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"mean\": {}, \"p50\": {}, \"p95\": {}}}",
            r.name, r.mean_ns, r.p50_ns, r.p95_ns
        );
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"checkpoint_cost\": {\n");
    let _ = writeln!(json, "    \"rounds\": {SWEEP_ROUNDS},");
    let _ = writeln!(
        json,
        "    \"updates_per_checkpoint\": {UPDATES_PER_CHECKPOINT},"
    );
    json.push_str("    \"statistic\": \"median_ms\",\n    \"sizes\": [\n");
    for (i, c) in checkpoints.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"total_objects_param\": {}, \"objects\": {}, \"checkpoint_ms\": {:.2}, \"snapshot_bytes\": {}}}",
            c.total_objects, c.objects, c.checkpoint_ms, c.snapshot_bytes
        );
        json.push_str(if i + 1 < checkpoints.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n  },\n  \"publish_sweep\": {\n");
    let _ = writeln!(json, "    \"rounds\": {QUARTILE_ROUNDS},");
    json.push_str("    \"statistic\": \"quartiles_us\",\n    \"sizes\": [\n");
    for (i, c) in sweep.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"total_objects_param\": {}, \"objects\": {}, \"clone_us\": {}, \"first_write_after_clone_us\": {}, \"drop_us\": {}}}",
            c.total_objects,
            c.objects,
            c.clone_us.json(),
            c.first_write_after_clone_us.json(),
            c.drop_us.json()
        );
        json.push_str(if i + 1 < sweep.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ]\n  },\n  \"in_process\": {\n");
    let _ = writeln!(json, "    \"rounds\": {QUARTILE_ROUNDS},");
    json.push_str("    \"statistic\": \"quartiles_us\",\n    \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"name\": \"{}\", \"total_objects_param\": {}, \"objects\": {}, \"us\": {}}}",
            c.name,
            c.total_objects,
            c.objects,
            c.us.json()
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ]\n  }\n}\n");

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_storage.json");
    std::fs::write(&out, &json).expect("write BENCH_storage.json");
    println!("{json}");
    for r in &results {
        println!(
            "{:<11} mean {:>9} ns   p50 {:>9} ns   p95 {:>9} ns",
            r.name, r.mean_ns, r.p50_ns, r.p95_ns
        );
    }
    for c in &checkpoints {
        println!(
            "checkpoint   {:>6} objects   {:>8.2} ms   snapshot {:>9} B",
            c.objects, c.checkpoint_ms, c.snapshot_bytes
        );
    }
    for c in &sweep {
        println!(
            "publish      {:>6} objects   clone {:>9.1} us   first write {:>8.1} us   drop {:>9.1} us",
            c.objects, c.clone_us.median, c.first_write_after_clone_us.median, c.drop_us.median
        );
    }
    for c in &cells {
        println!(
            "{:<20} {:>6} objects   q1 {:>9.2} us   median {:>9.2} us   q3 {:>9.2} us",
            c.name, c.objects, c.us.q1, c.us.median, c.us.q3
        );
    }
}
