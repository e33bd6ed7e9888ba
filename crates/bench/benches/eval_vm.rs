//! E16 — prepared statements and the planned-fragment executor.
//!
//! Splits one statement's cost into its phases over a scaled Figure 1
//! database: parse + resolve (what `EXECUTE` of a prepared statement
//! skips), planning (what every run pays, since the planner re-plans
//! the bound statement against current statistics), and execution
//! (plan plus the `plan::exec` executor plus the relation build). Then
//! measures the statement end to end through a session: `Session::run`
//! of the text (parse, resolve and execute on every run) and
//! `PREPARE` / `EXECUTE`, with and without a bound parameter.
//!
//! The claims under test: `EXECUTE` pays no parse or resolve cost
//! (`prepared_us` tracks `execute_us`), parse + resolve is a small share
//! of `Session::run` (`run_us` − `prepared_us`), and re-planning per
//! run is a small share of execution (`plan_us` ≪ `execute_us`).
//!
//! Every cell is sampled once per round, all cells of all statements
//! in turn within the round, so a drift in host speed moves every
//! column alike. Each cell reports the first quartile, median and third
//! quartile (p25, p50, p75) of [`QUARTILE_ROUNDS`] rounds, as
//! `commit_latency.rs` does, so a cell can be told apart from host
//! drift. Results go to `BENCH_vm.json` at the repo root (hand-rendered
//! JSON; the offline criterion shim has no reporting).

use datagen::{figure1_scaled, Figure1Params};
use oodb::Database;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use xsql::ast::{SelectQuery, Stmt};
use xsql::eval::Ctx;
use xsql::{eval_select, parse, resolve_stmt, EvalOptions, Outcome, Session};

/// Rounds per cell; each round takes one sample of every cell.
const QUARTILE_ROUNDS: usize = 400;

/// Objects in the scaled Figure 1 database.
const OBJECTS: usize = 150;

const QUERIES: &[(&str, &str)] = &[
    (
        "wire_scan",
        "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary > Y.Salary",
    ),
    (
        "employee_join2",
        "SELECT X, Y FROM Employee X, Employee Y \
         WHERE X.Salary > Y.Salary AND X.Age < Y.Age",
    ),
    (
        "salary_probe",
        "SELECT X FROM Employee X WHERE X.Salary > 30000",
    ),
];

/// The phase cells of one statement, in JSON order.
const PHASES: [&str; 5] = [
    "parse_resolve_us",
    "plan_us",
    "execute_us",
    "run_us",
    "prepared_us",
];

fn scaled_db() -> Database {
    figure1_scaled(&Figure1Params::with_total_objects(OBJECTS))
}

fn opts() -> EvalOptions {
    EvalOptions {
        use_planner: true,
        ..EvalOptions::default()
    }
}

/// First quartile, median and third quartile of a sample, in JSON.
fn quartiles_json(mut v: Vec<f64>) -> String {
    v.sort_by(|a, b| a.total_cmp(b));
    let at = |q: usize| v[(v.len() - 1) * q / 4];
    format!(
        "{{\"q1\": {:.1}, \"median\": {:.1}, \"q3\": {:.1}}}",
        at(1),
        at(2),
        at(3)
    )
}

/// Times one call of `f` in µs.
fn time_once<F: FnOnce()>(f: F) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

fn run(s: &mut Session, src: &str) -> usize {
    match s.run(src).expect("statement") {
        Outcome::Relation(r) => r.len(),
        o => panic!("expected rows, got {o:?}"),
    }
}

/// One statement text (no parameters) set up for each phase.
struct Phases {
    src: &'static str,
    rows: usize,
    /// Parse + resolve runs on its own database (resolve interns
    /// constants).
    pr_db: Database,
    /// Planning and execution of the resolved statement.
    db: Database,
    q: SelectQuery,
    o: EvalOptions,
    /// `Session::run` of the text: parse, resolve and execute every run.
    session: Session,
    /// PREPAREd once, EXECUTEd per round (no parameters).
    prepared: Session,
}

impl Phases {
    fn new(src: &'static str) -> Phases {
        let mut db = scaled_db();
        let stmt = parse(src).expect("parse");
        let Stmt::Select(q) = resolve_stmt(&mut db, &stmt).expect("resolve") else {
            panic!("not a SELECT: {src}")
        };
        let mut session = Session::with_options(scaled_db(), opts());
        let rows = run(&mut session, src); // warm the OID interner
        let mut prepared = Session::with_options(scaled_db(), opts());
        prepared
            .run(&format!("PREPARE stmt AS {src}"))
            .expect("prepare");
        run(&mut prepared, "EXECUTE stmt");
        Phases {
            src,
            rows,
            pr_db: scaled_db(),
            db,
            q,
            o: opts(),
            session,
            prepared,
        }
    }

    /// Takes one sample of each phase, in [`PHASES`] order.
    fn sample(&mut self, lat: &mut [Vec<f64>; 5]) {
        let src = self.src;
        lat[0].push(time_once(|| {
            let stmt = parse(src).expect("parse");
            std::hint::black_box(resolve_stmt(&mut self.pr_db, &stmt).expect("resolve"));
        }));
        lat[1].push(time_once(|| {
            let ctx = Ctx::new(&self.db, &self.o);
            let lines = xsql::plan::static_plan_lines(&ctx, &self.q).expect("planner fragment");
            std::hint::black_box(lines);
        }));
        lat[2].push(time_once(|| {
            std::hint::black_box(eval_select(&self.db, &self.q, &self.o).expect("execute"));
        }));
        lat[3].push(time_once(|| {
            run(&mut self.session, src);
        }));
        lat[4].push(time_once(|| {
            run(&mut self.prepared, "EXECUTE stmt");
        }));
    }
}

fn main() {
    let mut phases: Vec<Phases> = QUERIES.iter().map(|&(_, src)| Phases::new(src)).collect();
    let mut lat: Vec<[Vec<f64>; 5]> = phases.iter().map(|_| Default::default()).collect();

    // PREPARE / EXECUTE with a bound parameter: resolve once, bind and
    // run per EXECUTE. Compared with `Session::run` of the equivalent
    // constant text.
    let mut s = Session::with_options(scaled_db(), opts());
    s.run("PREPARE rich AS SELECT X FROM Employee X WHERE X.Salary > ?1")
        .expect("prepare");
    let plain = "SELECT X FROM Employee X WHERE X.Salary > 30000";
    run(&mut s, "EXECUTE rich (30000)");
    run(&mut s, plain);
    let (mut exec_lat, mut plain_lat) = (Vec::new(), Vec::new());

    for _ in 0..QUARTILE_ROUNDS {
        for (p, lat) in phases.iter_mut().zip(&mut lat) {
            p.sample(lat);
        }
        exec_lat.push(time_once(|| {
            run(&mut s, "EXECUTE rich (30000)");
        }));
        plain_lat.push(time_once(|| {
            run(&mut s, plain);
        }));
    }

    let mut json = String::from("{\n  \"experiment\": \"E16_prepared_and_executor\",\n");
    let _ = writeln!(json, "  \"rounds\": {QUARTILE_ROUNDS},");
    json.push_str("  \"statistic\": \"quartiles_us\",\n");
    let _ = writeln!(json, "  \"db\": \"figure1 scaled to {OBJECTS} objects\",");
    json.push_str("  \"queries\": [\n");
    for (i, ((name, _), (p, lat))) in QUERIES.iter().zip(phases.iter().zip(lat)).enumerate() {
        let _ = write!(json, "    {{\"name\": \"{name}\", \"rows\": {}", p.rows);
        for (cell, v) in PHASES.iter().zip(lat) {
            let _ = write!(json, ", \"{cell}\": {}", quartiles_json(v));
        }
        json.push('}');
        json.push_str(if i + 1 < QUERIES.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"prepared\": {{\"execute_us\": {}, \"plain_run_us\": {}}}\n}}",
        quartiles_json(exec_lat),
        quartiles_json(plain_lat)
    );

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_vm.json");
    std::fs::write(&out, &json).expect("write BENCH_vm.json");
    println!("{json}");
}
