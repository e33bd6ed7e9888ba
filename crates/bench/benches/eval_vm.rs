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
//! Results go to `BENCH_vm.json` at the repo root (hand-rendered JSON;
//! the offline criterion shim has no reporting). Wall-clock timing on
//! medians — phase costs are microsecond-scale, not nanosecond kernels.

use datagen::{figure1_scaled, Figure1Params};
use oodb::Database;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use xsql::ast::Stmt;
use xsql::eval::Ctx;
use xsql::{eval_select, parse, resolve_stmt, EvalOptions, Outcome, Session};

const REPS: usize = 200;

/// Objects in the scaled Figure 1 database.
const OBJECTS: usize = 150;

fn scaled_db() -> Database {
    figure1_scaled(&Figure1Params::with_total_objects(OBJECTS))
}

fn opts() -> EvalOptions {
    EvalOptions {
        use_planner: true,
        ..EvalOptions::default()
    }
}

fn median(mut v: Vec<u128>) -> u128 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// Times one call of `f` in µs.
fn time_once<F: FnOnce()>(f: F) -> u128 {
    let t = Instant::now();
    f();
    t.elapsed().as_micros()
}

fn run(s: &mut Session, src: &str) -> usize {
    match s.run(src).expect("statement") {
        Outcome::Relation(r) => r.len(),
        o => panic!("expected rows, got {o:?}"),
    }
}

struct Phases {
    parse_resolve_us: u128,
    plan_us: u128,
    execute_us: u128,
    run_us: u128,
    prepared_us: u128,
    rows: usize,
}

/// Phase split for one statement text (no parameters). The phases are
/// timed round-robin, one sample of each per repetition, so a drift in
/// host speed lands on all of them alike.
fn phases(src: &'static str) -> Phases {
    // Parse + resolve on its own database (resolve interns constants).
    let mut pr_db = scaled_db();
    // Planning and execution of the resolved statement.
    let mut db = scaled_db();
    let stmt = parse(src).expect("parse");
    let Stmt::Select(q) = resolve_stmt(&mut db, &stmt).expect("resolve") else {
        panic!("not a SELECT: {src}")
    };
    let o = opts();
    // `Session::run` of the text: parse, resolve and execute every run.
    let mut session = Session::with_options(scaled_db(), opts());
    let rows = run(&mut session, src); // warm the OID interner
                                       // PREPAREd once, EXECUTEd per repetition (no parameters).
    let mut prepared = Session::with_options(scaled_db(), opts());
    prepared
        .run(&format!("PREPARE stmt AS {src}"))
        .expect("prepare");
    run(&mut prepared, "EXECUTE stmt");

    let mut lat: [Vec<u128>; 5] = Default::default();
    for _ in 0..REPS {
        lat[0].push(time_once(|| {
            let stmt = parse(src).expect("parse");
            std::hint::black_box(resolve_stmt(&mut pr_db, &stmt).expect("resolve"));
        }));
        lat[1].push(time_once(|| {
            let ctx = Ctx::new(&db, &o);
            let lines = xsql::plan::static_plan_lines(&ctx, &q).expect("planner fragment");
            std::hint::black_box(lines);
        }));
        lat[2].push(time_once(|| {
            std::hint::black_box(eval_select(&db, &q, &o).expect("execute"));
        }));
        lat[3].push(time_once(|| {
            run(&mut session, src);
        }));
        lat[4].push(time_once(|| {
            run(&mut prepared, "EXECUTE stmt");
        }));
    }
    let [pr, plan, exec, run_us, prepared] = lat.map(median);
    Phases {
        parse_resolve_us: pr,
        plan_us: plan,
        execute_us: exec,
        run_us,
        prepared_us: prepared,
        rows,
    }
}

fn main() {
    let queries: &[(&str, &str)] = &[
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

    let mut json = String::from("{\n  \"experiment\": \"E16_prepared_and_executor\",\n");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"db\": \"figure1 scaled to {OBJECTS} objects\",");
    json.push_str("  \"queries\": [\n");
    for (i, (name, src)) in queries.iter().enumerate() {
        let p = phases(src);
        println!(
            "{name}: parse+resolve {} µs, plan {} µs, execute {} µs, run {} µs, \
             prepared {} µs ({} rows)",
            p.parse_resolve_us, p.plan_us, p.execute_us, p.run_us, p.prepared_us, p.rows
        );
        let _ = write!(
            json,
            "    {{\"name\": \"{name}\", \"rows\": {}, \
             \"parse_resolve_us\": {}, \"plan_us\": {}, \"execute_us\": {}, \
             \"run_us\": {}, \"prepared_us\": {}}}",
            p.rows, p.parse_resolve_us, p.plan_us, p.execute_us, p.run_us, p.prepared_us
        );
        json.push_str(if i + 1 < queries.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");

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
    for _ in 0..REPS {
        exec_lat.push(time_once(|| {
            run(&mut s, "EXECUTE rich (30000)");
        }));
        plain_lat.push(time_once(|| {
            run(&mut s, plain);
        }));
    }
    let (execute_us, plain_run_us) = (median(exec_lat), median(plain_lat));
    println!("prepared EXECUTE {execute_us} µs; plain text run {plain_run_us} µs");
    let _ = writeln!(
        json,
        "  \"prepared\": {{\"execute_us\": {execute_us}, \
         \"plain_run_us\": {plain_run_us}}}\n}}"
    );

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_vm.json");
    std::fs::write(&out, &json).expect("write BENCH_vm.json");
    println!("{json}");
}
