//! E11 — scaling of partitioned parallel query evaluation.
//!
//! Multi-variable join queries over a scaled Figure 1 database,
//! evaluated by the pipelined engine (planner off) at 1/2/4/8 workers
//! with the same `EvalOptions` otherwise.
//! For every query and worker count the result relation is checked
//! bit-identical to the sequential run (the determinism contract of
//! `docs/PARALLELISM.md`), then the median wall-clock of several runs
//! is reported together with the speedup over one worker.
//!
//! Results go to `BENCH_parallel.json` at the repo root. The file
//! records `cores` (`std::thread::available_parallelism`): speedup is
//! bounded by physical parallelism, so on a single-core host every
//! configuration legitimately reports ≈1.0 and the numbers are only
//! meaningful relative to that field.

use bench::{compile, scaled_db};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use xsql::{eval_select, EvalOptions};

/// Repetitions per (query, workers) cell; the median is reported.
const REPS: usize = 5;

const COMPANIES: usize = 30;

const QUERIES: &[(&str, &str)] = &[
    (
        "employee_self_join",
        "SELECT X, Y FROM Employee X, Employee Y \
         WHERE X.Salary > Y.Salary AND X.Age < Y.Age",
    ),
    (
        "company_division_join",
        "SELECT X, W FROM Company X, Employee W \
         WHERE X.Divisions.Employees[W] and W.Salary > 30000",
    ),
    (
        "vehicle_owner_chain",
        "SELECT X, V FROM Employee X, Automobile V \
         WHERE X.OwnedVehicles[V] and V.Manufacturer.President.Age >= 30",
    ),
];

fn median_ms(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut db = scaled_db(COMPANIES);
    let workers_sweep = [1usize, 2, 4, 8];

    let mut json = String::from("{\n  \"experiment\": \"E11_parallel_eval\",\n");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"companies\": {COMPANIES},");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    json.push_str("  \"queries\": [\n");

    for (qi, (name, src)) in QUERIES.iter().enumerate() {
        let q = compile(&mut db, src);
        let mut baseline_rel = None;
        let mut baseline_ms = 0.0;
        let mut rows = 0usize;
        let mut cells = Vec::new();
        for &workers in &workers_sweep {
            // The planner takes over all three queries when it is on
            // and never reaches the partitioner, so it is pinned off:
            // this sweep measures the partitioned pipelined engine.
            let opts = EvalOptions {
                parallelism: workers,
                use_planner: false,
                ..EvalOptions::default()
            };
            let mut times = Vec::with_capacity(REPS);
            let mut rel = None;
            for _ in 0..REPS {
                let t = Instant::now();
                let r = eval_select(&db, &q, &opts).expect("eval");
                times.push(t.elapsed().as_secs_f64() * 1e3);
                rel = Some(r);
            }
            let rel = rel.unwrap();
            match &baseline_rel {
                None => {
                    rows = rel.len();
                    baseline_rel = Some(rel);
                }
                Some(seq) => assert_eq!(
                    &rel, seq,
                    "parallel({workers}) result differs from sequential on {name}"
                ),
            }
            let ms = median_ms(times);
            if workers == 1 {
                baseline_ms = ms;
            }
            let speedup = baseline_ms / ms;
            println!("{name} workers={workers}: median {ms:.2} ms (speedup {speedup:.2}x)");
            cells.push((workers, ms, speedup));
        }
        let _ = write!(
            json,
            "    {{\"name\": \"{name}\", \"rows\": {rows}, \"runs\": ["
        );
        for (i, (workers, ms, speedup)) in cells.iter().enumerate() {
            let _ = write!(
                json,
                "{{\"workers\": {workers}, \"median_ms\": {ms:.3}, \"speedup\": {speedup:.3}}}"
            );
            if i + 1 < cells.len() {
                json.push_str(", ");
            }
        }
        json.push_str("]}");
        json.push_str(if qi + 1 < QUERIES.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_parallel.json");
    std::fs::write(&out, &json).expect("write BENCH_parallel.json");
    println!("{json}");
}
