//! E15 — the cost-based planner vs. the pipelined nested-loop engine.
//!
//! Three multi-variable join queries over a scaled Figure 1 database,
//! run once with the planner enabled (the default) and once with
//! `use_planner: false`, so the delta is the
//! set-at-a-time plan itself — index probes, hash/theta joins over
//! cached columns, bulk emission — and nothing else. For every query
//! the two result relations are asserted bit-identical (the
//! bit-identical-or-bail contract of `docs/PLANNER.md`), then the
//! median wall-clock of several runs is reported with the speedup of
//! planned over pipelined.
//!
//! Results go to `BENCH_planner.json` at the repo root; EXPERIMENTS.md
//! E15 narrates them.

use bench::{compile, scaled_db};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use xsql::{eval_select, EvalOptions};

/// Repetitions per (query, engine) cell; the median is reported.
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
    let mut db = scaled_db(COMPANIES);
    let engines: &[(&str, bool)] = &[("pipelined", false), ("planner", true)];

    let mut json = String::from("{\n  \"experiment\": \"E15_planner\",\n");
    let _ = writeln!(json, "  \"companies\": {COMPANIES},");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    json.push_str("  \"queries\": [\n");

    for (qi, (name, src)) in QUERIES.iter().enumerate() {
        let q = compile(&mut db, src);
        let mut baseline_rel = None;
        let mut baseline_ms = 0.0;
        let mut rows = 0usize;
        let mut cells = Vec::new();
        for &(engine, use_planner) in engines {
            let opts = EvalOptions {
                use_planner,
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
                Some(base) => assert_eq!(
                    &rel, base,
                    "planner result differs from pipelined on {name}"
                ),
            }
            let ms = median_ms(times);
            if !use_planner {
                baseline_ms = ms;
            }
            let speedup = baseline_ms / ms;
            println!("{name} engine={engine}: median {ms:.2} ms (speedup {speedup:.2}x)");
            cells.push((engine, ms, speedup));
        }
        let _ = write!(
            json,
            "    {{\"name\": \"{name}\", \"rows\": {rows}, \"runs\": ["
        );
        for (i, (engine, ms, speedup)) in cells.iter().enumerate() {
            let _ = write!(
                json,
                "{{\"engine\": \"{engine}\", \"median_ms\": {ms:.3}, \"speedup\": {speedup:.3}}}"
            );
            if i + 1 < cells.len() {
                json.push_str(", ");
            }
        }
        json.push_str("]}");
        json.push_str(if qi + 1 < QUERIES.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_planner.json");
    std::fs::write(&out, &json).expect("write BENCH_planner.json");
    println!("{json}");
}
