//! E12 — overhead of the observability subsystem.
//!
//! Two measurements over three multi-variable join queries on a scaled
//! Figure 1 database:
//!
//! 1. **Profile collection** — `eval_select` with a `QueryProfile`
//!    sink attached to `EvalOptions` versus without. Every recording
//!    site is gated on the `Option`, so the
//!    attached run bounds what `EXPLAIN ANALYZE` costs over the bare
//!    statement.
//! 2. **Session telemetry** — `Session::run` with an *enabled*
//!    registry (spans recorded) versus the default disabled one.
//!    Metric counters are always live; the enabled run adds span
//!    capture into the ring buffer.
//!
//! Results go to `BENCH_telemetry.json` at the repo root; the target
//! is < 5 % median overhead on every cell. Relations are asserted
//! identical between instrumented and bare runs before timing counts.

use bench::{compile, scaled_db};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use xsql::eval::profile::QueryProfile;
use xsql::{eval_select, EvalOptions, Session};

/// Repetitions per cell; the median is reported. High because the
/// quantity of interest is a small *difference* between two medians.
const REPS: usize = 9;

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
    let mut json = String::from("{\n  \"experiment\": \"E12_telemetry_overhead\",\n");
    let _ = writeln!(json, "  \"companies\": {COMPANIES},");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    json.push_str("  \"profile_overhead\": [\n");

    // 1. Profile collection overhead on bare eval_select.
    let mut first = true;
    for (name, src) in QUERIES {
        let q = compile(&mut db, src);
        let bare_opts = EvalOptions::default();
        // Interleave bare and profiled reps so clock-speed drift over
        // the run biases neither side.
        let mut bare_times = Vec::with_capacity(REPS);
        let mut prof_times = Vec::with_capacity(REPS);
        let mut bare_rel = None;
        let mut prof_rel = None;
        for _ in 0..REPS {
            let t = Instant::now();
            bare_rel = Some(eval_select(&db, &q, &bare_opts).expect("eval"));
            bare_times.push(t.elapsed().as_secs_f64() * 1e3);

            let opts = EvalOptions {
                profile: Some(Arc::new(QueryProfile::default())),
                ..bare_opts.clone()
            };
            let t = Instant::now();
            prof_rel = Some(eval_select(&db, &q, &opts).expect("eval"));
            prof_times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        assert_eq!(bare_rel, prof_rel, "profiling changed the result of {name}");
        let bare = median_ms(bare_times);
        let prof = median_ms(prof_times);
        let overhead_pct = (prof / bare - 1.0) * 100.0;
        println!("{name}: bare {bare:.2} ms, profiled {prof:.2} ms ({overhead_pct:+.1}%)");
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let _ = write!(
            json,
            "    {{\"name\": \"{name}\", \"bare_ms\": {bare:.3}, \
             \"profiled_ms\": {prof:.3}, \"overhead_pct\": {overhead_pct:.2}}}"
        );
    }
    json.push_str("\n  ],\n  \"session_overhead\": [\n");

    // 2. Enabled-registry (span-recording) overhead on Session::run.
    let mut first = true;
    for (name, src) in QUERIES {
        let mut plain = Session::with_options(scaled_db(COMPANIES), EvalOptions::default());
        let mut traced = Session::with_options(scaled_db(COMPANIES), EvalOptions::default());
        traced.set_registry(Arc::new(telemetry::Registry::with_config(
            telemetry::TelemetryConfig {
                enabled: true,
                ..telemetry::TelemetryConfig::default()
            },
        )));
        let mut plain_times = Vec::with_capacity(REPS);
        let mut traced_times = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t = Instant::now();
            plain.run(src).expect("plain run");
            plain_times.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            traced.run(src).expect("traced run");
            traced_times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let bare = median_ms(plain_times);
        let spans = median_ms(traced_times);
        let overhead_pct = (spans / bare - 1.0) * 100.0;
        println!("{name} session: plain {bare:.2} ms, spans {spans:.2} ms ({overhead_pct:+.1}%)");
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let _ = write!(
            json,
            "    {{\"name\": \"{name}\", \"plain_ms\": {bare:.3}, \
             \"spans_ms\": {spans:.3}, \"overhead_pct\": {overhead_pct:.2}}}"
        );
    }
    json.push_str("\n  ]\n}\n");

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_telemetry.json");
    std::fs::write(&out, &json).expect("write BENCH_telemetry.json");
    println!("{json}");
}
