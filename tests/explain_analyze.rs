//! `EXPLAIN` / `EXPLAIN ANALYZE` integration tests: the span-error
//! regression for non-SELECT operands, execution profiles on the
//! paper's numbered queries with exact tick/row counts, deterministic
//! golden stability, and the engine-invariance differential (naive and
//! pipelined report identical row counts, and telemetry being attached
//! never changes a result).

use datagen::figure1_db;
use std::sync::Arc;
use telemetry::{Registry, TelemetryConfig};
use xsql::{EvalOptions, Outcome, Session, Strategy, XsqlError};

/// Paper queries with their known cardinalities (see
/// `tests/paper_queries.rs` for the prose answers) and the exact tick
/// count of a sequential pipelined evaluation over the Figure 1
/// database. Ticks are a deterministic function of the database and
/// options, so a change here means the evaluator's work actually
/// changed.
const QUERIES: &[(&str, &str, usize)] = &[
    (
        "q01-ground-path",
        "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']",
        1,
    ),
    (
        "q03-attribute-variable",
        "SELECT Y FROM Person X WHERE X.\"Y.City['newyork']",
        1,
    ),
    (
        "q04-subclass-of",
        "SELECT #X WHERE TurboEngine subclassOf #X",
        4,
    ),
    ("engine-types", "SELECT #X WHERE #X subclassOf Engines", 5),
    (
        "president-fammembers",
        "SELECT W FROM Person X WHERE uniSQL.President.FamMembers.Name[W]",
        2,
    ),
    (
        "employee-automobile-engines",
        "SELECT Z FROM Employee X, Automobile Y \
         WHERE X.OwnedVehicles[Y].Drivetrain.Engine[Z]",
        2,
    ),
];

/// Sequential pipelined tick counts for `QUERIES`, in order. Pinned so
/// profile regressions are loud; update deliberately when the evaluator
/// changes.
const PIPELINED_TICKS: &[u64] = &[35, 75, 37, 40, 96, 47];

/// A session with an explicitly pinned strategy and a default telemetry
/// registry (never the `XSQL_TELEMETRY` environment setting).
fn det_session(strategy: Strategy) -> Session {
    let opts = EvalOptions {
        strategy,
        ..EvalOptions::default()
    };
    let mut s = Session::with_options(figure1_db(), opts);
    s.set_registry(Arc::new(Registry::with_config(TelemetryConfig::default())));
    s
}

fn analyze(s: &mut Session, sql: &str) -> String {
    match s.run(&format!("EXPLAIN ANALYZE {sql}")) {
        Ok(Outcome::Explained { report }) => report,
        other => panic!("EXPLAIN ANALYZE {sql}: expected a report, got {other:?}"),
    }
}

/// Extracts the integer immediately following `prefix` in `report`.
fn metric(report: &str, prefix: &str) -> u64 {
    let at = report
        .find(prefix)
        .unwrap_or_else(|| panic!("no `{prefix}` in report:\n{report}"));
    report[at + prefix.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("no number after `{prefix}` in report:\n{report}"))
}

// ---------------------------------------------------------------------
// Satellite 1: EXPLAIN of a non-SELECT is a clean error with a span.
// ---------------------------------------------------------------------

#[test]
fn explain_non_select_is_error_with_span() {
    let mut s = det_session(Strategy::Pipelined);
    let err = s.run("EXPLAIN COMMIT WORK").unwrap_err();
    assert!(
        matches!(err, XsqlError::Parse { line: 1, .. }),
        "expected a located parse error, got {err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains("syntax error at line 1, column "), "{msg}");
    assert!(
        msg.contains("EXPLAIN applies to SELECT queries only"),
        "{msg}"
    );

    // The span points at the offending inner statement, not at EXPLAIN.
    let err = s
        .run("EXPLAIN\n  UPDATE CLASS Person SET john13.Age = 1")
        .unwrap_err();
    assert!(
        matches!(err, XsqlError::Parse { line: 2, .. }),
        "span should locate the inner statement on line 2: {err:?}"
    );

    // ANALYZE changes nothing about the contract.
    let err = s.run("EXPLAIN ANALYZE ROLLBACK WORK").unwrap_err();
    assert!(
        err.to_string().contains("EXPLAIN applies to SELECT"),
        "{err}"
    );

    // A set combination is a single-SELECT violation with its own message.
    let err = s
        .run("EXPLAIN SELECT X FROM Person X UNION SELECT Y FROM Person Y")
        .unwrap_err();
    assert!(
        err.to_string().contains("not a UNION/MINUS/INTERSECT"),
        "{err}"
    );

    // The session stays usable: errors above were statement-local.
    assert!(s.query("SELECT X FROM Person X").is_ok());
}

// ---------------------------------------------------------------------
// Satellite 2: profiles on the paper queries, exact counts, goldens.
// ---------------------------------------------------------------------

#[test]
fn explain_analyze_paper_query_profiles() {
    let mut ticks = Vec::new();
    for (label, sql, rows) in QUERIES {
        let mut s = det_session(Strategy::Pipelined);
        let report = analyze(&mut s, sql);
        assert!(report.contains("strategy: pipelined"), "{label}:\n{report}");
        assert_eq!(
            metric(&report, "rows out: ") as usize,
            *rows,
            "{label}:\n{report}"
        );
        ticks.push(metric(&report, "cost: "));
        // `rows out` is the cardinality the plain query reports.
        assert_eq!(s.query(sql).unwrap().len(), *rows, "{label}");
        // Deterministic renderings carry no wall-clock timings.
        assert!(!report.contains("µs"), "{label}:\n{report}");
    }
    assert_eq!(ticks, PIPELINED_TICKS, "pinned tick counts drifted");
}

#[test]
fn explain_analyze_goldens_are_byte_stable() {
    for (label, sql, _) in QUERIES {
        let a = analyze(&mut det_session(Strategy::Pipelined), sql);
        let b = analyze(&mut det_session(Strategy::Pipelined), sql);
        assert_eq!(a, b, "{label} is not byte-stable");
    }
}

// ---------------------------------------------------------------------
// Satellite 3: engine-invariance differential.
// ---------------------------------------------------------------------

#[test]
fn row_counts_invariant_across_engines() {
    for (label, sql, rows) in QUERIES {
        let engines = [
            ("naive", Strategy::Naive),
            ("pipelined", Strategy::Pipelined),
        ];
        for (engine, strategy) in engines {
            let mut s = det_session(strategy);
            let report = analyze(&mut s, sql);
            assert_eq!(
                metric(&report, "rows out: ") as usize,
                *rows,
                "{label} under {engine}:\n{report}"
            );
        }
    }
}

/// Attaching telemetry (an enabled registry with span recording) must
/// leave query results bit-identical to an untouched session.
#[test]
fn telemetry_leaves_results_bit_identical() {
    for (label, sql, _) in QUERIES {
        let mut plain = Session::new(figure1_db());
        let mut instrumented = det_session(Strategy::Pipelined);
        instrumented.set_registry(Arc::new(Registry::with_config(TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        })));

        let render = |s: &mut Session| -> Vec<Vec<String>> {
            let r = s.query(sql).unwrap();
            let rows: Vec<Vec<String>> = r
                .iter()
                .map(|t| t.iter().map(|o| s.db().render(*o)).collect())
                .collect();
            rows
        };
        assert_eq!(render(&mut plain), render(&mut instrumented), "{label}");
        // Profiling the same statement first does not perturb a
        // subsequent plain execution either.
        let _ = analyze(&mut instrumented, sql);
        assert_eq!(render(&mut plain), render(&mut instrumented), "{label}");
    }
}

// ---------------------------------------------------------------------
// Plain EXPLAIN keeps the §6 typing report and gains the static plan.
// ---------------------------------------------------------------------

#[test]
fn plain_explain_includes_static_plan() {
    // A single-variable filter query is inside the cost-based planner's
    // fragment: plain EXPLAIN shows its static plan.
    let mut s = det_session(Strategy::Pipelined);
    let report = match s.run("EXPLAIN SELECT X FROM Person X WHERE X.Residence.City['austin']") {
        Ok(Outcome::Explained { report }) => report,
        other => panic!("expected Explained, got {other:?}"),
    };
    // Typing report is still there…
    assert!(report.contains("well-typed"), "{report}");
    // …and the static plan follows it.
    assert!(report.contains("plan"), "{report}");
    assert!(report.contains("strategy: planner"), "{report}");
    assert!(report.contains("cost-based plan"), "{report}");
    assert!(report.contains("scan X: Person extent"), "{report}");
    assert!(report.contains("filter X: "), "{report}");

    // A selector-variable path is outside the fragment: the pipelined
    // engine keeps it, and the static plan says so.
    let report = match s.run("EXPLAIN SELECT Y FROM Person X WHERE X.Residence[Y].City['austin']") {
        Ok(Outcome::Explained { report }) => report,
        other => panic!("expected Explained, got {other:?}"),
    };
    assert!(report.contains("strategy: pipelined"), "{report}");
    assert!(!report.contains("cost-based plan"), "{report}");
}

// ---------------------------------------------------------------------
// STATS from the session surface.
// ---------------------------------------------------------------------

#[test]
fn stats_statement_renders_registry() {
    let mut s = det_session(Strategy::Pipelined);
    s.query("SELECT X FROM Person X").unwrap();
    let report = match s.run("STATS") {
        Ok(Outcome::Stats { report }) => report,
        other => panic!("expected Stats, got {other:?}"),
    };
    // Statement latency histogram is registered and counted.
    assert!(report.contains("xsql_stmt_latency_us_count"), "{report}");
    let count = metric(&report, "xsql_stmt_latency_us_count ");
    assert!(count >= 1, "{report}");
}
