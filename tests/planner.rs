//! EXPLAIN goldens for the cost-based planner: join order, join
//! operator and access-path choices are pinned as rendered plan lines,
//! on the Figure 1 database and the scaled benchmark database. A
//! drifting golden means the cost model's decisions actually changed —
//! update deliberately.
//!
//! Result *correctness* of planned queries is covered by the
//! differential suite (`tests/differential.rs`) and the transaction
//! interleavings (`tests/index_rollback.rs`); this file pins the
//! *decisions*.

use datagen::{figure1_db, figure1_scaled, Figure1Params};
use oodb::Database;
use std::sync::Arc;
use telemetry::{Registry, TelemetryConfig};
use xsql::{EvalOptions, Outcome, Session, Strategy};

fn det_session(db: Database) -> Session {
    let opts = EvalOptions {
        strategy: Strategy::Pipelined,
        use_planner: true,
        use_method_index: true,
        ..EvalOptions::default()
    };
    let mut s = Session::with_options(db, opts);
    s.set_registry(Arc::new(Registry::with_config(TelemetryConfig::default())));
    s
}

fn explain(s: &mut Session, sql: &str) -> String {
    match s.run(&format!("EXPLAIN {sql}")) {
        Ok(Outcome::Explained { report }) => report,
        other => panic!("EXPLAIN {sql}: expected a report, got {other:?}"),
    }
}

fn analyze(s: &mut Session, sql: &str) -> String {
    match s.run(&format!("EXPLAIN ANALYZE {sql}")) {
        Ok(Outcome::Explained { report }) => report,
        other => panic!("EXPLAIN ANALYZE {sql}: expected a report, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Join-operator and join-order goldens (static EXPLAIN).
// ---------------------------------------------------------------------

#[test]
fn theta_join_golden() {
    // Two inequality edges: no hashable edge exists, so the planner
    // falls back to a nested theta join over cached columns. X drives
    // (tie on extent size broken by FROM order).
    let report = explain(
        &mut det_session(figure1_db()),
        "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary > Y.Salary and X.Age < Y.Age",
    );
    let golden = "\
└─ cost-based plan
   ├─ scan X: Employee extent, 2 objects, est 2 rows
   └─ join Y (nested-theta): X.Salary > Y.Salary and X.Age < Y.Age, est 1 rows";
    assert!(report.contains(golden), "golden drifted:\n{report}");
}

#[test]
fn hash_join_on_set_link_with_range_probe_golden() {
    // The membership link `X.Divisions.Employees[W]` is hashable; the
    // salary predicate narrows W through the ordered index, making the
    // filtered Employee side the cheaper driver — Company joins in by
    // hash, not by re-scanning its extent per W.
    let report = explain(
        &mut det_session(figure1_db()),
        "SELECT X, W FROM Company X, Employee W \
         WHERE X.Divisions.Employees[W] and W.Salary > 30000",
    );
    let golden = "\
└─ cost-based plan
   ├─ scan W: Employee extent, 2 objects, est 1 rows
   ├─ filter W: W.Salary > 30000 via attr-index range
   └─ join X (hash): X.Divisions.Employees[W], est 1 rows";
    assert!(report.contains(golden), "golden drifted:\n{report}");
}

#[test]
fn hash_join_on_equality_edge_golden() {
    let report = explain(
        &mut det_session(figure1_db()),
        "SELECT X, Y FROM Person X, Person Y WHERE X.Age = Y.Age",
    );
    let golden = "\
└─ cost-based plan
   ├─ scan X: Person extent, 5 objects, est 5 rows
   └─ join Y (hash): X.Age = Y.Age, est 5 rows";
    assert!(report.contains(golden), "golden drifted:\n{report}");
}

#[test]
fn index_eq_probe_golden() {
    let report = explain(
        &mut det_session(figure1_db()),
        "SELECT X FROM Person X WHERE X.Age = 41",
    );
    let golden = "\
└─ cost-based plan
   ├─ scan X: Person extent, 5 objects, est 1 rows
   └─ filter X: X.Age = 41 via attr-index eq";
    assert!(report.contains(golden), "golden drifted:\n{report}");
}

#[test]
fn filtered_driver_picks_join_order() {
    // The range filter on X makes Person-side estimates smaller, so X
    // stays the driver and the vehicle side is hash-joined through the
    // membership link.
    let report = explain(
        &mut det_session(figure1_db()),
        "SELECT X, Y FROM Person X, Automobile Y WHERE X.OwnedVehicles[Y] and X.Age >= 34",
    );
    let golden = "\
└─ cost-based plan
   ├─ scan X: Person extent, 5 objects, est 2 rows
   ├─ filter X: X.Age >= 34 via attr-index range
   └─ join Y (hash): X.OwnedVehicles[Y], est 2 rows";
    assert!(report.contains(golden), "golden drifted:\n{report}");
}

// ---------------------------------------------------------------------
// EXPLAIN ANALYZE: estimated vs. actual rows per step.
// ---------------------------------------------------------------------

#[test]
fn analyze_reports_estimated_and_actual_rows() {
    let report = analyze(
        &mut det_session(figure1_db()),
        "SELECT X, Y FROM Person X, Automobile Y WHERE X.OwnedVehicles[Y] and X.Age >= 34",
    );
    // Estimates and actuals are both present — and allowed to differ
    // (the cost model is a model, the actuals are the truth).
    assert!(
        report.contains("scan X: Person extent, 5 objects, est 2 rows, actual 3 rows"),
        "{report}"
    );
    assert!(
        report.contains("join Y (hash): X.OwnedVehicles[Y], est 2 rows, actual 3 rows"),
        "{report}"
    );
    assert!(report.contains("rows out: 3"), "{report}");
}

#[test]
fn analyze_on_scaled_database_golden() {
    // The benchmark-shaped self-join on the scaled database (300
    // employees): the plan and its actual cardinalities are pinned, so
    // a cost-model or executor change that alters what the benchmark
    // measures shows up here first.
    let report = analyze(
        &mut det_session(figure1_scaled(&Figure1Params::default())),
        "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary > Y.Salary and X.Age < Y.Age",
    );
    assert!(
        report.contains("scan X: Employee extent, 300 objects, est 300 rows, actual 300 rows"),
        "{report}"
    );
    assert!(
        report.contains(
            "join Y (nested-theta): X.Salary > Y.Salary and X.Age < Y.Age, \
             est 30000 rows, actual 20172 rows"
        ),
        "{report}"
    );
    assert!(report.contains("rows out: 20172"), "{report}");
}

// ---------------------------------------------------------------------
// Fragment boundaries and the off switch.
// ---------------------------------------------------------------------

#[test]
fn planner_off_switch_restores_pipelined() {
    let mut s = det_session(figure1_db());
    s.set_options(EvalOptions {
        strategy: Strategy::Pipelined,
        use_planner: false,
        ..EvalOptions::default()
    });
    let report = explain(&mut s, "SELECT X FROM Person X WHERE X.Age = 41");
    assert!(report.contains("strategy: pipelined"), "{report}");
    assert!(!report.contains("cost-based plan"), "{report}");
}

#[test]
fn out_of_fragment_queries_stay_pipelined() {
    let mut s = det_session(figure1_db());
    for q in [
        // Selector variable on a path — not a recognized edge shape.
        "SELECT Y FROM Person X WHERE X.Residence[Y].City['austin']",
        // A two-variable disjunction is not a recognized join edge.
        // (A *one*-variable disjunction would be fine — any 1-var
        // condition is a filter the planner runs through `holds`.)
        "SELECT X, Y FROM Person X, Person Y WHERE X.Age = Y.Age or X.Age > Y.Age",
        // Class variable in FROM.
        "SELECT #C FROM #C V WHERE V.Color['red']",
        // No WHERE clause at all.
        "SELECT X FROM Person X",
    ] {
        let report = explain(&mut s, q);
        assert!(
            report.contains("strategy: pipelined"),
            "expected pipelined fallback on {q}:\n{report}"
        );
        assert!(!report.contains("cost-based plan"), "{q}:\n{report}");
    }
}

#[test]
fn goldens_are_byte_stable() {
    for q in [
        "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary > Y.Salary and X.Age < Y.Age",
        "SELECT X, W FROM Company X, Employee W \
         WHERE X.Divisions.Employees[W] and W.Salary > 30000",
        "SELECT X FROM Person X WHERE X.Age = 41",
    ] {
        let a = analyze(&mut det_session(figure1_db()), q);
        let b = analyze(&mut det_session(figure1_db()), q);
        assert_eq!(a, b, "{q} is not byte-stable");
    }
}

/// A probed variable walks the probe's receivers and keeps only those
/// in its class extent: a name stored on a company, a plain person or
/// an employee probes the same `Name` index, and each FROM class keeps
/// only its own instances (the naive engine is the oracle).
#[test]
fn probe_receivers_outside_the_extent_are_not_kept() {
    let naive = EvalOptions {
        strategy: Strategy::Naive,
        ..EvalOptions::default()
    };
    let mut planned = det_session(figure1_db());
    let mut oracle = Session::with_options(figure1_db(), naive);
    for class in ["Employee", "Person", "Company", "Division"] {
        for name in ["UniSQL", "Mary", "John", "Sales", "Nobody"] {
            let q = format!("SELECT X FROM {class} X WHERE X.Name = '{name}'");
            let got = planned.query(&q).unwrap();
            assert_eq!(got, oracle.query(&q).unwrap(), "{q}");
            assert!(
                analyze(&mut planned, &q).contains("via attr-index"),
                "{q} is not probed"
            );
            // The company's name is probed for every class but kept
            // only for `Company`.
            if name == "UniSQL" {
                assert_eq!(got.is_empty(), class != "Company", "{q}");
            }
        }
    }
}
