//! Mid-statement cancellation safety: a statement cancelled at *any*
//! evaluation tick leaves the database bit-identical to its
//! pre-statement state (the statement's implicit savepoint covers
//! cancellation exactly like any other failure).
//!
//! The sweep is deterministic, not sampled: for each random mutating
//! statement, `cancel_at_tick` walks k = 1, 2, 3, … until the statement
//! finally completes, so every tick point the statement ever reaches is
//! exercised as a cancellation site.
//!
//! The budget tests below pin how each resource limit aborts a query on
//! the scaled Figure 1 instance: the typed error and its reason.

use datagen::{figure1_scaled, Figure1Params};
use oodb::Database;
use std::time::{Duration, Instant};
use xsql::ast::Stmt;
use xsql::{
    eval_select, parse, resolve_stmt, CancelFlag, EvalBudget, EvalOptions, Session, XsqlError,
};

fn digest(db: &Database) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (r, m, args, v) in db.state_entries() {
        writeln!(out, "S {r:?} {m:?} {args:?} {v:?}").unwrap();
    }
    for c in db.classes() {
        writeln!(
            out,
            "C {c:?} sup={:?} inst={:?} sigs={:?}",
            db.direct_supers(c),
            db.instances_of(c),
            db.direct_signatures(c)
        )
        .unwrap();
    }
    writeln!(out, "I {:?}", db.individuals().collect::<Vec<_>>()).unwrap();
    writeln!(out, "M {:?}", db.method_objects().collect::<Vec<_>>()).unwrap();
    out
}

fn mix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One random *mutating* statement (cancelling a pure query is trivially
/// clean; the interesting sites are mid-mutation ticks).
fn mutating_stmt(s: &mut u64) -> String {
    let n = mix(s);
    match n % 6 {
        0 => format!(
            "UPDATE CLASS Employee SET kim1.Salary = {}",
            1000 * (n % 100)
        ),
        1 => format!(
            "CREATE OBJECT nb{} CLASS Person SET Age = {}",
            n % 5,
            n % 90
        ),
        2 => format!("CREATE CLASS K{} AS SUBCLASS OF Person", n % 4),
        3 => format!(
            "CREATE VIEW V{} AS SUBCLASS OF Object SIGNATURE A => Numeral \
             SELECT A = X.Age FROM Person X OID FUNCTION OF X WHERE X.Age > {}",
            n % 3,
            n % 60
        ),
        4 => format!(
            "SELECT Age = X.Age FROM Person X OID FUNCTION OF X \
             WHERE X.Age > {}",
            n % 60
        ),
        _ => format!(
            "ALTER CLASS Person ADD SIGNATURE Sig{} => Numeral \
             SELECT (Sig{} @) = {} FROM Person X OID X",
            n % 4,
            n % 4,
            n % 10
        ),
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(48))]

    #[test]
    fn cancellation_at_every_tick_leaves_db_unchanged(seed in 0u64..1_000_000_000_000) {
        let mut s = seed;
        let mut session = Session::new(datagen::figure1_db());
        // A committed random prefix, so sweeps start from varied states.
        for _ in 0..mix(&mut s) % 3 {
            let stmt = mutating_stmt(&mut s);
            let _ = session.run(&stmt);
        }
        for _ in 0..2 {
            let stmt = mutating_stmt(&mut s);
            let before = digest(session.db());
            let mut k = 1u64;
            loop {
                let mut opts = EvalOptions::default();
                opts.budget.cancel_at_tick = Some(k);
                session.set_options(opts);
                match session.run(&stmt) {
                    Err(XsqlError::Cancelled { .. }) => {
                        proptest::prop_assert_eq!(
                            &before,
                            &digest(session.db()),
                            "db changed across cancellation of `{}` at tick {}",
                            stmt,
                            k
                        );
                        k += 1;
                        proptest::prop_assert!(
                            k <= 2_000_000,
                            "`{}` never completed",
                            stmt
                        );
                    }
                    // The statement ran past tick k: the whole sweep is
                    // done — every tick it reaches was a cancel site.
                    Ok(_) => break,
                    // Statements may also fail for ordinary reasons
                    // (e.g. a duplicate signature); that rollback path
                    // is covered by tests/stress.rs. Still must be
                    // clean, and ends the sweep for this statement.
                    Err(e) => {
                        proptest::prop_assert_eq!(
                            &before,
                            &digest(session.db()),
                            "db changed across failure of `{}`: {}",
                            stmt,
                            e
                        );
                        break;
                    }
                }
            }
            // The follow-up statement runs uncancelled: the session
            // must be fully usable after any number of cancellations.
            session.set_options(EvalOptions::default());
        }
    }
}

/// A join whose evaluation takes far more than a few hundred ticks.
const JOIN: &str =
    "SELECT X, W FROM Company X, Employee W WHERE X.Divisions.Employees[W] and W.Salary > 30000";

/// Evaluates `src` on the default scaled Figure 1 instance.
fn run_scaled(src: &str, opts: &EvalOptions) -> xsql::XsqlResult<relalg::Relation> {
    let mut db = figure1_scaled(&Figure1Params::default());
    let stmt = parse(src).unwrap();
    let Stmt::Select(q) = resolve_stmt(&mut db, &stmt).unwrap() else {
        panic!("not a select")
    };
    eval_select(&db, &q, opts)
}

#[test]
fn work_limit_aborts_scaled_query() {
    let opts = EvalOptions {
        work_limit: 500,
        ..EvalOptions::default()
    };
    match run_scaled(JOIN, &opts) {
        Err(XsqlError::WorkLimit(limit)) => assert_eq!(limit, 500),
        other => panic!("expected WorkLimit, got {other:?}"),
    }
}

#[test]
fn tuple_budget_aborts_scaled_query() {
    let opts = EvalOptions {
        budget: EvalBudget {
            max_tuples: 50,
            ..EvalBudget::default()
        },
        ..EvalOptions::default()
    };
    match run_scaled(
        "SELECT X, W FROM Employee X, Employee W WHERE X.Salary <= W.Salary",
        &opts,
    ) {
        Err(XsqlError::Budget { resource, limit }) => {
            assert_eq!(resource, "materialized tuple");
            assert_eq!(limit, 50);
        }
        other => panic!("expected tuple Budget error, got {other:?}"),
    }
}

#[test]
fn pre_tripped_cancel_flag_aborts_query() {
    let cancel = CancelFlag::new();
    cancel.cancel();
    let opts = EvalOptions {
        cancel,
        ..EvalOptions::default()
    };
    match run_scaled(JOIN, &opts) {
        Err(XsqlError::Cancelled { reason }) => assert_eq!(reason, "cancelled by client"),
        other => panic!("expected client cancellation, got {other:?}"),
    }
}

#[test]
fn expired_deadline_aborts_query() {
    let opts = EvalOptions {
        budget: EvalBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..EvalBudget::default()
        },
        ..EvalOptions::default()
    };
    match run_scaled(JOIN, &opts) {
        Err(XsqlError::Cancelled { reason }) => assert_eq!(reason, "statement deadline exceeded"),
        other => panic!("expected deadline cancellation, got {other:?}"),
    }
}

#[test]
fn injected_tick_cancellation_aborts_query() {
    for k in [1, 7, 100, 1000] {
        let opts = EvalOptions {
            budget: EvalBudget {
                cancel_at_tick: Some(k),
                ..EvalBudget::default()
            },
            ..EvalOptions::default()
        };
        match run_scaled(JOIN, &opts) {
            Err(XsqlError::Cancelled { reason }) => {
                assert_eq!(reason, format!("cancellation injected at tick {k}"));
            }
            other => panic!("expected injected cancellation at k={k}, got {other:?}"),
        }
    }
}

/// Regression test for the unbudgeted id-term head scan: the
/// `IdTerm::Func` branch of `walk_path` enumerates every id-term
/// object in the database when the head is not fully bound, and that
/// scan must be subject to `max_binding_set` exactly like the var-head
/// branch. A view materializing one object per employee makes the scan
/// large; a small budget must trip it instead of silently enumerating.
#[test]
fn partially_unbound_func_head_scan_is_budgeted() {
    let mut s = Session::new(figure1_scaled(&Figure1Params::default()));
    let out = s
        .run(
            "CREATE VIEW EmpSal AS SUBCLASS OF Object \
             SIGNATURE Salary => Numeral \
             SELECT Salary = W.Salary FROM Employee W OID FUNCTION OF W",
        )
        .unwrap();
    let xsql::Outcome::ViewCreated { count, .. } = out else {
        panic!("expected view creation, got {out:?}")
    };
    assert!(count > 100, "scaled db should give a large view extent");

    // `V` is bound by nothing but the id-term head itself, so the
    // evaluator must take the candidate-scan branch over every id-term
    // object. With the default (huge) budget the scan succeeds: every
    // employee's own salary appears in their view object.
    let full = s
        .query("SELECT W FROM Employee W WHERE EmpSal(V).Salary = W.Salary")
        .unwrap();
    assert_eq!(full.len(), count);

    // ...and with a budget smaller than the id-term object population
    // it must degrade into a clean Budget error, not an unbounded scan.
    s.set_options(EvalOptions {
        budget: EvalBudget {
            max_binding_set: 50,
            ..EvalBudget::default()
        },
        ..EvalOptions::default()
    });
    match s.query("SELECT W FROM Employee W WHERE EmpSal(V).Salary = W.Salary") {
        Err(XsqlError::Budget { resource, limit }) => {
            assert_eq!(resource, "binding set size");
            assert_eq!(limit, 50);
        }
        other => panic!("expected binding-set Budget error, got {other:?}"),
    }
}
