//! Differential testing of the evaluation engines: the pipelined
//! nested-loop engine must agree exactly with the naive §3.4
//! specification semantics — on hand-written queries over the Figure 1
//! instance and on property-generated queries over random databases.
//! Every query additionally runs with the method index disabled,
//! through the cost-based planner (with and without index probes), and
//! twice through one session's `run` (the full parse → resolve →
//! execute path), which must all produce the same relation
//! bit-for-bit.
//!
//! The literal-pair leg shows that nothing carries over between
//! statements: pairs that differ only in literal content, whitespace
//! inside a literal, keyword/identifier case, or an `EXECUTE` argument
//! run in both orders through one warm session, and every answer must
//! equal a fresh session's and the naive engine's.

use datagen::{figure1_db, figure1_scaled, Figure1Params};
use oodb::{Database, DbBuilder, Oid};
use proptest::prelude::*;
use xsql::ast::Stmt;
use xsql::{eval_select, parse, resolve_stmt, EvalOptions, Outcome, Session};

/// Evaluates `src` under every engine configuration that must agree:
/// the pipelined engine with the planner disabled, the naive §3.4
/// reference, the method index disabled (forcing active-domain
/// enumeration), and the cost-based planner with and without index
/// probes. The planner
/// switch is pinned explicitly on every leg so the crossing does not
/// depend on the `XSQL_PLANNER` environment. Returns labelled
/// relations.
fn engines(db: &mut Database, src: &str) -> Vec<(&'static str, relalg::Relation)> {
    let stmt = parse(src).unwrap();
    let Stmt::Select(q) = resolve_stmt(db, &stmt).unwrap() else {
        panic!("not a select")
    };
    let base = EvalOptions {
        use_planner: false,
        ..EvalOptions::default()
    };
    let configs: Vec<(&'static str, EvalOptions)> = vec![
        ("pipelined", base.clone()),
        ("naive", EvalOptions::naive()),
        (
            "no-method-index",
            EvalOptions {
                use_method_index: false,
                ..base.clone()
            },
        ),
        (
            "planner",
            EvalOptions {
                use_planner: true,
                ..base.clone()
            },
        ),
        (
            "planner,no-method-index",
            EvalOptions {
                use_planner: true,
                use_method_index: false,
                ..base.clone()
            },
        ),
    ];
    let mut results: Vec<(&'static str, relalg::Relation)> = configs
        .into_iter()
        .map(|(label, opts)| (label, eval_select(db, &q, &opts).unwrap()))
        .collect();
    // Session legs, driven through `Session::run` so the statement
    // takes the real parse → resolve → execute path: a first run and a
    // re-run of the same text in the same session must both agree
    // bit-for-bit. The session runs on a clone taken *after* the engine
    // legs, so every result value is already interned and OIDs line up
    // exactly.
    let mut sess = Session::with_options(db.clone(), session_opts());
    let mut session_run = |label: &'static str| {
        let Outcome::Relation(rel) = sess.run(src).unwrap() else {
            panic!("session leg did not return a relation for {src}")
        };
        (label, rel)
    };
    let first = session_run("session");
    let rerun = session_run("session-rerun");
    results.push(first);
    results.push(rerun);
    results
}

/// Session options with the planner pinned on.
fn session_opts() -> EvalOptions {
    EvalOptions {
        use_planner: true,
        ..EvalOptions::default()
    }
}

/// The rows of `src` as rendered OIDs (comparable across sessions).
fn session_rows(s: &mut Session, src: &str) -> Vec<Vec<String>> {
    let rel = match s.run(src) {
        Ok(Outcome::Relation(rel)) => rel,
        other => panic!("`{src}` gave {other:?}"),
    };
    rel.iter()
        .map(|t| t.iter().map(|&o| s.db().render(o)).collect())
        .collect()
}

/// Runs the pair `a`/`b` in both orders through one warm session (each
/// statement twice) and asserts every answer equals a fresh session's
/// and the naive engine's. `setup` runs first in
/// every session (PREPAREs for `EXECUTE` pairs).
fn assert_literal_pair(db: &Database, setup: &[&str], a: &str, b: &str) {
    let fresh = |opts: EvalOptions| {
        let mut s = Session::with_options(db.clone(), opts);
        for st in setup {
            s.run(st).unwrap();
        }
        s
    };
    let oracle = EvalOptions {
        use_planner: false,
        ..EvalOptions::naive()
    };
    for (first, second) in [(a, b), (b, a)] {
        let mut warm = fresh(session_opts());
        for src in [first, second, first, second] {
            let want = session_rows(&mut fresh(oracle.clone()), src);
            let cold = session_rows(&mut fresh(session_opts()), src);
            assert_eq!(cold, want, "fresh session disagrees with naive on {src}");
            let got = session_rows(&mut warm, src);
            assert_eq!(
                got, want,
                "warm session (`{first}` then `{second}`) disagrees with naive on {src}"
            );
        }
    }
}

#[test]
fn literal_pairs_agree_warm_and_cold() {
    let db = figure1_db();
    let pairs: &[(&[&str], &str, &str)] = &[
        // Literal content.
        (
            &[],
            "SELECT X FROM Person X WHERE X.Age >= 34",
            "SELECT X FROM Person X WHERE X.Age >= 30",
        ),
        (
            &[],
            "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary > Y.Salary and X.Salary > 30000",
            "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary > Y.Salary and X.Salary > 40000",
        ),
        // Whitespace inside a literal.
        (
            &[],
            "SELECT X FROM Person X WHERE X.Residence.City['newyork']",
            "SELECT X FROM Person X WHERE X.Residence.City['new york']",
        ),
        (
            &[],
            "SELECT X FROM Person X WHERE X.Name = 'Mary'",
            "SELECT X FROM Person X WHERE X.Name = 'Mary '",
        ),
        // Keyword and identifier case.
        (
            &[],
            "select X from Person X where X.Age >= 34",
            "SELECT X FROM Person X WHERE X.Age >= 34",
        ),
        (
            &[],
            "SELECT x FROM Person x WHERE x.Age >= 34",
            "SELECT X FROM Person X WHERE X.Age >= 34",
        ),
        // EXECUTE argument value.
        (
            &["PREPARE p AS SELECT X FROM Person X WHERE X.Age >= ?1"],
            "EXECUTE p (34)",
            "EXECUTE p (30)",
        ),
        (
            &["PREPARE c AS SELECT X FROM Person X WHERE X.Residence.City = ?1"],
            "EXECUTE c ('newyork')",
            "EXECUTE c ('new york')",
        ),
    ];
    for (setup, a, b) in pairs {
        assert_literal_pair(&db, setup, a, b);
    }
    // The scaled fixture's company names differ only in a number, so a
    // doubled space inside the literal names no company at all.
    let scaled = figure1_scaled(&Figure1Params::with_total_objects(500));
    assert_literal_pair(
        &scaled,
        &[],
        "SELECT X FROM Company X WHERE X.Name = 'Company  3'",
        "SELECT X FROM Company X WHERE X.Name = 'Company 3'",
    );
}

fn assert_all_agree(db: &mut Database, src: &str) {
    let results = engines(db, src);
    let (ref_label, ref_rel) = &results[0];
    for (label, rel) in &results[1..] {
        assert_eq!(rel, ref_rel, "{label} disagrees with {ref_label} on {src}");
    }
}

/// A value overwritten under one argument tuple must stay indexed
/// while another tuple of the same receiver and method still holds
/// it: `a.(Tag@2)` keeps `'red'` after `a.(Tag@1)` moves to `'blue'`,
/// and `b.(Tag@2)` keeps `3` after `b.(Tag@1)` moves to `4` (probed
/// with the Real spelling `3.0`).
#[test]
fn value_anchor_survives_overwrite_of_another_argument_tuple() {
    let mut s = Session::new(Database::new());
    for stmt in [
        "CREATE CLASS Thing",
        "CREATE OBJECT a CLASS Thing",
        "CREATE OBJECT b CLASS Thing",
        "UPDATE CLASS Thing SET a.(Tag@1) = 'red'",
        "UPDATE CLASS Thing SET a.(Tag@2) = 'red'",
        "UPDATE CLASS Thing SET a.(Tag@1) = 'blue'",
        "UPDATE CLASS Thing SET b.(Tag@1) = 3",
        "UPDATE CLASS Thing SET b.(Tag@2) = 3",
        "UPDATE CLASS Thing SET b.(Tag@1) = 4",
    ] {
        s.run(stmt).unwrap();
    }
    let mut db = s.db().clone();
    for src in [
        "SELECT X WHERE X.(Tag@2)['red']",
        "SELECT X WHERE X.(Tag@2)[3.0]",
    ] {
        let results = engines(&mut db, src);
        let (_, naive) = results
            .iter()
            .find(|(label, _)| *label == "naive")
            .expect("naive leg");
        assert_eq!(naive.len(), 1, "naive answer for {src}");
        for (label, rel) in &results {
            assert_eq!(rel, naive, "{label} disagrees with naive on {src}");
        }
    }
}

#[test]
fn figure1_engine_agreement() {
    let mut db = figure1_db();
    for src in [
        "SELECT X FROM Person X WHERE X.Age >= 34",
        "SELECT X, Y FROM Employee X, Automobile Y WHERE X.OwnedVehicles[Y]",
        "SELECT X FROM Person X WHERE X.Residence.City['austin'] or X.Residence.City['newyork']",
        "SELECT X FROM Employee X WHERE not X.OwnedVehicles",
        "SELECT Y FROM Person X WHERE X.\"Y.State['TX']",
        "SELECT #C FROM #C V WHERE V.Color['red']",
        "SELECT X FROM Company X WHERE X.Name =some X.Divisions.Employees.Name",
        "SELECT X FROM Employee X WHERE X.FamMembers.Age all< 30",
        "SELECT X FROM Person X WHERE X.OwnedVehicles.Color subsetEq {'green'}",
        "SELECT X FROM Vehicle X WHERE X.Manufacturer[M] and M.President.OwnedVehicles[X]",
        // Free variable inside a negation: §3.4 quantifies it at the
        // top level, so `not φ(V)` holds if SOME V falsifies φ.
        "SELECT X FROM Employee X WHERE not X.OwnedVehicles[V]",
        // Disjunction that binds different variables per branch.
        "SELECT X FROM Person X WHERE X.OwnedVehicles[V].Color['green'] or X.Salary[W]",
        // Planner-fragment joins: theta (two inequality edges), hash on
        // an equality edge, and hash on a set-membership link combined
        // with an index-range filter.
        "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary > Y.Salary and X.Age < Y.Age",
        "SELECT X, Y FROM Person X, Person Y WHERE X.Age = Y.Age",
        "SELECT X, W FROM Company X, Employee W \
         WHERE X.Divisions.Employees[W] and W.Salary > 30000",
        "SELECT X, Y FROM Person X, Automobile Y WHERE X.OwnedVehicles[Y] and X.Age >= 34",
    ] {
        assert_all_agree(&mut db, src);
    }
}

fn random_db(edges: &[(u8, u8)], labels: &[(u8, bool)], ages: &[(u8, u8)]) -> Database {
    let mut b = DbBuilder::new();
    b.class("Node");
    b.subclass("Special", &["Node"]);
    b.attr("Node", "Age", "Numeral");
    b.set_attr("Node", "Next", "Node");
    b.attr("Node", "Tag", "String");
    let nodes: Vec<Oid> = (0..6)
        .map(|i| {
            let class = if labels.iter().any(|&(x, sp)| sp && x % 6 == i) {
                "Special"
            } else {
                "Node"
            };
            b.obj(&format!("n{i}"), class)
        })
        .collect();
    for &(x, y) in edges {
        b.add_to(nodes[(x % 6) as usize], "Next", nodes[(y % 6) as usize]);
    }
    for &(x, a) in ages {
        // Alternate the numeral spelling: even ages are stored as Ints,
        // odd ages as Reals. `X.Age[n]` must match either spelling, so
        // the value-anchored head lookup must be numeral-insensitive —
        // an index keyed on the literal's exact OID would be unsound.
        let node = nodes[(x % 6) as usize];
        let age = a % 40;
        if age % 2 == 0 {
            b.set_int(node, "Age", i64::from(age));
        } else {
            let r = b.real(f64::from(age));
            b.set(node, "Age", r);
        }
    }
    for (i, &n) in nodes.iter().enumerate() {
        if i % 2 == 0 {
            b.set_str(n, "Tag", if i % 4 == 0 { "even4" } else { "even2" });
        }
    }
    b.build()
}

/// A `Node` label whose inner run of spaces is `spaces` long.
fn label(spaces: usize) -> String {
    format!("node{}x", " ".repeat(spaces))
}

/// The literal-pair leg's fixture: six `Node`s with the given ages and
/// labels carrying 0, 1 or 2 inner spaces, so statements whose literals
/// differ only in whitespace select different nodes.
fn labelled_db(ages: &[u8]) -> Database {
    let mut b = DbBuilder::new();
    b.class("Node");
    b.attr("Node", "Age", "Numeral");
    b.attr("Node", "Label", "String");
    for i in 0..6 {
        let n = b.obj(&format!("n{i}"), "Node");
        if let Some(&a) = ages.get(i) {
            b.set_int(n, "Age", i64::from(a));
        }
        b.set_str(n, "Label", &label(i % 3));
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn literal_pairs_agree_on_random_databases(
        ages in proptest::collection::vec(0u8..40, 0..6),
        kind in 0usize..5,
        t1 in 0u8..40,
        t2 in 0u8..40,
        s1 in 0usize..3,
        s2 in 0usize..3,
    ) {
        let db = labelled_db(&ages);
        let (l1, l2) = (label(s1), label(s2));
        let (setup, a, b): (Option<&str>, String, String) = match kind {
            0 => (
                None,
                format!("SELECT X, Y FROM Node X, Node Y WHERE X.Age > Y.Age and X.Age <= {t1}"),
                format!("SELECT X, Y FROM Node X, Node Y WHERE X.Age > Y.Age and X.Age <= {t2}"),
            ),
            1 => (
                None,
                format!("SELECT X FROM Node X WHERE X.Label = '{l1}'"),
                format!("SELECT X FROM Node X WHERE X.Label = '{l2}'"),
            ),
            2 => (
                None,
                format!("select X from Node X where X.Age >= {t1}"),
                format!("SELECT X FROM Node X WHERE X.Age >= {t1}"),
            ),
            3 => (
                Some("PREPARE p AS SELECT X FROM Node X WHERE X.Age > ?1"),
                format!("EXECUTE p ({t1})"),
                format!("EXECUTE p ({t2})"),
            ),
            _ => (
                Some("PREPARE l AS SELECT X FROM Node X WHERE X.Label = ?1"),
                format!("EXECUTE l ('{l1}')"),
                format!("EXECUTE l ('{l2}')"),
            ),
        };
        assert_literal_pair(&db, setup.as_slice(), &a, &b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn engines_agree_on_random_databases(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
        labels in proptest::collection::vec((0u8..6, any::<bool>()), 0..6),
        ages in proptest::collection::vec((0u8..6, 0u8..40), 0..6),
        qsel in 0usize..14,
        t in 0u8..40,
    ) {
        let mut db = random_db(&edges, &labels, &ages);
        let queries = [
            "SELECT X FROM Node X WHERE X.Next.Next".to_string(),
            "SELECT X, Y FROM Special X, Node Y WHERE X.Next[Y]".to_string(),
            format!("SELECT X FROM Node X WHERE X.Age some> {t} and X.Next"),
            "SELECT X FROM Node X WHERE not X.Next[X]".to_string(),
            format!("SELECT X FROM Node X WHERE X.Next.Age all>= {t}"),
            "SELECT X FROM Node X WHERE X.Tag['even4'] or X.Next.Tag['even2']".to_string(),
            "SELECT X FROM Node X WHERE X.Next.Next[Y] and Y.Next[X]".to_string(),
            format!("SELECT X FROM Node X WHERE count(X.Next) >= 2 and X.Age <= {t}"),
            // Ground numeral selectors, in both the Int and the Real
            // spelling: ages are stored under mixed spellings, so the
            // value-anchored head lookup must collapse them to agree
            // with the naive and index-free engines.
            format!("SELECT X FROM Node X WHERE X.Age[{t}]"),
            format!("SELECT X FROM Node X WHERE X.Age[{t}.0] and X.Next"),
            // Planner-fragment joins over the mixed Int/Real numeral
            // spellings: the hash join's canonical key must collapse
            // `2` and `2.0` exactly like `elem_eq`, and the equality
            // probe must agree with the naive engine despite spelling.
            "SELECT X, Y FROM Node X, Node Y WHERE X.Age = Y.Age".to_string(),
            format!("SELECT X, Y FROM Special X, Node Y WHERE X.Next[Y] and Y.Age > {t}"),
            format!("SELECT X, Y FROM Node X, Node Y WHERE X.Age > Y.Age and X.Age <= {t}"),
            format!("SELECT X, Y FROM Node X, Special Y WHERE X.Next[Y] and X.Age = {t}.0"),
        ];
        let results = engines(&mut db, &queries[qsel]);
        let (ref_label, ref_rel) = &results[0];
        for (label, rel) in &results[1..] {
            prop_assert_eq!(
                rel, ref_rel,
                "{} disagrees with {} on {}", label, ref_label, &queries[qsel]
            );
        }
    }
}
