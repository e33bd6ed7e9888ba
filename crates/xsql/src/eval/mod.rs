//! Query evaluation.
//!
//! Three engines implement the same semantics (differentially tested):
//!
//! * **Naive** — the specification of §3.4 verbatim: consider all
//!   substitutions of OIDs for variables over the active domain of each
//!   sort, check the FROM and WHERE clauses per substitution. Exponential;
//!   used as ground truth on small databases.
//! * **Pipelined** — the nested-loop strategy the paper describes in §6.2
//!   ("each path expression is evaluated by a sequence of nested loops"):
//!   conjuncts are scheduled greedily, path expressions act as generators
//!   that bind variables by traversal, comparisons as filters.
//! * **Typed** — pipelined plus the Theorem 6.1 optimization: variable
//!   instantiation restricted to the ranges of a coherent type assignment
//!   and evaluation ordered by its execution plan (see `crate::typing`).

pub mod bindings;
pub mod cond;
pub mod create;
pub mod method;
pub mod path;
pub mod profile;
pub mod select;
pub mod update;
pub mod value;
pub mod vars;
pub mod view;

use crate::ast::SelectQuery;
use crate::error::{XsqlError, XsqlResult};
use oodb::{Database, Oid};
use std::cell::Cell as StdCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cooperative cancellation token, checked at the evaluator's tick
/// points alongside the other [`EvalBudget`] resources. Cloning shares
/// the underlying flag, so one handle can be kept by a controller
/// thread while its clone travels into [`EvalOptions`]; tripping it
/// makes the running statement fail with [`XsqlError::Cancelled`] at
/// the next tick, after which the statement's implicit savepoint rolls
/// all partial effects back.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token: the statement evaluating under it cancels at
    /// its next tick point.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelFlag::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Evaluation strategy (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// §3.4 specification semantics: full domain enumeration.
    Naive,
    /// Nested-loop generators/filters with greedy scheduling.
    #[default]
    Pipelined,
}

/// Evaluation options.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Which engine to use.
    pub strategy: Strategy,
    /// Hard cap on evaluation steps (ticks); exceeded → `WorkLimit`
    /// error. Guards the naive engine on non-toy databases.
    pub work_limit: u64,
    /// Maximum number of hops a path variable (`X.*P.City`) may take.
    pub path_var_limit: usize,
    /// Use the database's inverted method index to seed head-unbound
    /// path expressions (candidates restricted to objects on which the
    /// first step's method may be defined — cf. \[BERT89\]). Sound:
    /// the candidate set is a superset of the satisfying heads. Off in
    /// benchmarks that measure the unindexed engine.
    pub use_method_index: bool,
    /// Resource budgets beyond the tick-based work limit (see
    /// [`EvalBudget`]).
    pub budget: EvalBudget,
    /// Cooperative cancellation token. The default token is never
    /// tripped; a service layer installs a per-statement clone so a
    /// hung or abandoned query degrades into [`XsqlError::Cancelled`]
    /// instead of wedging its worker.
    pub cancel: CancelFlag,
    /// Let the cost-based planner (`crate::plan`) take over top-level
    /// pipelined SELECTs whose WHERE clause it fully recognizes: it
    /// picks join order and access path (extent scan, attribute-index
    /// probe or range, hash vs. nested theta join) from estimated
    /// cardinalities. Results are bit-identical to the pipelined and
    /// naive engines — the differential suite crosses all of them.
    /// Defaults to on; the `XSQL_PLANNER=0` environment variable
    /// disables it wholesale (the no-index/no-planner differential leg
    /// and CI use this).
    pub use_planner: bool,
    /// Has no effect. Statement text is never cached:
    /// [`Session::run`](crate::Session::run) parses and resolves every
    /// statement, and `PREPARE`/`EXECUTE` is the one way to reuse a
    /// resolved one. The field stays only because the benchmark harness
    /// (`perfbench/src/workload.rs`) still sets it; it is deleted
    /// together with that line when the benchmark next changes
    /// (ROADMAP item 2).
    pub use_vm: bool,
    /// Optional execution-profile sink (`EXPLAIN ANALYZE`). When
    /// attached, the evaluator records strategy, plan, stage and cost
    /// information into it; recording sites are gated on the `Option`
    /// and sit at stage boundaries, so ordinary evaluation pays
    /// nothing. Cloning the options shares the sink.
    pub profile: Option<Arc<profile::QueryProfile>>,
}

/// Default planner switch: on unless the `XSQL_PLANNER` environment
/// variable is set to `0` (the differential no-planner leg and CI use
/// the env hook to sweep whole suites without touching call sites).
fn env_planner() -> bool {
    std::env::var("XSQL_PLANNER").map_or(true, |v| v != "0")
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            strategy: Strategy::Pipelined,
            work_limit: 200_000_000,
            path_var_limit: 4,
            use_method_index: true,
            budget: EvalBudget::default(),
            cancel: CancelFlag::default(),
            use_planner: env_planner(),
            use_vm: false,
            profile: None,
        }
    }
}

/// Resource budgets enforced during evaluation.
///
/// The tick-based `work_limit` bounds CPU; these bound *memory* and
/// *stack*: a runaway query (deep path recursion, a cross product over
/// huge extents, a generator with pathological fan-out) degrades into a
/// clean [`XsqlError::Budget`] instead of exhausting the process. The
/// defaults are generous — ordinary workloads never see them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalBudget {
    /// Maximum evaluator recursion depth while walking path expressions
    /// (steps plus path-variable hops). Bounds stack growth.
    pub max_path_depth: usize,
    /// Maximum number of tuples materialized into any one intermediate
    /// or result relation. Bounds heap growth of row sets.
    pub max_tuples: usize,
    /// Maximum size of a single binding set (the candidate values a
    /// generator enumerates for one variable). Bounds generator fan-out.
    pub max_binding_set: usize,
    /// Wall-clock deadline. Checked every [`DEADLINE_CHECK_MASK`]+1
    /// ticks (reading the clock each tick would dominate evaluation);
    /// past it the statement fails with [`XsqlError::Cancelled`].
    pub deadline: Option<Instant>,
    /// Deterministic cancellation point: the statement cancels at the
    /// first tick whose work count reaches this value. This is the
    /// reproducible twin of [`EvalOptions::cancel`] — the cancellation
    /// proptest sweeps it across every tick of a statement, and the
    /// chaos harness uses it for seeded injected cancellations.
    pub cancel_at_tick: Option<u64>,
}

/// The deadline and the cancellation flag are polled when
/// `work & DEADLINE_CHECK_MASK == 0`, i.e. every 64 ticks — frequent
/// enough that cancellation latency is microseconds, rare enough that
/// the clock read and atomic load vanish from profiles.
pub const DEADLINE_CHECK_MASK: u64 = 63;

impl Default for EvalBudget {
    fn default() -> Self {
        EvalBudget {
            max_path_depth: 128,
            max_tuples: 5_000_000,
            max_binding_set: 1_000_000,
            deadline: None,
            cancel_at_tick: None,
        }
    }
}

impl EvalOptions {
    /// Options selecting the naive §3.4 engine.
    pub fn naive() -> Self {
        EvalOptions {
            strategy: Strategy::Naive,
            ..EvalOptions::default()
        }
    }
}

/// Per-variable instantiation ranges computed by the typing system
/// (Theorem 6.1.2: "it suffices to consider only those instantiations o
/// of X such that o ∈ A(X)"). Maps variable name to the admissible OIDs.
pub type Ranges = BTreeMap<String, BTreeSet<Oid>>;

/// Shared read-only evaluation context. Public so benchmarks and the
/// typing system can drive the engine directly; most users go through
/// [`crate::Session`] or [`eval_select`].
pub struct Ctx<'d> {
    /// The database under query.
    pub db: &'d Database,
    /// Evaluation options.
    pub opts: &'d EvalOptions,
    /// Ticks performed so far; `work_limit` and `cancel_at_tick` apply
    /// to this count.
    pub work: StdCell<u64>,
    /// Tuples materialized so far; `max_tuples` applies to this count.
    pub(crate) tuples: StdCell<usize>,
    /// Computed-method invocation depth (recursion guard).
    pub depth: usize,
    /// Current path-walk recursion depth (budgeted).
    pub path_depth: StdCell<usize>,
    /// Optional Theorem 6.1 ranges (typed strategy).
    pub ranges: Option<&'d Ranges>,
}

impl<'d> Ctx<'d> {
    /// A fresh context over a database.
    pub fn new(db: &'d Database, opts: &'d EvalOptions) -> Self {
        Ctx::with_depth(db, opts, 0)
    }

    /// A context whose variable domains are narrowed by Theorem 6.1
    /// ranges.
    pub fn with_ranges(db: &'d Database, opts: &'d EvalOptions, ranges: &'d Ranges) -> Self {
        Ctx {
            ranges: Some(ranges),
            ..Ctx::new(db, opts)
        }
    }

    /// A fresh context for a computed-method body at invocation depth
    /// `depth`.
    pub fn with_depth(db: &'d Database, opts: &'d EvalOptions, depth: usize) -> Self {
        Ctx {
            db,
            opts,
            work: StdCell::new(0),
            tuples: StdCell::new(0),
            depth,
            path_depth: StdCell::new(0),
            ranges: None,
        }
    }

    /// Accounts one unit of work; errors when the limit is exceeded,
    /// when the statement's deadline has passed, or when its
    /// cancellation token was tripped (the same tick points serve all
    /// three, so every loop the work limit bounds is also a
    /// cancellation point).
    #[inline]
    pub fn tick(&self) -> XsqlResult<()> {
        let w = self.work.get() + 1;
        self.work.set(w);
        if w > self.opts.work_limit {
            return Err(XsqlError::WorkLimit(self.opts.work_limit));
        }
        if let Some(k) = self.opts.budget.cancel_at_tick {
            if w >= k {
                return Err(XsqlError::Cancelled {
                    reason: format!("cancellation injected at tick {k}"),
                });
            }
        }
        // Poll on the first tick too, so an already-expired deadline or
        // pre-tripped token fails fast even on tiny statements.
        if w & DEADLINE_CHECK_MASK == 0 || w == 1 {
            self.check_interrupts()?;
        }
        Ok(())
    }

    /// Accounts `n` units of work in one bump — same totals and limits
    /// as `n` calls to [`Ctx::tick`], but the limit comparison and the
    /// interrupt-poll test run once per batch. Emission loops use this
    /// to charge a whole row at a time; the poll still fires whenever
    /// the batch crosses a `DEADLINE_CHECK_MASK` boundary, so
    /// responsiveness is bounded by the batch size, not lost.
    #[inline]
    pub fn tick_n(&self, n: u64) -> XsqlResult<()> {
        if n == 0 {
            return Ok(());
        }
        let prev = self.work.get();
        let w = prev + n;
        self.work.set(w);
        if w > self.opts.work_limit {
            return Err(XsqlError::WorkLimit(self.opts.work_limit));
        }
        if let Some(k) = self.opts.budget.cancel_at_tick {
            if w >= k {
                return Err(XsqlError::Cancelled {
                    reason: format!("cancellation injected at tick {k}"),
                });
            }
        }
        let stride = DEADLINE_CHECK_MASK + 1;
        if prev < 1 || w / stride != prev / stride {
            self.check_interrupts()?;
        }
        Ok(())
    }

    /// The slow half of [`Ctx::tick`]: polls the cancellation flag and
    /// the wall clock. Split out so the fast path stays a few
    /// arithmetic instructions.
    #[cold]
    fn check_interrupts(&self) -> XsqlResult<()> {
        if self.opts.cancel.is_cancelled() {
            return Err(XsqlError::Cancelled {
                reason: "cancelled by client".into(),
            });
        }
        if let Some(deadline) = self.opts.budget.deadline {
            if Instant::now() >= deadline {
                return Err(XsqlError::Cancelled {
                    reason: "statement deadline exceeded".into(),
                });
            }
        }
        Ok(())
    }

    /// Work performed so far (exposed for benchmarks/diagnostics).
    pub fn work_done(&self) -> u64 {
        self.work.get()
    }

    /// Enters one level of path-walk recursion; the returned guard
    /// decrements the depth when dropped. Errors with
    /// [`XsqlError::Budget`] when the depth budget is exhausted.
    #[inline]
    pub fn enter_path(&self) -> XsqlResult<PathDepthGuard<'_>> {
        let d = self.path_depth.get() + 1;
        if d > self.opts.budget.max_path_depth {
            return Err(XsqlError::Budget {
                resource: "path recursion depth",
                limit: self.opts.budget.max_path_depth,
            });
        }
        self.path_depth.set(d);
        Ok(PathDepthGuard(&self.path_depth))
    }

    /// Accounts `n` freshly materialized tuples; errors with
    /// [`XsqlError::Budget`] when the cumulative tuple budget is
    /// exhausted.
    #[inline]
    pub fn count_tuples(&self, n: usize) -> XsqlResult<()> {
        let t = self.tuples.get().saturating_add(n);
        self.tuples.set(t);
        if t > self.opts.budget.max_tuples {
            Err(XsqlError::Budget {
                resource: "materialized tuple",
                limit: self.opts.budget.max_tuples,
            })
        } else {
            Ok(())
        }
    }

    /// Checks a single binding set of `n` candidate values against the
    /// fan-out budget.
    #[inline]
    pub fn check_binding_set(&self, n: usize) -> XsqlResult<()> {
        if let Some(p) = &self.opts.profile {
            p.note_binding_set(n);
        }
        if n > self.opts.budget.max_binding_set {
            Err(XsqlError::Budget {
                resource: "binding set size",
                limit: self.opts.budget.max_binding_set,
            })
        } else {
            Ok(())
        }
    }

    /// The instantiation domain of a variable: its Theorem 6.1 range if
    /// one was computed, otherwise the active domain of its sort.
    pub fn var_domain(&self, name: &str, sort: crate::ast::VarSort) -> Vec<Oid> {
        if let Some(rs) = self.ranges {
            if let Some(set) = rs.get(name) {
                return set.iter().copied().collect();
            }
        }
        self.domain(sort)
    }
}

/// RAII guard for one level of path-walk recursion; see
/// [`Ctx::enter_path`].
pub struct PathDepthGuard<'a>(&'a StdCell<usize>);

impl Drop for PathDepthGuard<'_> {
    fn drop(&mut self) {
        self.0.set(self.0.get() - 1);
    }
}

/// Evaluates a resolved SELECT query read-only and returns a relation.
/// Object-creating queries (with `OID FUNCTION OF`) must go through
/// [`crate::Session::run`] instead. Errors if the SELECT list produces
/// computed numerals (aggregates/arithmetic) — those need interning; use
/// a `Session` for that as well.
pub fn eval_select(
    db: &Database,
    q: &SelectQuery,
    opts: &EvalOptions,
) -> XsqlResult<relalg::Relation> {
    let ctx = Ctx::new(db, opts);
    select::eval_to_relation(&ctx, q)
}

/// As [`eval_select`] with Theorem 6.1 ranges restricting variable
/// instantiation (typed evaluation).
pub fn eval_select_ranged(
    db: &Database,
    q: &SelectQuery,
    opts: &EvalOptions,
    ranges: &Ranges,
) -> XsqlResult<relalg::Relation> {
    let ctx = Ctx::with_ranges(db, opts, ranges);
    select::eval_to_relation(&ctx, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::resolve::resolve_stmt;
    use oodb::DbBuilder;

    /// A miniature Figure 1 instance: two people, a company, vehicles.
    fn mini_db() -> Database {
        let mut b = DbBuilder::new();
        b.class("Person");
        b.subclass("Employee", &["Person"]);
        b.class("Address");
        b.class("Company");
        b.class("Vehicle");
        b.subclass("Automobile", &["Vehicle"]);
        b.attr("Person", "Name", "String");
        b.attr("Person", "Age", "Numeral");
        b.attr("Person", "Residence", "Address");
        b.set_attr("Person", "OwnedVehicles", "Vehicle");
        b.set_attr("Employee", "FamMembers", "Person");
        b.attr("Employee", "Salary", "Numeral");
        b.attr("Address", "City", "String");
        b.attr("Company", "Name", "String");
        b.attr("Company", "President", "Person");
        b.attr("Vehicle", "Manufacturer", "Company");
        b.attr("Vehicle", "Color", "String");

        let addr_ny = b.obj("addr_ny", "Address");
        b.set_str(addr_ny, "City", "newyork");
        let addr_sf = b.obj("addr_sf", "Address");
        b.set_str(addr_sf, "City", "sanfrancisco");

        let mary = b.obj("mary123", "Employee");
        b.set_str(mary, "Name", "Mary");
        b.set_int(mary, "Age", 41);
        b.set(mary, "Residence", addr_ny);
        b.set_int(mary, "Salary", 30000);

        let john = b.obj("john13", "Employee");
        b.set_str(john, "Name", "John");
        b.set_int(john, "Age", 25);
        b.set(john, "Residence", addr_sf);
        b.set_int(john, "Salary", 60000);
        b.set_many(john, "FamMembers", &[mary]);

        let uni = b.obj("uniSQL", "Company");
        b.set_str(uni, "Name", "UniSQL");
        b.set(uni, "President", john);

        let car = b.obj("car1", "Automobile");
        b.set(car, "Manufacturer", uni);
        b.set_str(car, "Color", "red");
        b.set_many(john, "OwnedVehicles", &[car]);

        b.build()
    }

    fn run(db: &mut Database, src: &str, opts: &EvalOptions) -> relalg::Relation {
        let stmt = parse(src).unwrap();
        let stmt = resolve_stmt(db, &stmt).unwrap();
        match stmt {
            crate::ast::Stmt::Select(q) => eval_select(db, &q, opts).unwrap(),
            s => panic!("expected select, got {s:?}"),
        }
    }

    fn names(db: &Database, rel: &relalg::Relation) -> Vec<String> {
        rel.iter().map(|t| db.render(t[0])).collect()
    }

    #[test]
    fn ground_path_query() {
        let mut db = mini_db();
        let r = run(
            &mut db,
            "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']",
            &EvalOptions::default(),
        );
        assert_eq!(names(&db, &r), vec!["addr_ny"]);
    }

    #[test]
    fn nobel_style_open_query() {
        let mut db = mini_db();
        // Which objects have a defined, non-empty FamMembers?
        let r = run(
            &mut db,
            "SELECT X WHERE X.FamMembers",
            &EvalOptions::default(),
        );
        assert_eq!(names(&db, &r), vec!["john13"]);
    }

    #[test]
    fn attribute_variable_query() {
        let mut db = mini_db();
        // Query (3): which attribute leads from a person to newyork?
        let r = run(
            &mut db,
            "SELECT Y FROM Person X WHERE X.\"Y.City['newyork']",
            &EvalOptions::default(),
        );
        assert_eq!(names(&db, &r), vec!["Residence"]);
    }

    #[test]
    fn quantified_comparison() {
        let mut db = mini_db();
        let r = run(
            &mut db,
            "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20",
            &EvalOptions::default(),
        );
        assert_eq!(names(&db, &r), vec!["john13"]);
    }

    #[test]
    fn explicit_join() {
        let mut db = mini_db();
        let r = run(
            &mut db,
            "SELECT X, Y FROM Company X, Automobile Y WHERE Y.Manufacturer[X]",
            &EvalOptions::default(),
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn pipelined_matches_naive() {
        let mut db = mini_db();
        for q in [
            "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20",
            "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']",
            "SELECT X WHERE X.FamMembers",
            "SELECT X, Y FROM Company X, Automobile Y WHERE Y.Manufacturer[X]",
            "SELECT X FROM Person X WHERE not X.FamMembers",
            "SELECT X FROM Person X WHERE X.Age > 30 or X.Salary > 50000",
        ] {
            let fast = run(&mut db, q, &EvalOptions::default());
            let naive = run(&mut db, q, &EvalOptions::naive());
            assert_eq!(fast, naive, "strategies disagree on {q}");
        }
    }

    #[test]
    fn subclass_query() {
        let mut db = mini_db();
        let r = run(
            &mut db,
            "SELECT #X WHERE Automobile subclassOf #X",
            &EvalOptions::default(),
        );
        let mut got = names(&db, &r);
        got.sort();
        assert_eq!(got, vec!["Object", "Vehicle"]);
    }

    #[test]
    fn aggregate_filter() {
        let mut db = mini_db();
        let r = run(
            &mut db,
            "SELECT X FROM Employee X WHERE count(X.FamMembers) >= 1 and X.Salary > 35000",
            &EvalOptions::default(),
        );
        assert_eq!(names(&db, &r), vec!["john13"]);
    }

    #[test]
    fn path_variable_navigation() {
        let mut db = mini_db();
        let r = run(
            &mut db,
            "SELECT X FROM Person X WHERE X.*P.City['newyork']",
            &EvalOptions::default(),
        );
        // mary lives in newyork directly; john reaches it through
        // FamMembers.Residence.City - both sequences are admissible.
        assert_eq!(names(&db, &r), vec!["mary123", "john13"]);
    }

    #[test]
    fn correlated_subquery() {
        let mut db = mini_db();
        // Companies whose president's family members are all older than 30.
        let r = run(
            &mut db,
            "SELECT X FROM Company X WHERE 30 <all (SELECT W FROM Person Z \
             WHERE X.President.FamMembers[Z].Age[W])",
            &EvalOptions::default(),
        );
        assert_eq!(names(&db, &r), vec!["uniSQL"]);
    }

    #[test]
    fn work_limit_enforced() {
        let mut db = mini_db();
        let stmt = parse("SELECT X, Y, Z FROM Person X, Person Y, Person Z").unwrap();
        let stmt = resolve_stmt(&mut db, &stmt).unwrap();
        let opts = EvalOptions {
            work_limit: 3,
            ..EvalOptions::default()
        };
        match stmt {
            crate::ast::Stmt::Select(q) => {
                assert!(matches!(
                    eval_select(&db, &q, &opts),
                    Err(XsqlError::WorkLimit(3))
                ));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn tuple_budget_enforced() {
        let mut db = mini_db();
        let stmt = parse("SELECT X, Y FROM Person X, Person Y").unwrap();
        let stmt = resolve_stmt(&mut db, &stmt).unwrap();
        let opts = EvalOptions {
            budget: EvalBudget {
                max_tuples: 2,
                ..EvalBudget::default()
            },
            ..EvalOptions::default()
        };
        match stmt {
            crate::ast::Stmt::Select(q) => {
                assert!(matches!(
                    eval_select(&db, &q, &opts),
                    Err(XsqlError::Budget {
                        resource: "materialized tuple",
                        limit: 2
                    })
                ));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn path_depth_budget_enforced() {
        let mut db = mini_db();
        // A long (but satisfiable prefix) chain of steps exceeds a tiny
        // depth budget before it fails to match.
        let stmt = parse(
            "SELECT X FROM Employee X WHERE \
             X.Residence.City.Residence.City.Residence.City",
        )
        .unwrap();
        let stmt = resolve_stmt(&mut db, &stmt).unwrap();
        let opts = EvalOptions {
            budget: EvalBudget {
                max_path_depth: 2,
                ..EvalBudget::default()
            },
            ..EvalOptions::default()
        };
        match stmt {
            crate::ast::Stmt::Select(q) => {
                assert!(matches!(
                    eval_select(&db, &q, &opts),
                    Err(XsqlError::Budget {
                        resource: "path recursion depth",
                        limit: 2
                    })
                ));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn binding_set_budget_enforced() {
        let mut db = mini_db();
        let stmt = parse("SELECT X WHERE X.FamMembers").unwrap();
        let stmt = resolve_stmt(&mut db, &stmt).unwrap();
        let opts = EvalOptions {
            budget: EvalBudget {
                max_binding_set: 1,
                ..EvalBudget::default()
            },
            // Force the full-domain candidate set (larger than 1).
            use_method_index: false,
            ..EvalOptions::default()
        };
        match stmt {
            crate::ast::Stmt::Select(q) => {
                assert!(matches!(
                    eval_select(&db, &q, &opts),
                    Err(XsqlError::Budget {
                        resource: "binding set size",
                        limit: 1
                    })
                ));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn injected_cancellation_tick_is_deterministic() {
        let mut db = mini_db();
        let stmt = parse("SELECT X, Y FROM Person X, Person Y").unwrap();
        let stmt = resolve_stmt(&mut db, &stmt).unwrap();
        let opts = EvalOptions {
            budget: EvalBudget {
                cancel_at_tick: Some(2),
                ..EvalBudget::default()
            },
            ..EvalOptions::default()
        };
        match stmt {
            crate::ast::Stmt::Select(q) => {
                assert!(matches!(
                    eval_select(&db, &q, &opts),
                    Err(XsqlError::Cancelled { .. })
                ));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn tripped_token_cancels_evaluation() {
        let mut db = mini_db();
        let stmt = parse("SELECT X, Y, Z FROM Person X, Person Y, Person Z").unwrap();
        let stmt = resolve_stmt(&mut db, &stmt).unwrap();
        let cancel = CancelFlag::new();
        cancel.cancel();
        let opts = EvalOptions {
            cancel: cancel.clone(),
            ..EvalOptions::default()
        };
        assert!(cancel.is_cancelled());
        match stmt {
            crate::ast::Stmt::Select(q) => {
                assert!(matches!(
                    eval_select(&db, &q, &opts),
                    Err(XsqlError::Cancelled { .. })
                ));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn expired_deadline_cancels_evaluation() {
        let mut db = mini_db();
        let stmt = parse("SELECT X, Y, Z FROM Person X, Person Y, Person Z").unwrap();
        let stmt = resolve_stmt(&mut db, &stmt).unwrap();
        let opts = EvalOptions {
            budget: EvalBudget {
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
                ..EvalBudget::default()
            },
            ..EvalOptions::default()
        };
        match stmt {
            crate::ast::Stmt::Select(q) => {
                assert!(matches!(
                    eval_select(&db, &q, &opts),
                    Err(XsqlError::Cancelled { .. })
                ));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn default_budget_is_invisible() {
        let mut db = mini_db();
        let r = run(
            &mut db,
            "SELECT X FROM Person X WHERE X.*P.City['newyork']",
            &EvalOptions::default(),
        );
        assert_eq!(r.len(), 2);
    }
}
