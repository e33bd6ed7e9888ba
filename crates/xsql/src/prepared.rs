//! Prepared statements and parameter binding.
//!
//! The statement pipeline (`parse → resolve → execute`) re-does its
//! front half on every invocation of the same query text.
//! `PREPARE name AS <stmt>` keeps a *resolved* statement as a
//! [`Program`] so each `EXECUTE name (?1, …)` skips parse and resolve;
//! execution always goes through the one statement path
//! (`Session::execute_resolved`), so a planner-fragment SELECT is
//! re-planned by [`crate::plan`] against current attribute statistics
//! and index completeness on every run. Results are therefore those of
//! a cold statement by construction.
//!
//! * **Parameters** — typed positional placeholders
//!   ([`crate::ast::IdTerm::Param`]). EXECUTE substitutes bound
//!   argument OIDs into a clone of the template ([`Program::bind`]). A
//!   bound parameter is a plain OID constant by then, so the planner's
//!   index probes cover parameter keys with no extra code. Prepared
//!   statements are **session-local** and never WAL-logged: after a
//!   crash the client must re-PREPARE (an EXECUTE against a name
//!   prepared before the crash fails cleanly with *unknown prepared
//!   statement*).
//! * **The schema-epoch fence** — every [`Program`] records the
//!   [`oodb::Database::schema_epoch`] it was resolved under. Any
//!   definitional statement (class/signature/method/view definition,
//!   and conservatively any rollback that undid work) bumps the epoch,
//!   so EXECUTE treats an epoch mismatch as an invalidation and
//!   re-resolves the stored body; a stale program is structurally
//!   unable to execute. A defensive counter
//!   (`xsql_plan_cache_stale_executions_total`) counts the should-be-
//!   impossible case and is asserted zero by the chaos harness.
//!
//! See `docs/PREPARED.md`.

use crate::ast::*;
use crate::error::{XsqlError, XsqlResult};
use crate::eval::cond::flatten_and;
use oodb::{Database, Oid};

/// Value family a typed parameter must belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamFamily {
    /// A numeral object (integer or real).
    Numeral,
    /// A string object.
    Str,
}

impl std::fmt::Display for ParamFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ParamFamily::Numeral => "Numeral",
            ParamFamily::Str => "String",
        })
    }
}

/// A bind-time type check recorded at PREPARE from a conjunct of
/// shape `V.Attr op ?n`, when every 0-ary signature of `Attr` results
/// in the named family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamCheck {
    /// Parameter position (1-based).
    pub param: u32,
    /// Attribute the parameter is compared against (for the error).
    pub attr: String,
    /// Required family.
    pub family: ParamFamily,
}

/// A resolved statement template (parameter placeholders intact), its
/// bind-time checks, and the schema epoch it is valid for.
#[derive(Debug, Clone)]
pub struct Program {
    /// The resolved statement template. Parameters remain as
    /// [`IdTerm::Param`] until [`Program::bind`].
    pub stmt: Stmt,
    /// Number of positional parameters (the highest `?n`).
    pub n_params: u32,
    /// [`oodb::Database::schema_epoch`] at resolve time. The program
    /// must not execute under any other epoch: resolved OIDs may
    /// reference definitions that no longer hold.
    pub epoch: u64,
    /// Bind-time parameter type checks.
    pub param_checks: Vec<ParamCheck>,
}

impl Program {
    /// Wraps a resolved statement under the current schema epoch,
    /// recording the bind-time checks of its parameters.
    pub fn new(db: &Database, stmt: Stmt, n_params: u32) -> Program {
        let param_checks = match &stmt {
            Stmt::Select(q) => collect_param_checks(db, q),
            _ => Vec::new(),
        };
        Program {
            epoch: db.schema_epoch(),
            stmt,
            n_params,
            param_checks,
        }
    }

    /// Substitutes bound argument OIDs for the parameter placeholders,
    /// returning the executable statement. Checks arity and the
    /// recorded per-parameter family constraints; errors are typed and
    /// name the offending parameter.
    pub fn bind(&self, args: &[Oid], db: &Database) -> XsqlResult<Stmt> {
        if args.len() != self.n_params as usize {
            return Err(XsqlError::Resolve(format!(
                "EXECUTE: statement takes {} parameter(s), got {}",
                self.n_params,
                args.len()
            )));
        }
        for check in &self.param_checks {
            let o = args[(check.param - 1) as usize];
            let ok = match check.family {
                ParamFamily::Numeral => db.oids().as_number(o).is_some(),
                ParamFamily::Str => matches!(db.oids().get(o), oodb::OidData::Str(_)),
            };
            if !ok {
                return Err(XsqlError::Resolve(format!(
                    "EXECUTE: parameter ?{} is compared against `{}`, which is {}-valued, \
                     but the bound argument `{}` is not a {}",
                    check.param,
                    check.attr,
                    check.family,
                    db.render(o),
                    check.family
                )));
            }
        }
        let mut bound = self.stmt.clone();
        subst_stmt(&mut bound, args);
        Ok(bound)
    }
}

/// The highest parameter position `?n` occurring anywhere in the
/// statement (0 when parameter-free). Doubles as the arity: parameters
/// are positional `?1…?n`.
pub fn max_param(stmt: &Stmt) -> u32 {
    let mut max = 0;
    walk_stmt(stmt, &mut |t| {
        if let IdTerm::Param(n) = t {
            max = max.max(*n);
        }
    });
    max
}

/// Collects bind-time type checks: for every conjunct of shape
/// `path.Attr op ?n` (either orientation) where all 0-ary signatures of
/// `Attr` result in the numeral family or in `String`, the bound
/// argument must be of that family. A mis-typed argument can never
/// match (cross-family comparisons are false), so rejecting it at bind
/// turns a silent empty result into a typed error.
fn collect_param_checks(db: &Database, q: &SelectQuery) -> Vec<ParamCheck> {
    let mut conjs = Vec::new();
    flatten_and(&q.where_clause, &mut conjs);
    let class_named = |name: &str| db.oids().find_sym(name).filter(|&c| db.is_class(c));
    let num_classes: Vec<Oid> = ["Numeral", "Integer", "Real"]
        .iter()
        .filter_map(|n| class_named(n))
        .collect();
    let str_class = class_named("String");
    let mut out: Vec<ParamCheck> = Vec::new();
    for c in conjs {
        let Cond::Cmp { left, right, .. } = c else {
            continue;
        };
        for (attr_side, konst_side) in [(left, right), (right, left)] {
            let Operand::Path(p) = attr_side else {
                continue;
            };
            let [Step::Method {
                method: MethodTerm::Name(attr),
                args,
                selector: None,
            }] = p.steps.as_slice()
            else {
                continue;
            };
            if !args.is_empty() {
                continue;
            }
            let Operand::Path(k) = konst_side else {
                continue;
            };
            let (IdTerm::Param(n), []) = (&k.head, k.steps.as_slice()) else {
                continue;
            };
            let Some(m) = db.oids().find_sym(attr) else {
                continue;
            };
            let sigs = db.signatures_of_method(m, 0);
            if sigs.is_empty() {
                continue;
            }
            let family = if sigs.iter().all(|(_, s)| num_classes.contains(&s.result)) {
                ParamFamily::Numeral
            } else if sigs.iter().all(|(_, s)| Some(s.result) == str_class) {
                ParamFamily::Str
            } else {
                continue;
            };
            if out.iter().any(|pc| pc.param == *n) {
                continue;
            }
            out.push(ParamCheck {
                param: *n,
                attr: attr.clone(),
                family,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// AST walkers: parameter discovery and substitution
// ---------------------------------------------------------------------

fn walk_stmt(stmt: &Stmt, f: &mut dyn FnMut(&IdTerm)) {
    match stmt {
        Stmt::Select(q) => walk_query(q, f),
        Stmt::RelOp { left, right, .. } => {
            walk_stmt(left, f);
            walk_stmt(right, f);
        }
        Stmt::CreateView(v) => walk_query(&v.query, f),
        Stmt::AlterClass(a) => walk_query(&a.query, f),
        Stmt::Update(u) => walk_update(u, f),
        Stmt::CreateObject(o) => {
            for (_, op) in &o.sets {
                walk_operand(op, f);
            }
        }
        Stmt::Explain { stmt, .. } => walk_stmt(stmt, f),
        Stmt::Prepare { stmt, .. } => walk_stmt(stmt, f),
        Stmt::Execute { args, .. } => {
            for a in args {
                walk_idterm(a, f);
            }
        }
        Stmt::AddSignature { .. }
        | Stmt::CreateClass(_)
        | Stmt::Stats
        | Stmt::Begin
        | Stmt::Commit
        | Stmt::Rollback
        | Stmt::WalOn
        | Stmt::WalOff
        | Stmt::Checkpoint => {}
    }
}

fn walk_query(q: &SelectQuery, f: &mut dyn FnMut(&IdTerm)) {
    for item in &q.select {
        match item {
            SelectItem::Expr(op) => walk_operand(op, f),
            SelectItem::Named { value, .. } => match value {
                SelectValue::Expr(op) => walk_operand(op, f),
                SelectValue::Grouped(_) => {}
            },
            SelectItem::MethodResult { args, value, .. } => {
                for a in args {
                    walk_idterm(a, f);
                }
                walk_operand(value, f);
            }
        }
    }
    for fi in &q.from {
        walk_idterm(&fi.class, f);
    }
    walk_cond(&q.where_clause, f);
}

fn walk_cond(c: &Cond, f: &mut dyn FnMut(&IdTerm)) {
    match c {
        Cond::True => {}
        Cond::Path(p) => walk_path(p, f),
        Cond::Cmp { left, right, .. } => {
            walk_operand(left, f);
            walk_operand(right, f);
        }
        Cond::SetCmp { left, right, .. } => {
            walk_operand(left, f);
            walk_operand(right, f);
        }
        Cond::SubclassOf { sub, sup } => {
            walk_idterm(sub, f);
            walk_idterm(sup, f);
        }
        Cond::InstanceOf { obj, class } => {
            walk_idterm(obj, f);
            walk_idterm(class, f);
        }
        Cond::And(a, b) | Cond::Or(a, b) => {
            walk_cond(a, f);
            walk_cond(b, f);
        }
        Cond::Not(a) => walk_cond(a, f),
        Cond::Update(u) => walk_update(u, f),
    }
}

fn walk_update(u: &UpdateStmt, f: &mut dyn FnMut(&IdTerm)) {
    for a in &u.assignments {
        walk_path(&a.target, f);
        walk_operand(&a.value, f);
    }
}

fn walk_operand(op: &Operand, f: &mut dyn FnMut(&IdTerm)) {
    match op {
        Operand::Path(p) => walk_path(p, f),
        Operand::Agg(_, p) => walk_path(p, f),
        Operand::SetLit(ts) => {
            for t in ts {
                walk_idterm(t, f);
            }
        }
        Operand::Subquery(q) => walk_query(q, f),
        Operand::Arith(a, _, b)
        | Operand::Union(a, b)
        | Operand::Intersection(a, b)
        | Operand::Difference(a, b) => {
            walk_operand(a, f);
            walk_operand(b, f);
        }
    }
}

fn walk_path(p: &PathExpr, f: &mut dyn FnMut(&IdTerm)) {
    walk_idterm(&p.head, f);
    for s in &p.steps {
        match s {
            Step::Method { args, selector, .. } => {
                for a in args {
                    walk_idterm(a, f);
                }
                if let Some(sel) = selector {
                    walk_idterm(sel, f);
                }
            }
            Step::PathVar { selector, .. } => {
                if let Some(sel) = selector {
                    walk_idterm(sel, f);
                }
            }
        }
    }
}

fn walk_idterm(t: &IdTerm, f: &mut dyn FnMut(&IdTerm)) {
    f(t);
    match t {
        IdTerm::Func(_, args) => {
            for a in args {
                walk_idterm(a, f);
            }
        }
        IdTerm::PathArg(p) => walk_path(p, f),
        _ => {}
    }
}

fn subst_stmt(stmt: &mut Stmt, args: &[Oid]) {
    match stmt {
        Stmt::Select(q) => subst_query(q, args),
        Stmt::RelOp { left, right, .. } => {
            subst_stmt(left, args);
            subst_stmt(right, args);
        }
        Stmt::CreateView(v) => subst_query(&mut v.query, args),
        Stmt::AlterClass(a) => subst_query(&mut a.query, args),
        Stmt::Update(u) => subst_update(u, args),
        Stmt::CreateObject(o) => {
            for (_, op) in &mut o.sets {
                subst_operand(op, args);
            }
        }
        Stmt::Explain { stmt, .. } => subst_stmt(stmt, args),
        Stmt::Prepare { stmt, .. } => subst_stmt(stmt, args),
        Stmt::Execute { args: eargs, .. } => {
            for a in eargs {
                subst_idterm(a, args);
            }
        }
        Stmt::AddSignature { .. }
        | Stmt::CreateClass(_)
        | Stmt::Stats
        | Stmt::Begin
        | Stmt::Commit
        | Stmt::Rollback
        | Stmt::WalOn
        | Stmt::WalOff
        | Stmt::Checkpoint => {}
    }
}

fn subst_query(q: &mut SelectQuery, args: &[Oid]) {
    for item in &mut q.select {
        match item {
            SelectItem::Expr(op) => subst_operand(op, args),
            SelectItem::Named { value, .. } => match value {
                SelectValue::Expr(op) => subst_operand(op, args),
                SelectValue::Grouped(_) => {}
            },
            SelectItem::MethodResult {
                args: margs, value, ..
            } => {
                for a in margs {
                    subst_idterm(a, args);
                }
                subst_operand(value, args);
            }
        }
    }
    for fi in &mut q.from {
        subst_idterm(&mut fi.class, args);
    }
    subst_cond(&mut q.where_clause, args);
}

fn subst_cond(c: &mut Cond, args: &[Oid]) {
    match c {
        Cond::True => {}
        Cond::Path(p) => subst_path(p, args),
        Cond::Cmp { left, right, .. } => {
            subst_operand(left, args);
            subst_operand(right, args);
        }
        Cond::SetCmp { left, right, .. } => {
            subst_operand(left, args);
            subst_operand(right, args);
        }
        Cond::SubclassOf { sub, sup } => {
            subst_idterm(sub, args);
            subst_idterm(sup, args);
        }
        Cond::InstanceOf { obj, class } => {
            subst_idterm(obj, args);
            subst_idterm(class, args);
        }
        Cond::And(a, b) | Cond::Or(a, b) => {
            subst_cond(a, args);
            subst_cond(b, args);
        }
        Cond::Not(a) => subst_cond(a, args),
        Cond::Update(u) => subst_update(u, args),
    }
}

fn subst_update(u: &mut UpdateStmt, args: &[Oid]) {
    for a in &mut u.assignments {
        subst_path(&mut a.target, args);
        subst_operand(&mut a.value, args);
    }
}

fn subst_operand(op: &mut Operand, args: &[Oid]) {
    match op {
        Operand::Path(p) => subst_path(p, args),
        Operand::Agg(_, p) => subst_path(p, args),
        Operand::SetLit(ts) => {
            for t in ts {
                subst_idterm(t, args);
            }
        }
        Operand::Subquery(q) => subst_query(q, args),
        Operand::Arith(a, _, b)
        | Operand::Union(a, b)
        | Operand::Intersection(a, b)
        | Operand::Difference(a, b) => {
            subst_operand(a, args);
            subst_operand(b, args);
        }
    }
}

fn subst_path(p: &mut PathExpr, args: &[Oid]) {
    subst_idterm(&mut p.head, args);
    for s in &mut p.steps {
        match s {
            Step::Method {
                args: margs,
                selector,
                ..
            } => {
                for a in margs {
                    subst_idterm(a, args);
                }
                if let Some(sel) = selector {
                    subst_idterm(sel, args);
                }
            }
            Step::PathVar { selector, .. } => {
                if let Some(sel) = selector {
                    subst_idterm(sel, args);
                }
            }
        }
    }
}

fn subst_idterm(t: &mut IdTerm, args: &[Oid]) {
    match t {
        IdTerm::Param(n) => {
            // Arity was checked in `bind`; a placeholder beyond the
            // argument list cannot be reached from there.
            if let Some(&o) = args.get((*n - 1) as usize) {
                *t = IdTerm::Oid(o);
            }
        }
        IdTerm::Func(_, fargs) => {
            for a in fargs {
                subst_idterm(a, args);
            }
        }
        IdTerm::PathArg(p) => subst_path(p, args),
        _ => {}
    }
}

/// Cached handles for the prepared-statement counters, re-derived
/// whenever the session's registry is swapped. The names keep their
/// historical `plan_cache` prefix.
#[derive(Debug)]
pub struct PreparedMetrics {
    /// `xsql_plan_cache_hits_total` — EXECUTEs served by a current
    /// program.
    pub hits: std::sync::Arc<telemetry::Counter>,
    /// `xsql_plan_cache_invalidations_total` — EXECUTEs that had to
    /// re-resolve the stored body (schema epoch moved, or rebase).
    pub invalidations: std::sync::Arc<telemetry::Counter>,
    /// `xsql_plan_cache_stale_executions_total` — defensively counts a
    /// program reaching execution under a foreign schema epoch. The
    /// epoch fence makes this structurally unreachable; the chaos
    /// harness asserts it stays 0.
    pub stale_executions: std::sync::Arc<telemetry::Counter>,
}

impl PreparedMetrics {
    /// Derives the metric handles from a registry.
    pub fn new(registry: &telemetry::Registry) -> PreparedMetrics {
        PreparedMetrics {
            hits: registry.counter("xsql_plan_cache_hits_total", &[]),
            invalidations: registry.counter("xsql_plan_cache_invalidations_total", &[]),
            stale_executions: registry.counter("xsql_plan_cache_stale_executions_total", &[]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn max_param_walks_nested_positions() {
        let s = parse("SELECT X FROM Employee X WHERE X.Salary > ?2 AND X.Age < ?1").unwrap();
        assert_eq!(max_param(&s), 2);
        let s = parse("SELECT X FROM Employee X WHERE X.Name[?3]").unwrap();
        assert_eq!(max_param(&s), 3);
        let s = parse("SELECT X FROM Employee X").unwrap();
        assert_eq!(max_param(&s), 0);
    }
}
