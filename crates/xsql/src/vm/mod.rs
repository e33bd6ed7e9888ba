//! Prepared statements, parameter binding, and the schema-epoch plan
//! cache.
//!
//! The statement pipeline (`parse → resolve → execute`) re-does its
//! front half on every invocation of the same query text. This module
//! keeps a *resolved* statement as a [`Program`] so repeats skip parse
//! and resolve; execution always goes through the one statement path
//! (`Session::execute_resolved`), so a planner-fragment SELECT is
//! re-planned by [`crate::plan`] against current attribute statistics
//! and index completeness on every run. Results are therefore those of
//! a cold statement by construction.
//!
//! Three consumers sit on top:
//!
//! * **`PREPARE name AS <stmt>` / `EXECUTE name (?1, …)`** — explicit
//!   prepared statements with typed positional parameters
//!   ([`crate::ast::IdTerm::Param`]). The body is resolved at PREPARE;
//!   EXECUTE substitutes bound argument OIDs into a clone of the
//!   template ([`Program::bind`]) and runs it, paying zero
//!   parse/resolve cost. A bound parameter is a plain OID constant by
//!   then, so the planner's index probes cover parameter keys with no
//!   extra code. Prepared statements are **session-local** and never
//!   WAL-logged: after a crash the client must re-PREPARE (an EXECUTE
//!   against a name prepared before the crash fails cleanly with
//!   *unknown prepared statement*).
//! * **The transparent plan cache** — [`Session::run`] keys programs on
//!   the statement's lexed token stream ([`cache_key`]) and reuses them
//!   on repeats, with LRU eviction at [`PlanCache::CAPACITY`] entries.
//!   Layout whitespace and comments never reach the key; literal
//!   payloads (whitespace inside strings included) do, verbatim.
//! * **The schema-epoch fence** — every [`Program`] records the
//!   [`oodb::Database::schema_epoch`] it was resolved under. Any
//!   definitional statement (class/signature/method/view definition,
//!   and conservatively any rollback that undid work) bumps the epoch,
//!   so cache lookup and EXECUTE both treat an epoch mismatch as an
//!   invalidation and re-resolve; a stale program is structurally
//!   unable to execute. A defensive counter
//!   (`xsql_plan_cache_stale_executions_total`) counts the should-be-
//!   impossible case and is asserted zero by the chaos harness.
//!
//! [`crate::eval::EvalOptions::use_vm`] `= false` turns the transparent
//! cache off: `Session::run` then parses every statement. See
//! `docs/VM.md`.
//!
//! [`Session::run`]: crate::Session::run

use crate::ast::*;
use crate::error::{XsqlError, XsqlResult};
use crate::eval::cond::flatten_and;
use crate::lexer::lex;
use oodb::{Database, Oid};
use std::collections::HashMap;

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

/// True when `Session::run` may cache a program for this
/// statement: plain SELECTs (no object creation — `OID FUNCTION OF`
/// mints fresh OIDs per run) and relational-algebra trees of such,
/// without parameter placeholders.
pub fn cacheable(stmt: &Stmt) -> bool {
    fn sel_ok(stmt: &Stmt) -> bool {
        match stmt {
            Stmt::Select(q) => q.oid_fn.is_none(),
            Stmt::RelOp { left, right, .. } => sel_ok(left) && sel_ok(right),
            _ => false,
        }
    }
    sel_ok(stmt) && max_param(stmt) == 0
}

/// The plan-cache key: the statement's lexed token stream with source
/// offsets dropped. Layout whitespace and comments vanish, while string
/// and quoted-identifier payloads stay verbatim, so two statements share
/// a key only when they lex to the same tokens. Case stays significant
/// (identifiers are case-sensitive). `None` when the text does not lex;
/// the caller then reports the parse error.
pub fn cache_key(src: &str) -> Option<String> {
    let tokens = lex(src).ok()?;
    let mut key = String::with_capacity(src.len() * 2);
    for t in &tokens {
        use std::fmt::Write as _;
        let _ = write!(key, "{:?} ", t.kind);
    }
    Some(key)
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

// ---------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------

/// Cached handles for the plan-cache counters, re-derived whenever the
/// session's registry is swapped. The size gauge lives in the
/// [`PlanCache`] itself, which moves it by deltas.
#[derive(Debug)]
pub struct CacheMetrics {
    /// `xsql_plan_cache_hits_total` — lookups and EXECUTEs served by an
    /// already-resolved program.
    pub hits: std::sync::Arc<telemetry::Counter>,
    /// `xsql_plan_cache_misses_total` — cacheable statements that had
    /// to be parsed and resolved (invalidations included).
    pub misses: std::sync::Arc<telemetry::Counter>,
    /// `xsql_plan_cache_evictions_total`.
    pub evictions: std::sync::Arc<telemetry::Counter>,
    /// `xsql_plan_cache_invalidations_total`.
    pub invalidations: std::sync::Arc<telemetry::Counter>,
    /// `xsql_plan_cache_stale_executions_total` — defensively counts a
    /// program reaching execution under a foreign schema epoch. The
    /// epoch fence makes this structurally unreachable; the chaos
    /// harness asserts it stays 0.
    pub stale_executions: std::sync::Arc<telemetry::Counter>,
}

impl CacheMetrics {
    /// Derives the metric handles from a registry.
    pub fn new(registry: &telemetry::Registry) -> CacheMetrics {
        CacheMetrics {
            hits: registry.counter("xsql_plan_cache_hits_total", &[]),
            misses: registry.counter("xsql_plan_cache_misses_total", &[]),
            evictions: registry.counter("xsql_plan_cache_evictions_total", &[]),
            invalidations: registry.counter("xsql_plan_cache_invalidations_total", &[]),
            stale_executions: registry.counter("xsql_plan_cache_stale_executions_total", &[]),
        }
    }
}

struct CacheEntry {
    prog: std::sync::Arc<Program>,
    /// LRU stamp: the cache tick of the last touch.
    stamp: u64,
}

impl std::fmt::Debug for CacheEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheEntry")
            .field("epoch", &self.prog.epoch)
            .field("stamp", &self.stamp)
            .finish()
    }
}

/// The transparent, session-local plan cache: resolved programs keyed
/// on [`cache_key`] token streams, fenced by schema epoch, evicted LRU.
///
/// The cache moves its `xsql_plan_cache_size` gauge by deltas (and
/// takes its entries back off the gauge when dropped), so with several
/// sessions on one registry the gauge reads the sum over them.
#[derive(Debug)]
pub struct PlanCache {
    map: HashMap<String, CacheEntry>,
    tick: u64,
    size: std::sync::Arc<telemetry::Gauge>,
}

impl PlanCache {
    /// Maximum number of cached programs; the least recently used entry
    /// is evicted beyond this.
    pub const CAPACITY: usize = 64;

    /// A fresh, empty cache counting its entries into `registry`'s
    /// `xsql_plan_cache_size` gauge.
    pub fn new(registry: &telemetry::Registry) -> PlanCache {
        PlanCache {
            map: HashMap::new(),
            tick: 0,
            size: registry.gauge("xsql_plan_cache_size", &[]),
        }
    }

    /// Moves this cache's entries from its current size gauge to
    /// `registry`'s.
    pub fn set_registry(&mut self, registry: &telemetry::Registry) {
        let n = self.map.len() as i64;
        self.size.add(-n);
        self.size = registry.gauge("xsql_plan_cache_size", &[]);
        self.size.add(n);
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key` under the current schema epoch. A hit bumps the
    /// LRU stamp and counts `hits`; an entry resolved under another
    /// epoch is dropped and counted as an invalidation. Misses are the
    /// caller's to count: only it learns whether the statement is
    /// cacheable at all.
    pub fn lookup(
        &mut self,
        key: &str,
        epoch: u64,
        m: &CacheMetrics,
    ) -> Option<std::sync::Arc<Program>> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) if entry.prog.epoch == epoch => {
                entry.stamp = self.tick;
                m.hits.inc();
                Some(std::sync::Arc::clone(&entry.prog))
            }
            Some(_) => {
                self.map.remove(key);
                self.size.add(-1);
                m.invalidations.inc();
                None
            }
            None => None,
        }
    }

    /// Inserts a freshly resolved program, evicting the least recently
    /// used entry when full.
    pub fn insert(&mut self, key: String, prog: std::sync::Arc<Program>, m: &CacheMetrics) {
        self.tick += 1;
        if self.map.len() >= Self::CAPACITY && !self.map.contains_key(&key) {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                self.size.add(-1);
                m.evictions.inc();
            }
        }
        let entry = CacheEntry {
            prog,
            stamp: self.tick,
        };
        if self.map.insert(key, entry).is_none() {
            self.size.add(1);
        }
    }

    /// Drops every cached program (a reader session does this when it
    /// is rebased onto a newer epoch).
    pub fn clear(&mut self) {
        self.size.add(-(self.map.len() as i64));
        self.map.clear();
    }
}

impl Drop for PlanCache {
    fn drop(&mut self) {
        self.clear();
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

    #[test]
    fn normalizes_whitespace_only() {
        // Layout whitespace and comments do not reach the key …
        assert_eq!(
            cache_key("SELECT   X\n  FROM Employee\tX -- all of them"),
            cache_key("SELECT X FROM Employee X")
        );
        // … whitespace inside a string literal does.
        assert_ne!(
            cache_key("SELECT X FROM Company X WHERE X.Name = 'Company  3'"),
            cache_key("SELECT X FROM Company X WHERE X.Name = 'Company 3'")
        );
        // Literal content and case stay significant.
        assert_ne!(
            cache_key("SELECT X FROM Employee X WHERE X.Salary > 1"),
            cache_key("SELECT X FROM Employee X WHERE X.Salary > 2")
        );
        assert_ne!(
            cache_key("select x from Employee x"),
            cache_key("SELECT X FROM Employee X")
        );
        // Text that does not lex has no key.
        assert_eq!(cache_key("SELECT 'unterminated"), None);
    }

    #[test]
    fn cacheable_excludes_creation_and_params() {
        let ok = parse("SELECT X FROM Employee X").unwrap();
        assert!(cacheable(&ok));
        let relop = parse("SELECT X FROM Employee X UNION SELECT X FROM Employee X").unwrap();
        assert!(cacheable(&relop));
        let oid_fn = parse("SELECT Name = X.Name FROM Employee X OID FUNCTION OF X").unwrap();
        assert!(!cacheable(&oid_fn));
        let param = parse("SELECT X FROM Employee X WHERE X.Salary > ?1").unwrap();
        assert!(!cacheable(&param));
    }
}
