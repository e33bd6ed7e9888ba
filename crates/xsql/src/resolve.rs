//! Static resolution: variable classification, sort checking, constant
//! interning.
//!
//! The paper writes variables the SQL way — bare capital letters — and
//! relies on context to tell them apart from object and attribute names
//! (it notes after query (3) that, strictly, method variables carry a
//! `"` prefix). The resolver implements the convention the paper's own
//! examples follow. An identifier denotes a **variable** iff
//!
//! 1. it carries an explicit sort prefix (`"Y` method, `#X`/`§X` class), or
//! 2. it is bound by a FROM, `OID FUNCTION OF`, or `{…}` grouping clause
//!    anywhere in the statement (`FROM Numeral Year` makes every `Year`
//!    a variable), or
//! 3. it is a single uppercase letter optionally followed by digits
//!    (`X`, `Y2`, `W` — every variable the paper writes), except in
//!    method position when it names a declared method (an attribute
//!    legitimately called `V` stays addressable; `"V` forces the
//!    variable reading).
//!
//! Everything else is a symbolic OID. Sorts are then inferred: FROM
//! binders and explicit prefixes are *strong*; occurrence in method
//! position forces the *method* sort (query (3)); the default is
//! *individual*. Contradictory strong constraints are a resolution
//! error.
//!
//! After classification every constant (symbol, numeral, string,
//! boolean, `nil`) is interned into the database's OID table and replaced
//! by [`IdTerm::Oid`], so evaluation never needs mutable access for
//! lookups.

use crate::ast::*;
use crate::error::{XsqlError, XsqlResult};
use oodb::Database;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Strength {
    Weak,       // default individual
    Positional, // method position
    Strong,     // explicit prefix or FROM binder
}

/// Resolves a parsed statement against a database, returning the
/// resolved statement (variables classified, constants interned).
pub fn resolve_stmt(db: &mut Database, stmt: &Stmt) -> XsqlResult<Stmt> {
    let mut r = Resolver {
        db,
        sorts: HashMap::new(),
    };
    r.collect_stmt(stmt)?;
    r.rewrite_stmt(stmt)
}

struct Resolver<'d> {
    db: &'d mut Database,
    /// name -> (sort, strongest constraint seen)
    sorts: HashMap<String, (VarSort, Strength)>,
}

/// The paper's variable-spelling convention: a single uppercase letter,
/// optionally followed by digits.
fn single_letter_var(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_uppercase()) && chars.all(|c| c.is_ascii_digit())
}

impl Resolver<'_> {
    fn is_var(&self, name: &str) -> bool {
        self.sorts.contains_key(name) || single_letter_var(name)
    }

    /// A bare identifier in *method position* is a method variable —
    /// unless it is not otherwise registered as a variable and names a
    /// declared method-object, in which case the declaration wins: the
    /// paper's single-letter convention is about variables, and an
    /// attribute legitimately named `V` (as a dump may contain) must
    /// stay addressable. Explicitly `"`-prefixed variables are
    /// unaffected.
    fn method_position_is_var(&self, name: &str) -> bool {
        if self.sorts.contains_key(name) {
            return true;
        }
        if !single_letter_var(name) {
            return false;
        }
        match self.db.oids().find_sym(name) {
            Some(o) => !self.db.is_method_object(o),
            None => true,
        }
    }

    fn sort_of(&self, name: &str) -> VarSort {
        self.sorts
            .get(name)
            .map(|&(s, _)| s)
            .unwrap_or(VarSort::Individual)
    }

    fn constrain(&mut self, name: &str, sort: VarSort, strength: Strength) -> XsqlResult<()> {
        match self.sorts.get_mut(name) {
            None => {
                self.sorts.insert(name.to_string(), (sort, strength));
                Ok(())
            }
            Some((s, st)) => {
                if *s == sort {
                    if strength > *st {
                        *st = strength;
                    }
                    return Ok(());
                }
                // Different sorts: the stronger constraint wins; two
                // conflicting constraints at the same (non-weak) level
                // are an error.
                if strength > *st {
                    *s = sort;
                    *st = strength;
                    Ok(())
                } else if strength < *st {
                    Ok(())
                } else if *st == Strength::Weak {
                    *s = sort;
                    Ok(())
                } else {
                    Err(XsqlError::Resolve(format!(
                        "variable `{name}` is used with conflicting sorts {s} and {sort}"
                    )))
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Pass A: collect constraints
    // ------------------------------------------------------------------

    fn collect_stmt(&mut self, stmt: &Stmt) -> XsqlResult<()> {
        match stmt {
            Stmt::Select(q) => self.collect_query(q),
            Stmt::RelOp { left, right, .. } => {
                self.collect_stmt(left)?;
                self.collect_stmt(right)
            }
            Stmt::CreateView(v) => self.collect_query(&v.query),
            Stmt::AlterClass(a) => self.collect_query(&a.query),
            Stmt::AddSignature { .. }
            | Stmt::CreateClass(_)
            | Stmt::Begin
            | Stmt::Commit
            | Stmt::Rollback
            | Stmt::WalOn
            | Stmt::WalOff
            | Stmt::Checkpoint
            | Stmt::Stats => Ok(()),
            Stmt::CreateObject(o) => {
                for (_, op) in &o.sets {
                    self.collect_operand(op)?;
                }
                Ok(())
            }
            Stmt::Update(u) => self.collect_update(u),
            Stmt::Explain { stmt: inner, .. } => self.collect_stmt(inner),
            // The body of a PREPARE is resolved when the statement
            // executes (Session's PREPARE arm), not here — its variables live
            // in their own scope and must not leak into this one.
            Stmt::Prepare { .. } => Ok(()),
            Stmt::Execute { args, .. } => {
                for a in args {
                    self.collect_idterm(a)?;
                }
                Ok(())
            }
        }
    }

    fn collect_query(&mut self, q: &SelectQuery) -> XsqlResult<()> {
        for f in &q.from {
            self.constrain(&f.var.name, f.var.sort, Strength::Strong)?;
            if let IdTerm::Var(v) = &f.class {
                self.constrain(&v.name, VarSort::Class, Strength::Strong)?;
            }
        }
        if let Some(spec) = &q.oid_fn {
            for v in &spec.vars {
                let strength = if v.sort == VarSort::Individual {
                    Strength::Weak
                } else {
                    Strength::Strong
                };
                self.constrain(&v.name, v.sort, strength)?;
            }
        }
        for item in &q.select {
            match item {
                SelectItem::Expr(op) => self.collect_operand(op)?,
                SelectItem::Named { value, .. } => match value {
                    SelectValue::Expr(op) => self.collect_operand(op)?,
                    SelectValue::Grouped(v) => {
                        let strength = if v.sort == VarSort::Individual {
                            Strength::Weak
                        } else {
                            Strength::Strong
                        };
                        self.constrain(&v.name, v.sort, strength)?;
                    }
                },
                SelectItem::MethodResult { args, value, .. } => {
                    for a in args {
                        self.collect_idterm(a)?;
                    }
                    self.collect_operand(value)?;
                }
            }
        }
        self.collect_cond(&q.where_clause)
    }

    fn collect_update(&mut self, u: &UpdateStmt) -> XsqlResult<()> {
        for a in &u.assignments {
            self.collect_path(&a.target)?;
            self.collect_operand(&a.value)?;
        }
        Ok(())
    }

    fn collect_cond(&mut self, c: &Cond) -> XsqlResult<()> {
        match c {
            Cond::True => Ok(()),
            Cond::Path(p) => self.collect_path(p),
            Cond::Cmp { left, right, .. } => {
                self.collect_operand(left)?;
                self.collect_operand(right)
            }
            Cond::SetCmp { left, right, .. } => {
                self.collect_operand(left)?;
                self.collect_operand(right)
            }
            Cond::SubclassOf { sub, sup } => {
                for t in [sub, sup] {
                    if let IdTerm::Sym(s) = t {
                        if self.is_var(s) {
                            // A bare variable in subclassOf position
                            // ranges over classes.
                            self.constrain(s, VarSort::Class, Strength::Positional)?;
                        }
                    }
                    self.collect_idterm(t)?;
                }
                Ok(())
            }
            Cond::InstanceOf { obj, class } => {
                if let IdTerm::Sym(s) = class {
                    if self.is_var(s) {
                        self.constrain(s, VarSort::Class, Strength::Positional)?;
                    }
                }
                self.collect_idterm(obj)?;
                self.collect_idterm(class)
            }
            Cond::And(a, b) | Cond::Or(a, b) => {
                self.collect_cond(a)?;
                self.collect_cond(b)
            }
            Cond::Not(a) => self.collect_cond(a),
            Cond::Update(u) => self.collect_update(u),
        }
    }

    fn collect_operand(&mut self, op: &Operand) -> XsqlResult<()> {
        match op {
            Operand::Path(p) => self.collect_path(p),
            Operand::Agg(_, p) => self.collect_path(p),
            Operand::SetLit(ts) => {
                for t in ts {
                    self.collect_idterm(t)?;
                }
                Ok(())
            }
            Operand::Subquery(q) => self.collect_query(q),
            Operand::Arith(a, _, b)
            | Operand::Union(a, b)
            | Operand::Intersection(a, b)
            | Operand::Difference(a, b) => {
                self.collect_operand(a)?;
                self.collect_operand(b)
            }
        }
    }

    fn collect_path(&mut self, p: &PathExpr) -> XsqlResult<()> {
        self.collect_idterm(&p.head)?;
        for s in &p.steps {
            match s {
                Step::Method {
                    method,
                    args,
                    selector,
                } => {
                    match method {
                        MethodTerm::Var(name) => {
                            self.constrain(name, VarSort::Method, Strength::Strong)?;
                        }
                        MethodTerm::Name(name) => {
                            if self.method_position_is_var(name) {
                                // Query (3): a variable in method
                                // position is a method variable.
                                self.constrain(name, VarSort::Method, Strength::Positional)?;
                            }
                        }
                    }
                    for a in args {
                        self.collect_idterm(a)?;
                    }
                    if let Some(t) = selector {
                        self.collect_idterm(t)?;
                    }
                }
                Step::PathVar { selector, .. } => {
                    if let Some(t) = selector {
                        self.collect_idterm(t)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn collect_idterm(&mut self, t: &IdTerm) -> XsqlResult<()> {
        match t {
            IdTerm::Var(v) => {
                let strength = if v.sort == VarSort::Individual {
                    Strength::Weak
                } else {
                    Strength::Strong
                };
                self.constrain(&v.name, v.sort, strength)
            }
            IdTerm::Sym(s) => {
                if self.is_var(s) {
                    self.constrain(s, VarSort::Individual, Strength::Weak)?;
                }
                Ok(())
            }
            IdTerm::Func(_, args) => {
                for a in args {
                    self.collect_idterm(a)?;
                }
                Ok(())
            }
            IdTerm::PathArg(p) => self.collect_path(p),
            _ => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Pass B: rewrite
    // ------------------------------------------------------------------

    fn rewrite_stmt(&mut self, stmt: &Stmt) -> XsqlResult<Stmt> {
        Ok(match stmt {
            Stmt::Select(q) => Stmt::Select(self.rewrite_query(q)?),
            Stmt::RelOp { left, op, right } => Stmt::RelOp {
                left: Box::new(self.rewrite_stmt(left)?),
                op: *op,
                right: Box::new(self.rewrite_stmt(right)?),
            },
            Stmt::CreateView(v) => Stmt::CreateView(CreateView {
                name: v.name.clone(),
                superclass: v.superclass.clone(),
                signature: v.signature.clone(),
                query: self.rewrite_query(&v.query)?,
            }),
            Stmt::AlterClass(a) => Stmt::AlterClass(AlterClass {
                class: a.class.clone(),
                signature: a.signature.clone(),
                query: self.rewrite_query(&a.query)?,
            }),
            Stmt::AddSignature { class, signature } => {
                self.db.oids_mut().sym(class);
                Stmt::AddSignature {
                    class: class.clone(),
                    signature: signature.clone(),
                }
            }
            Stmt::CreateClass(c) => Stmt::CreateClass(c.clone()),
            Stmt::CreateObject(o) => Stmt::CreateObject(CreateObject {
                name: o.name.clone(),
                classes: o.classes.clone(),
                sets: o
                    .sets
                    .iter()
                    .map(|(a, op)| Ok((a.clone(), self.rewrite_operand(op)?)))
                    .collect::<XsqlResult<_>>()?,
            }),
            Stmt::Update(u) => Stmt::Update(self.rewrite_update(u)?),
            Stmt::Explain {
                analyze,
                stmt: inner,
            } => Stmt::Explain {
                analyze: *analyze,
                stmt: Box::new(self.rewrite_stmt(inner)?),
            },
            Stmt::Stats => Stmt::Stats,
            Stmt::Begin => Stmt::Begin,
            Stmt::Commit => Stmt::Commit,
            Stmt::Rollback => Stmt::Rollback,
            Stmt::WalOn => Stmt::WalOn,
            Stmt::WalOff => Stmt::WalOff,
            Stmt::Checkpoint => Stmt::Checkpoint,
            // Passed through verbatim: the body is resolved (against the
            // then-current schema) when the session compiles it.
            Stmt::Prepare { name, stmt: inner } => Stmt::Prepare {
                name: name.clone(),
                stmt: inner.clone(),
            },
            Stmt::Execute { name, args } => Stmt::Execute {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| self.rewrite_idterm(a))
                    .collect::<XsqlResult<_>>()?,
            },
        })
    }

    fn rewrite_query(&mut self, q: &SelectQuery) -> XsqlResult<SelectQuery> {
        let mut select = Vec::with_capacity(q.select.len());
        for item in &q.select {
            select.push(match item {
                SelectItem::Expr(op) => SelectItem::Expr(self.rewrite_operand(op)?),
                SelectItem::Named { attr, value } => SelectItem::Named {
                    attr: attr.clone(),
                    value: match value {
                        SelectValue::Expr(op) => SelectValue::Expr(self.rewrite_operand(op)?),
                        SelectValue::Grouped(v) => SelectValue::Grouped(self.final_var(&v.name)),
                    },
                },
                SelectItem::MethodResult {
                    method,
                    args,
                    value,
                } => {
                    self.db.oids_mut().sym(method);
                    SelectItem::MethodResult {
                        method: method.clone(),
                        args: args
                            .iter()
                            .map(|a| self.rewrite_idterm(a))
                            .collect::<XsqlResult<_>>()?,
                        value: self.rewrite_operand(value)?,
                    }
                }
            });
        }
        let from = q
            .from
            .iter()
            .map(|f| {
                Ok(FromItem {
                    class: self.rewrite_idterm(&f.class)?,
                    var: self.final_var(&f.var.name),
                })
            })
            .collect::<XsqlResult<_>>()?;
        let oid_fn = match &q.oid_fn {
            None => None,
            Some(spec) => {
                if let Some(f) = &spec.function {
                    self.db.oids_mut().sym(f);
                }
                Some(OidSpec {
                    function: spec.function.clone(),
                    vars: spec.vars.iter().map(|v| self.final_var(&v.name)).collect(),
                })
            }
        };
        let where_clause = self.rewrite_cond(&q.where_clause)?;
        Ok(SelectQuery {
            select,
            from,
            oid_fn,
            where_clause,
        })
    }

    fn rewrite_update(&mut self, u: &UpdateStmt) -> XsqlResult<UpdateStmt> {
        self.db.oids_mut().sym(&u.class);
        let assignments = u
            .assignments
            .iter()
            .map(|a| {
                Ok(Assignment {
                    target: self.rewrite_path(&a.target)?,
                    value: self.rewrite_operand(&a.value)?,
                })
            })
            .collect::<XsqlResult<_>>()?;
        Ok(UpdateStmt {
            class: u.class.clone(),
            assignments,
        })
    }

    fn rewrite_cond(&mut self, c: &Cond) -> XsqlResult<Cond> {
        Ok(match c {
            Cond::True => Cond::True,
            Cond::Path(p) => Cond::Path(self.rewrite_path(p)?),
            Cond::Cmp {
                left,
                lq,
                op,
                rq,
                right,
            } => Cond::Cmp {
                left: self.rewrite_operand(left)?,
                lq: *lq,
                op: *op,
                rq: *rq,
                right: self.rewrite_operand(right)?,
            },
            Cond::SetCmp { left, op, right } => Cond::SetCmp {
                left: self.rewrite_operand(left)?,
                op: *op,
                right: self.rewrite_operand(right)?,
            },
            Cond::SubclassOf { sub, sup } => Cond::SubclassOf {
                sub: self.rewrite_idterm(sub)?,
                sup: self.rewrite_idterm(sup)?,
            },
            Cond::InstanceOf { obj, class } => Cond::InstanceOf {
                obj: self.rewrite_idterm(obj)?,
                class: self.rewrite_idterm(class)?,
            },
            Cond::And(a, b) => Cond::And(
                Box::new(self.rewrite_cond(a)?),
                Box::new(self.rewrite_cond(b)?),
            ),
            Cond::Or(a, b) => Cond::Or(
                Box::new(self.rewrite_cond(a)?),
                Box::new(self.rewrite_cond(b)?),
            ),
            Cond::Not(a) => Cond::Not(Box::new(self.rewrite_cond(a)?)),
            Cond::Update(u) => Cond::Update(self.rewrite_update(u)?),
        })
    }

    fn rewrite_operand(&mut self, op: &Operand) -> XsqlResult<Operand> {
        Ok(match op {
            Operand::Path(p) => Operand::Path(self.rewrite_path(p)?),
            Operand::Agg(f, p) => Operand::Agg(*f, self.rewrite_path(p)?),
            Operand::SetLit(ts) => Operand::SetLit(
                ts.iter()
                    .map(|t| self.rewrite_idterm(t))
                    .collect::<XsqlResult<_>>()?,
            ),
            Operand::Subquery(q) => Operand::Subquery(Box::new(self.rewrite_query(q)?)),
            Operand::Arith(a, o, b) => Operand::Arith(
                Box::new(self.rewrite_operand(a)?),
                *o,
                Box::new(self.rewrite_operand(b)?),
            ),
            Operand::Union(a, b) => Operand::Union(
                Box::new(self.rewrite_operand(a)?),
                Box::new(self.rewrite_operand(b)?),
            ),
            Operand::Intersection(a, b) => Operand::Intersection(
                Box::new(self.rewrite_operand(a)?),
                Box::new(self.rewrite_operand(b)?),
            ),
            Operand::Difference(a, b) => Operand::Difference(
                Box::new(self.rewrite_operand(a)?),
                Box::new(self.rewrite_operand(b)?),
            ),
        })
    }

    fn rewrite_path(&mut self, p: &PathExpr) -> XsqlResult<PathExpr> {
        let head = self.rewrite_idterm(&p.head)?;
        let steps = p
            .steps
            .iter()
            .map(|s| {
                Ok(match s {
                    Step::Method {
                        method,
                        args,
                        selector,
                    } => Step::Method {
                        method: match method {
                            MethodTerm::Var(name) => MethodTerm::Var(name.clone()),
                            MethodTerm::Name(name) => {
                                if self.method_position_is_var(name) {
                                    MethodTerm::Var(name.clone())
                                } else {
                                    self.db.oids_mut().sym(name);
                                    MethodTerm::Name(name.clone())
                                }
                            }
                        },
                        args: args
                            .iter()
                            .map(|a| self.rewrite_idterm(a))
                            .collect::<XsqlResult<_>>()?,
                        selector: selector
                            .as_ref()
                            .map(|t| self.rewrite_idterm(t))
                            .transpose()?,
                    },
                    Step::PathVar { name, selector } => Step::PathVar {
                        name: name.clone(),
                        selector: selector
                            .as_ref()
                            .map(|t| self.rewrite_idterm(t))
                            .transpose()?,
                    },
                })
            })
            .collect::<XsqlResult<_>>()?;
        Ok(PathExpr { head, steps })
    }

    fn final_var(&self, name: &str) -> Var {
        Var {
            name: name.to_string(),
            sort: self.sort_of(name),
        }
    }

    fn rewrite_idterm(&mut self, t: &IdTerm) -> XsqlResult<IdTerm> {
        Ok(match t {
            IdTerm::Oid(o) => IdTerm::Oid(*o),
            IdTerm::Sym(s) => {
                if self.is_var(s) {
                    IdTerm::Var(self.final_var(s))
                } else {
                    IdTerm::Oid(self.db.oids_mut().sym(s))
                }
            }
            IdTerm::Int(v) => IdTerm::Oid(self.db.oids_mut().int(*v)),
            IdTerm::Real(v) => IdTerm::Oid(self.db.oids_mut().real(*v)),
            IdTerm::Str(s) => IdTerm::Oid(self.db.oids_mut().str(s)),
            IdTerm::Bool(v) => IdTerm::Oid(self.db.oids_mut().bool(*v)),
            IdTerm::Nil => IdTerm::Oid(self.db.oids_mut().nil()),
            // Parameters survive resolution untouched; EXECUTE binds
            // them to interned OIDs without re-resolving the body.
            IdTerm::Param(n) => IdTerm::Param(*n),
            IdTerm::Var(v) => IdTerm::Var(self.final_var(&v.name)),
            IdTerm::Func(f, args) => {
                self.db.oids_mut().sym(f);
                IdTerm::Func(
                    f.clone(),
                    args.iter()
                        .map(|a| self.rewrite_idterm(a))
                        .collect::<XsqlResult<_>>()?,
                )
            }
            IdTerm::PathArg(p) => IdTerm::PathArg(Box::new(self.rewrite_path(p)?)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use oodb::Database;

    fn resolved(src: &str) -> (Database, Stmt) {
        let mut db = Database::new();
        let s = parse(src).unwrap();
        let r = resolve_stmt(&mut db, &s).unwrap();
        (db, r)
    }

    fn query(s: &Stmt) -> &SelectQuery {
        match s {
            Stmt::Select(q) => q,
            _ => panic!("not a select"),
        }
    }

    #[test]
    fn single_letter_convention() {
        assert!(single_letter_var("X"));
        assert!(single_letter_var("Y2"));
        assert!(single_letter_var("W"));
        assert!(!single_letter_var("Name"));
        assert!(!single_letter_var("mary123"));
        assert!(!single_letter_var("OO_Forum"));
        assert!(!single_letter_var("x"));
    }

    #[test]
    fn from_binder_makes_variable() {
        // `Year` is multi-letter but bound by FROM (query (19)).
        let (_, s) = resolved("SELECT M FROM Numeral Year WHERE OO_Forum.(Member @ Year)[M]");
        let q = query(&s);
        match &q.where_clause {
            Cond::Path(p) => {
                assert!(matches!(&p.head, IdTerm::Oid(_))); // OO_Forum is a symbol
                match &p.steps[0] {
                    Step::Method { args, selector, .. } => {
                        assert!(matches!(&args[0], IdTerm::Var(v) if v.name == "Year"));
                        assert!(matches!(selector, Some(IdTerm::Var(v)) if v.name == "M"));
                    }
                    s => panic!("unexpected {s:?}"),
                }
            }
            c => panic!("unexpected {c:?}"),
        }
    }

    #[test]
    fn method_position_forces_method_sort() {
        // Query (3): Y in method position becomes a method variable.
        let (_, s) = resolved("SELECT Y FROM Person X WHERE X.Y.City['newyork']");
        let q = query(&s);
        match &q.select[0] {
            SelectItem::Expr(Operand::Path(p)) => {
                assert!(matches!(&p.head, IdTerm::Var(v) if v.sort == VarSort::Method));
            }
            i => panic!("unexpected {i:?}"),
        }
        match &q.where_clause {
            Cond::Path(p) => {
                assert!(matches!(
                    &p.steps[0],
                    Step::Method {
                        method: MethodTerm::Var(_),
                        ..
                    }
                ));
            }
            c => panic!("unexpected {c:?}"),
        }
    }

    #[test]
    fn literals_interned() {
        let (db, s) = resolved("SELECT X FROM Employee X WHERE X.Salary < 35000");
        let q = query(&s);
        match &q.where_clause {
            Cond::Cmp { right, .. } => match right {
                Operand::Path(p) => match &p.head {
                    IdTerm::Oid(o) => {
                        assert_eq!(db.oids().as_number(*o), Some(35000.0));
                    }
                    t => panic!("unexpected {t:?}"),
                },
                o => panic!("unexpected {o:?}"),
            },
            c => panic!("unexpected {c:?}"),
        }
    }

    #[test]
    fn class_variable_sort() {
        let (_, s) = resolved("SELECT #X WHERE TurboEngine subclassOf #X");
        let q = query(&s);
        match &q.select[0] {
            SelectItem::Expr(Operand::Path(p)) => {
                assert!(matches!(&p.head, IdTerm::Var(v) if v.sort == VarSort::Class));
            }
            i => panic!("unexpected {i:?}"),
        }
    }

    #[test]
    fn conflicting_sorts_rejected() {
        // X is a FROM-bound individual but also used with a class prefix.
        let mut db = Database::new();
        let s = parse("SELECT X FROM Person X WHERE TurboEngine subclassOf #X").unwrap();
        assert!(resolve_stmt(&mut db, &s).is_err());
    }

    #[test]
    fn from_class_position_resolves_to_oid() {
        let (db, s) = resolved("SELECT X FROM Person X");
        let q = query(&s);
        match &q.from[0].class {
            IdTerm::Oid(o) => assert_eq!(db.oids().sym_name(*o), Some("Person")),
            t => panic!("unexpected {t:?}"),
        }
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::parser::parse;
    use oodb::Database;

    fn try_resolve(src: &str) -> XsqlResult<Stmt> {
        let mut db = Database::new();
        let s = parse(src)?;
        resolve_stmt(&mut db, &s)
    }

    #[test]
    fn grouped_var_registered_as_binder() {
        // W appears only inside {W} and WHERE; the {W} binder makes it a
        // variable even if multi-letter.
        let s = try_resolve(
            "SELECT A = X.Name, Who = {Winner} FROM C X OID FUNCTION OF X \
             WHERE X.Members[Winner]",
        )
        .unwrap();
        let Stmt::Select(q) = s else { panic!() };
        match &q.where_clause {
            Cond::Path(p) => match &p.steps[0] {
                Step::Method { selector, .. } => {
                    assert!(matches!(selector, Some(IdTerm::Var(v)) if v.name == "Winner"));
                }
                s => panic!("unexpected {s:?}"),
            },
            c => panic!("unexpected {c:?}"),
        }
    }

    #[test]
    fn oid_vars_are_binders_too() {
        let s = try_resolve("SELECT A = Emp.Salary FROM C Emp OID FUNCTION OF Emp").unwrap();
        let Stmt::Select(q) = s else { panic!() };
        match &q.select[0] {
            SelectItem::Named {
                value: SelectValue::Expr(Operand::Path(p)),
                ..
            } => assert!(matches!(&p.head, IdTerm::Var(v) if v.name == "Emp")),
            i => panic!("unexpected {i:?}"),
        }
    }

    #[test]
    fn method_position_variable_consistent_across_occurrences() {
        // Y used in method position twice: both become method vars.
        let s = try_resolve("SELECT Y FROM C X, C Z WHERE X.\"Y and Z.\"Y").unwrap();
        let Stmt::Select(q) = s else { panic!() };
        match &q.select[0] {
            SelectItem::Expr(Operand::Path(p)) => {
                assert!(matches!(&p.head, IdTerm::Var(v) if v.sort == VarSort::Method));
            }
            i => panic!("unexpected {i:?}"),
        }
    }

    #[test]
    fn class_var_in_from_range_and_select() {
        let s = try_resolve("SELECT #K FROM #K Y WHERE Y.Age > 1").unwrap();
        let Stmt::Select(q) = s else { panic!() };
        assert!(matches!(&q.from[0].class, IdTerm::Var(v) if v.sort == VarSort::Class));
    }

    #[test]
    fn explain_resolves_inner_statement() {
        let s = try_resolve("EXPLAIN SELECT X FROM C X WHERE X.Age > 1").unwrap();
        let Stmt::Explain { stmt: inner, .. } = s else {
            panic!()
        };
        let Stmt::Select(q) = *inner else { panic!() };
        // Constant resolved to an interned OID.
        match &q.where_clause {
            Cond::Cmp { right, .. } => match right {
                Operand::Path(p) => assert!(matches!(p.head, IdTerm::Oid(_))),
                o => panic!("unexpected {o:?}"),
            },
            c => panic!("unexpected {c:?}"),
        }
    }
}
