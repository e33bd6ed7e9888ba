//! Path-expression satisfaction (§3.1, §5).
//!
//! Two entry points share the step-walking core:
//!
//! * [`Ctx::walk_path`] — *generate* mode: unbound variables are
//!   enumerated (head variables over their sort's active domain, method
//!   variables over the methods defined on the current object, unbound
//!   method arguments over the stored argument tuples) and pushed onto
//!   the bindings; the continuation receives every satisfying tail.
//! * [`Ctx::path_value`] — *strict* mode: the value of a ground path
//!   expression, i.e. "the set of the tail objects of the database paths
//!   satisfying it" (§3.2). Any unbound variable is an error — the
//!   scheduler only evaluates operands once their variables are bound.

use super::bindings::Bindings;
use super::Ctx;
use crate::ast::*;
use crate::error::{XsqlError, XsqlResult};
use oodb::{Oid, OidData, Val};
use std::collections::BTreeSet;

/// Continuation invoked with each satisfying tail object.
pub type PathK<'a, 'q> = &'a mut dyn FnMut(Oid, &mut Bindings<'q>) -> XsqlResult<()>;

impl<'d> Ctx<'d> {
    /// True if `o` may be bound to a variable of sort `sort` (§3.1: the
    /// three variable varieties range over the three sub-universes).
    pub fn sort_ok(&self, sort: VarSort, o: Oid) -> bool {
        match sort {
            VarSort::Class => self.db.is_class(o),
            VarSort::Method => self.db.is_method_object(o),
            // Individual variables must not capture class-objects; the
            // class universe is disjoint from the others (§2).
            VarSort::Individual => !self.db.is_class(o),
        }
    }

    /// OID equality with numeral insensitivity: the numeral object `2`
    /// and the numeral object `2.0` denote the same abstract number.
    pub fn oid_eq(&self, a: Oid, b: Oid) -> bool {
        if a == b {
            return true;
        }
        match (self.db.oids().as_number(a), self.db.oids().as_number(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Evaluates a *ground-under-bindings* id-term. `Err(Unbound)` if a
    /// variable is unbound; `Ok(None)` if the term is a ground id-term
    /// that denotes no existing object (an id-function application never
    /// interned) or a PathArg with an empty/ambiguous value.
    pub fn eval_idterm(&self, t: &IdTerm, bnd: &Bindings<'_>) -> XsqlResult<Option<Oid>> {
        match t {
            IdTerm::Oid(o) => Ok(Some(*o)),
            IdTerm::Var(v) => bnd
                .get(&v.name)
                .map(Some)
                .ok_or_else(|| XsqlError::Unbound(v.name.clone())),
            IdTerm::Func(f, args) => {
                let functor = self
                    .db
                    .oids()
                    .find_sym(f)
                    .ok_or_else(|| XsqlError::Resolve(format!("unknown id-function `{f}`")))?;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    match self.eval_idterm(a, bnd)? {
                        Some(o) => vals.push(o),
                        None => return Ok(None),
                    }
                }
                Ok(self.db.oids().find_func(functor, &vals))
            }
            IdTerm::PathArg(p) => {
                let v = self.path_value(p, bnd)?;
                if v.len() == 1 {
                    Ok(v.into_iter().next())
                } else if v.is_empty() {
                    Ok(None)
                } else {
                    Err(XsqlError::NotScalar(
                        "path argument produced several values".into(),
                    ))
                }
            }
            // The resolver replaces all surface constants with Oid.
            other => Err(XsqlError::Resolve(format!(
                "unresolved id-term {other:?} reached evaluation"
            ))),
        }
    }

    /// Unifies an id-term against an object, possibly binding variables.
    /// On mismatch restores `bnd` and returns false.
    pub fn unify<'q>(&self, t: &'q IdTerm, o: Oid, bnd: &mut Bindings<'q>) -> XsqlResult<bool> {
        let mark = bnd.mark();
        let ok = self.unify_inner(t, o, bnd)?;
        if !ok {
            bnd.truncate(mark);
        }
        Ok(ok)
    }

    fn unify_inner<'q>(&self, t: &'q IdTerm, o: Oid, bnd: &mut Bindings<'q>) -> XsqlResult<bool> {
        match t {
            IdTerm::Oid(c) => Ok(self.oid_eq(*c, o)),
            IdTerm::Var(v) => match bnd.get(&v.name) {
                Some(b) => Ok(self.oid_eq(b, o)),
                None => {
                    if self.sort_ok(v.sort, o) {
                        bnd.push(&v.name, o);
                        Ok(true)
                    } else {
                        Ok(false)
                    }
                }
            },
            IdTerm::Func(f, args) => {
                let functor = match self.db.oids().find_sym(f) {
                    Some(x) => x,
                    None => return Ok(false),
                };
                match self.db.oids().get(o) {
                    OidData::Func(g, actual) if *g == functor && actual.len() == args.len() => {
                        for (a, &v) in args.iter().zip(actual.iter()) {
                            if !self.unify_inner(a, v, bnd)? {
                                return Ok(false);
                            }
                        }
                        Ok(true)
                    }
                    _ => Ok(false),
                }
            }
            IdTerm::PathArg(p) => {
                let v = self.path_value(p, bnd)?;
                Ok(v.contains(&o) || v.iter().any(|&m| self.oid_eq(m, o)))
            }
            other => Err(XsqlError::Resolve(format!(
                "unresolved id-term {other:?} reached evaluation"
            ))),
        }
    }

    /// The active domain of a variable sort (naive semantics §3.4).
    pub fn domain(&self, sort: VarSort) -> Vec<Oid> {
        match sort {
            VarSort::Individual => self.db.individuals().collect(),
            VarSort::Class => self.db.classes().collect(),
            VarSort::Method => self.db.method_objects().collect(),
        }
    }

    // ------------------------------------------------------------------
    // Generate mode
    // ------------------------------------------------------------------

    /// Enumerates every satisfying extension of `bnd` along path `p`,
    /// invoking `k` with each tail. Bindings pushed during a branch are
    /// removed before the next branch.
    pub fn walk_path<'q>(
        &self,
        p: &'q PathExpr,
        bnd: &mut Bindings<'q>,
        k: PathK<'_, 'q>,
    ) -> XsqlResult<()> {
        let mark = bnd.mark();
        match &p.head {
            IdTerm::Var(v) if !bnd.is_bound(&v.name) => {
                // Head v-selector unbound: range over the sort's domain,
                // narrowed to the Theorem 6.1 range under the typed
                // strategy, or to the inverted method index when the
                // first step names a fixed method (the Nobel-query
                // shape `SELECT X WHERE X.WonNobelPrize`).
                let candidates = self.head_candidates(p, v);
                self.check_binding_set(candidates.len())?;
                for o in candidates {
                    if !self.sort_ok(v.sort, o) {
                        continue;
                    }
                    self.tick()?;
                    bnd.push(&v.name, o);
                    self.walk_steps(&p.steps, 0, o, bnd, k)?;
                    bnd.truncate(mark);
                }
                Ok(())
            }
            IdTerm::Func(_, _) if !term_bound(&p.head, bnd) => {
                // Partially-unbound id-term head: unify against existing
                // id-term objects (view objects, §4.2). The candidate
                // scan is budgeted exactly like the var-head branch —
                // a database dense in id-term objects would otherwise
                // bypass the fan-out budget entirely.
                let candidates: Vec<Oid> = self
                    .db
                    .individuals()
                    .filter(|&o| matches!(self.db.oids().get(o), OidData::Func(..)))
                    .collect();
                self.check_binding_set(candidates.len())?;
                for o in candidates {
                    self.tick()?;
                    if self.unify(&p.head, o, bnd)? {
                        self.walk_steps(&p.steps, 0, o, bnd, k)?;
                        bnd.truncate(mark);
                    }
                }
                Ok(())
            }
            _ => match self.eval_idterm(&p.head, bnd)? {
                Some(o) => self.walk_steps(&p.steps, 0, o, bnd, k),
                None => Ok(()),
            },
        }
    }

    /// The candidate heads for an unbound head variable: an explicit
    /// Theorem 6.1 range wins; else, when enabled and the first step is
    /// a fixed method name, the inverted index gives a sound superset of
    /// the heads on which that method can be defined; else the sort's
    /// active domain.
    fn head_candidates(&self, p: &PathExpr, v: &crate::ast::Var) -> Vec<Oid> {
        if let Some(rs) = self.ranges {
            if let Some(set) = rs.get(&v.name) {
                return set.iter().copied().collect();
            }
        }
        if self.opts.use_method_index {
            if let Some(Step::Method {
                method: MethodTerm::Name(n),
                selector,
                ..
            }) = p.steps.first()
            {
                if let Some(m) = self.db.oids().find_sym(n) {
                    // A ground first-step selector anchors the lookup to
                    // the typed value index, which is numeral-insensitive
                    // like `oid_eq`.
                    if let Some(IdTerm::Oid(sel)) = selector {
                        return self
                            .db
                            .candidates_with_method_value(m, *sel)
                            .into_iter()
                            .collect();
                    }
                    return self.db.candidates_with_method(m).into_iter().collect();
                }
            }
        }
        self.domain(v.sort)
    }

    fn walk_steps<'q>(
        &self,
        steps: &'q [Step],
        i: usize,
        cur: Oid,
        bnd: &mut Bindings<'q>,
        k: PathK<'_, 'q>,
    ) -> XsqlResult<()> {
        self.tick()?;
        if i == steps.len() {
            return k(cur, bnd);
        }
        // Budget: walk_steps recurses through walk_args/each_member (and
        // indirectly via computed methods); the guard bounds stack depth.
        let _depth = self.enter_path()?;
        match &steps[i] {
            Step::Method {
                method,
                args,
                selector,
            } => {
                let mark = bnd.mark();
                for m in self.method_candidates(method, cur, args.len(), bnd)? {
                    if let MethodTerm::Var(name) = method {
                        match bnd.get(name) {
                            None => bnd.push(name, m),
                            Some(b) if !self.oid_eq(b, m) => continue,
                            Some(_) => {}
                        }
                    }
                    self.walk_args(steps, i, cur, m, args, selector.as_ref(), bnd, k)?;
                    bnd.truncate(mark);
                }
                Ok(())
            }
            Step::PathVar { selector, .. } => {
                // Existential navigation over 0..=limit 0-ary steps.
                self.walk_path_var(steps, i, cur, 0, selector.as_ref(), bnd, k)
            }
        }
    }

    /// Candidate method-objects for a step: a fixed name, a bound method
    /// variable, or every method defined on `cur` at this arity
    /// (query (3): `X."Y.City`).
    fn method_candidates(
        &self,
        method: &MethodTerm,
        cur: Oid,
        arity: usize,
        bnd: &Bindings<'_>,
    ) -> XsqlResult<Vec<Oid>> {
        match method {
            MethodTerm::Name(n) => Ok(self.db.oids().find_sym(n).into_iter().collect()),
            MethodTerm::Var(name) => match bnd.get(name) {
                Some(m) => Ok(vec![m]),
                None => Ok(self.db.methods_defined_on(cur, arity).into_iter().collect()),
            },
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn walk_args<'q>(
        &self,
        steps: &'q [Step],
        i: usize,
        cur: Oid,
        m: Oid,
        args: &'q [IdTerm],
        selector: Option<&'q IdTerm>,
        bnd: &mut Bindings<'q>,
        k: PathK<'_, 'q>,
    ) -> XsqlResult<()> {
        // Fast path: all arguments evaluable under current bindings.
        if args.iter().all(|a| term_bound(a, bnd)) {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                match self.eval_idterm(a, bnd)? {
                    Some(o) => vals.push(o),
                    None => return Ok(()),
                }
            }
            return self.step_value(steps, i, cur, m, &vals, selector, bnd, k);
        }
        // Unbound argument variables: enumerate the stored argument
        // tuples of (cur, m) and unify. (Computed methods cannot be
        // enumerated backwards; the scheduler binds their arguments
        // first whenever the query makes that possible.)
        let entries: Vec<&[Oid]> = self
            .db
            .stored_entries_for(cur, m)
            .filter(|(a, _)| a.len() == args.len())
            .map(|(a, _)| a)
            .collect();
        let mark = bnd.mark();
        'entry: for tuple in entries {
            self.tick()?;
            for (a, &v) in args.iter().zip(tuple.iter()) {
                if !self.unify(a, v, bnd)? {
                    bnd.truncate(mark);
                    continue 'entry;
                }
            }
            self.step_value(steps, i, cur, m, tuple, selector, bnd, k)?;
            bnd.truncate(mark);
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn step_value<'q>(
        &self,
        steps: &'q [Step],
        i: usize,
        cur: Oid,
        m: Oid,
        argv: &[Oid],
        selector: Option<&'q IdTerm>,
        bnd: &mut Bindings<'q>,
        k: PathK<'_, 'q>,
    ) -> XsqlResult<()> {
        let val = self.db.value_at_depth(cur, m, argv, self.depth)?;
        let Some(val) = val else { return Ok(()) };
        self.each_member(&val, steps, i, selector, bnd, k)
    }

    fn each_member<'q>(
        &self,
        val: &Val,
        steps: &'q [Step],
        i: usize,
        selector: Option<&'q IdTerm>,
        bnd: &mut Bindings<'q>,
        k: PathK<'_, 'q>,
    ) -> XsqlResult<()> {
        let mark = bnd.mark();
        for member in val.members() {
            self.tick()?;
            match selector {
                None => {
                    self.walk_steps(steps, i + 1, member, bnd, k)?;
                    bnd.truncate(mark);
                }
                Some(t) => {
                    if self.unify(t, member, bnd)? {
                        self.walk_steps(steps, i + 1, member, bnd, k)?;
                        bnd.truncate(mark);
                    }
                }
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn walk_path_var<'q>(
        &self,
        steps: &'q [Step],
        i: usize,
        cur: Oid,
        depth: usize,
        selector: Option<&'q IdTerm>,
        bnd: &mut Bindings<'q>,
        k: PathK<'_, 'q>,
    ) -> XsqlResult<()> {
        self.tick()?;
        let _depth = self.enter_path()?;
        // Endpoint option: the sequence so far (possibly empty).
        let mark = bnd.mark();
        match selector {
            None => {
                self.walk_steps(steps, i + 1, cur, bnd, k)?;
                bnd.truncate(mark);
            }
            Some(t) => {
                if self.unify(t, cur, bnd)? {
                    self.walk_steps(steps, i + 1, cur, bnd, k)?;
                    bnd.truncate(mark);
                }
            }
        }
        if depth >= self.opts.path_var_limit {
            return Ok(());
        }
        // Extend by one more 0-ary attribute hop.
        for m in self.db.methods_defined_on(cur, 0) {
            if let Some(val) = self.db.value_at_depth(cur, m, &[], self.depth)? {
                for member in val.members() {
                    self.walk_path_var(steps, i, member, depth + 1, selector, bnd, k)?;
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Strict mode: the value of a ground path expression
    // ------------------------------------------------------------------

    /// The value of a path expression under `bnd` — the set of tails of
    /// satisfying database paths (§3.2). All variables must be bound.
    pub fn path_value(&self, p: &PathExpr, bnd: &Bindings<'_>) -> XsqlResult<BTreeSet<Oid>> {
        let mut out = BTreeSet::new();
        let head = match self.eval_idterm(&p.head, bnd)? {
            Some(o) => o,
            None => return Ok(out),
        };
        self.value_steps(&p.steps, 0, head, bnd, &mut out)?;
        Ok(out)
    }

    fn value_steps(
        &self,
        steps: &[Step],
        i: usize,
        cur: Oid,
        bnd: &Bindings<'_>,
        out: &mut BTreeSet<Oid>,
    ) -> XsqlResult<()> {
        self.tick()?;
        if i == steps.len() {
            out.insert(cur);
            return Ok(());
        }
        let _depth = self.enter_path()?;
        match &steps[i] {
            Step::Method {
                method,
                args,
                selector,
            } => {
                let ms: Vec<Oid> = match method {
                    MethodTerm::Name(n) => self.db.oids().find_sym(n).into_iter().collect(),
                    MethodTerm::Var(name) => vec![bnd
                        .get(name)
                        .ok_or_else(|| XsqlError::Unbound(name.clone()))?],
                };
                for m in ms {
                    let mut argv = Vec::with_capacity(args.len());
                    let mut ok = true;
                    for a in args {
                        match self.eval_idterm(a, bnd)? {
                            Some(o) => argv.push(o),
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if !ok {
                        continue;
                    }
                    if let Some(val) = self.db.value_at_depth(cur, m, &argv, self.depth)? {
                        for member in val.members() {
                            if let Some(t) = selector {
                                let sel = self.eval_idterm(t, bnd)?;
                                match sel {
                                    Some(s) if self.oid_eq(s, member) => {}
                                    _ => continue,
                                }
                            }
                            self.value_steps(steps, i + 1, member, bnd, out)?;
                        }
                    }
                }
                Ok(())
            }
            Step::PathVar { selector, .. } => {
                self.value_path_var(steps, i, cur, 0, selector.as_ref(), bnd, out)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn value_path_var(
        &self,
        steps: &[Step],
        i: usize,
        cur: Oid,
        depth: usize,
        selector: Option<&IdTerm>,
        bnd: &Bindings<'_>,
        out: &mut BTreeSet<Oid>,
    ) -> XsqlResult<()> {
        self.tick()?;
        let _depth = self.enter_path()?;
        let sel_ok = match selector {
            None => true,
            Some(t) => matches!(self.eval_idterm(t, bnd)?, Some(s) if self.oid_eq(s, cur)),
        };
        if sel_ok {
            self.value_steps(steps, i + 1, cur, bnd, out)?;
        }
        if depth >= self.opts.path_var_limit {
            return Ok(());
        }
        for m in self.db.methods_defined_on(cur, 0) {
            if let Some(val) = self.db.value_at_depth(cur, m, &[], self.depth)? {
                for member in val.members() {
                    self.value_path_var(steps, i, member, depth + 1, selector, bnd, out)?;
                }
            }
        }
        Ok(())
    }
}

/// True when every variable in the term is bound (so `eval_idterm`
/// cannot fail with `Unbound`).
pub fn term_bound(t: &IdTerm, bnd: &Bindings<'_>) -> bool {
    match t {
        IdTerm::Var(v) => bnd.is_bound(&v.name),
        IdTerm::Func(_, args) => args.iter().all(|a| term_bound(a, bnd)),
        IdTerm::PathArg(p) => path_bound(p, bnd),
        _ => true,
    }
}

/// True when every variable in the path is bound.
pub fn path_bound(p: &PathExpr, bnd: &Bindings<'_>) -> bool {
    let mut vars = BTreeSet::new();
    super::vars::path_vars(p, &mut vars);
    vars.iter().all(|v| bnd.is_bound(v))
}
