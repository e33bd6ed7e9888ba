//! WHERE-clause evaluation: greedy nested-loop scheduling of conjuncts.
//!
//! The paper (§6.2) observes that queries are evaluated by nested loops:
//! "each path expression is evaluated by a sequence of nested loops …
//! and different path expressions are evaluated one-by-one". The
//! scheduler here picks, at each point, either a *filter* (a conjunct
//! whose variables are all bound — evaluated as a Boolean) or the
//! cheapest *generator* (a conjunct that can bind new variables by
//! traversal). A variable no conjunct can generate falls back to active-
//! domain enumeration, which preserves the naive §3.4 semantics exactly
//! (differentially tested against the naive engine).

use super::bindings::Bindings;
use super::path::{path_bound, term_bound};
use super::vars;
use super::Ctx;
use crate::ast::*;
use crate::error::{XsqlError, XsqlResult};
use oodb::{Extent, Oid};
use std::collections::{BTreeMap, BTreeSet};

/// Continuation receiving each satisfying binding.
pub type SolveK<'a, 'q> = &'a mut dyn FnMut(&mut Bindings<'q>) -> XsqlResult<()>;

/// Flattens a conjunction into a list of conjuncts.
pub fn flatten_and<'q>(c: &'q Cond, out: &mut Vec<&'q Cond>) {
    match c {
        Cond::True => {}
        Cond::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other),
    }
}

/// The variables that must be bound before conjunct `c` can be evaluated
/// as a filter: its direct variables plus, for nested subqueries, the
/// variables shared with the rest of the statement (`outer_vars`) —
/// those are correlated; purely subquery-local variables are solved by
/// the nested evaluation itself.
pub fn conjunct_vars<'q>(c: &'q Cond, outer_vars: &BTreeSet<&'q str>) -> BTreeSet<&'q str> {
    let mut out = BTreeSet::new();
    vars::cond_vars(c, &mut out);
    let mut subs = BTreeSet::new();
    collect_cond_subquery_vars(c, &mut subs);
    for v in subs {
        if outer_vars.contains(v) {
            out.insert(v);
        }
    }
    out
}

fn collect_cond_subquery_vars<'q>(c: &'q Cond, out: &mut BTreeSet<&'q str>) {
    match c {
        Cond::Cmp { left, right, .. } | Cond::SetCmp { left, right, .. } => {
            vars::subquery_vars(left, out);
            vars::subquery_vars(right, out);
        }
        Cond::And(a, b) | Cond::Or(a, b) => {
            collect_cond_subquery_vars(a, out);
            collect_cond_subquery_vars(b, out);
        }
        Cond::Not(a) => collect_cond_subquery_vars(a, out),
        Cond::Update(u) => {
            for a in &u.assignments {
                vars::subquery_vars(&a.value, out);
            }
        }
        _ => {}
    }
}

enum Generator<'q> {
    /// A stand-alone path expression: traversal binds its variables.
    Path(&'q PathExpr),
    /// A comparison whose `quant`-`some` side is a path with unbound
    /// variables; traversal of that path binds them, the comparison then
    /// filters (sound only for existential quantification — with `all`,
    /// bindings yielding an *empty* path value satisfy the comparison
    /// vacuously and must come from domain enumeration instead).
    CmpPath(&'q PathExpr),
    /// `FROM C X`-shaped membership: enumerate the extent.
    InstanceOf(&'q IdTerm, &'q IdTerm),
    /// Schema predicate with variable sides: enumerate classes.
    SubclassOf(&'q IdTerm, &'q IdTerm),
    /// Disjunction: solve each branch.
    Or(&'q Cond, &'q Cond),
}

impl<'d> Ctx<'d> {
    /// Enumerates all bindings satisfying the conjunct list, extending
    /// `bnd`; invokes `k` per solution. `sorts` gives each variable's
    /// sort (for fallback domain enumeration); `outer_vars` the
    /// variables of the enclosing statement (for subquery correlation).
    pub fn solve_conjuncts<'q>(
        &self,
        conjs: &[&'q Cond],
        sorts: &BTreeMap<&'q str, VarSort>,
        outer_vars: &BTreeSet<&'q str>,
        bnd: &mut Bindings<'q>,
        k: SolveK<'_, 'q>,
    ) -> XsqlResult<()> {
        self.tick()?;
        if conjs.is_empty() {
            return k(bnd);
        }
        // 1. Any conjunct whose variables are all bound acts as a filter
        //    immediately (cheap pruning).
        for (i, c) in conjs.iter().enumerate() {
            let needs = conjunct_vars(c, outer_vars);
            if needs.iter().all(|v| bnd.is_bound(v)) {
                if !self.holds(c, bnd)? {
                    return Ok(());
                }
                let rest: Vec<&'q Cond> = conjs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, c)| *c)
                    .collect();
                return self.solve_conjuncts(&rest, sorts, outer_vars, bnd, k);
            }
        }
        // 2. Pick the cheapest generator.
        let mut best: Option<(usize, u64, Generator<'q>)> = None;
        for (i, c) in conjs.iter().enumerate() {
            if let Some((score, g)) = self.generator_for(c, bnd, outer_vars) {
                if best.as_ref().is_none_or(|(_, s, _)| score < *s) {
                    best = Some((i, score, g));
                }
            }
        }
        if let Some((i, _, g)) = best {
            let rest: Vec<&'q Cond> = conjs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, c)| *c)
                .collect();
            return self.run_generator(g, conjs[i], &rest, sorts, outer_vars, bnd, k);
        }
        // 3. Fallback: enumerate the domain of some unbound variable.
        let mut unbound: Option<&'q str> = None;
        for c in conjs {
            for v in conjunct_vars(c, outer_vars) {
                if !bnd.is_bound(v) {
                    unbound = Some(v);
                    break;
                }
            }
            if unbound.is_some() {
                break;
            }
        }
        let Some(v) = unbound else {
            // All variables bound yet the all-bound filter pass (step 1)
            // did not fire. This would be a scheduler bug; report it as
            // an error rather than poisoning the process.
            return Err(XsqlError::Internal(
                "conjunct scheduler found no generator, no filter, and no \
                 unbound variable"
                    .into(),
            ));
        };
        let sort = sorts.get(v).copied().unwrap_or(VarSort::Individual);
        let mark = bnd.mark();
        for o in self.var_domain(v, sort) {
            self.tick()?;
            bnd.push(v, o);
            self.solve_conjuncts(conjs, sorts, outer_vars, bnd, k)?;
            bnd.truncate(mark);
        }
        Ok(())
    }

    /// Classifies a conjunct as a generator and estimates its fan-out.
    fn generator_for<'q>(
        &self,
        c: &'q Cond,
        bnd: &Bindings<'q>,
        outer_vars: &BTreeSet<&'q str>,
    ) -> Option<(u64, Generator<'q>)> {
        match c {
            Cond::Path(p) => {
                let head_bound = term_bound(&p.head, bnd);
                let score = if head_bound {
                    8
                } else {
                    self.head_domain_size(&p.head)
                };
                Some((score, Generator::Path(p)))
            }
            Cond::InstanceOf { obj, class } => {
                let score = match self.try_eval(class, bnd) {
                    Some(cl) => self.db.instances_of(cl).len() as u64,
                    None => (self.db.classes().count() as u64) * 64,
                };
                Some((score.max(1), Generator::InstanceOf(obj, class)))
            }
            Cond::SubclassOf { sub, sup } => {
                let n = self.db.classes().count() as u64;
                Some((n.max(1), Generator::SubclassOf(sub, sup)))
            }
            Cond::Or(a, b) => Some((64, Generator::Or(a, b))),
            Cond::Cmp {
                left,
                lq,
                rq,
                right,
                ..
            } => {
                // Existentially-quantified path side with unbound vars,
                // other side fully bound → generate from the path.
                let try_side = |side: &'q Operand,
                                q: Option<Quant>,
                                other: &'q Operand|
                 -> Option<Generator<'q>> {
                    let Operand::Path(p) = side else { return None };
                    if q == Some(Quant::All) {
                        return None;
                    }
                    if path_bound(p, bnd) {
                        return None;
                    }
                    let mut ov = BTreeSet::new();
                    vars::operand_vars(other, &mut ov);
                    let mut sv = BTreeSet::new();
                    vars::subquery_vars(other, &mut sv);
                    for v in sv {
                        if outer_vars.contains(v) {
                            ov.insert(v);
                        }
                    }
                    if ov.iter().all(|v| bnd.is_bound(v)) {
                        Some(Generator::CmpPath(p))
                    } else {
                        None
                    }
                };
                let g = try_side(right, *rq, left).or_else(|| try_side(left, *lq, right))?;
                let score = match &g {
                    Generator::CmpPath(p) if term_bound(&p.head, bnd) => 16,
                    Generator::CmpPath(p) => self.head_domain_size(&p.head) + 8,
                    // try_side only ever builds CmpPath generators.
                    _ => u64::MAX,
                };
                Some((score, g))
            }
            _ => None,
        }
    }

    fn head_domain_size(&self, head: &IdTerm) -> u64 {
        match head {
            IdTerm::Var(v) => match v.sort {
                VarSort::Individual => self.db.individual_count() as u64,
                VarSort::Class => self.db.classes().count() as u64,
                VarSort::Method => self.db.method_objects().count() as u64,
            },
            _ => self.db.individual_count() as u64,
        }
    }

    fn try_eval(&self, t: &IdTerm, bnd: &Bindings<'_>) -> Option<Oid> {
        if term_bound(t, bnd) {
            self.eval_idterm(t, bnd).ok().flatten()
        } else {
            None
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_generator<'q>(
        &self,
        g: Generator<'q>,
        this: &'q Cond,
        rest: &[&'q Cond],
        sorts: &BTreeMap<&'q str, VarSort>,
        outer_vars: &BTreeSet<&'q str>,
        bnd: &mut Bindings<'q>,
        k: SolveK<'_, 'q>,
    ) -> XsqlResult<()> {
        match g {
            Generator::Path(p) => {
                let (names, tuples) = self.distinct_extensions(p, bnd)?;
                let mark = bnd.mark();
                for tup in &tuples {
                    for (n, &o) in names.iter().zip(tup.iter()) {
                        bnd.push(n, o);
                    }
                    self.solve_conjuncts(rest, sorts, outer_vars, bnd, k)?;
                    bnd.truncate(mark);
                }
                Ok(())
            }
            Generator::CmpPath(p) => {
                let (names, tuples) = self.distinct_extensions(p, bnd)?;
                let mark = bnd.mark();
                for tup in &tuples {
                    for (n, &o) in names.iter().zip(tup.iter()) {
                        bnd.push(n, o);
                    }
                    // The comparison itself still filters under the new
                    // bindings.
                    if self.holds(this, bnd)? {
                        self.solve_conjuncts(rest, sorts, outer_vars, bnd, k)?;
                    }
                    bnd.truncate(mark);
                }
                Ok(())
            }
            Generator::InstanceOf(obj, class) => {
                let mark = bnd.mark();
                match self.try_eval(class, bnd) {
                    Some(cl) => {
                        for o in self.instance_candidates(obj, cl, bnd) {
                            self.tick()?;
                            if self.unify(obj, o, bnd)? {
                                self.solve_conjuncts(rest, sorts, outer_vars, bnd, k)?;
                                bnd.truncate(mark);
                            }
                        }
                        Ok(())
                    }
                    None => {
                        // Class side is a variable: enumerate classes
                        // (the §3.1 query template `FROM #X Y`).
                        let classes: Vec<Oid> = self.db.classes().collect();
                        for cl in classes {
                            self.tick()?;
                            if self.unify(class, cl, bnd)? {
                                for o in self.instance_candidates(obj, cl, bnd) {
                                    self.tick()?;
                                    let m2 = bnd.mark();
                                    if self.unify(obj, o, bnd)? {
                                        self.solve_conjuncts(rest, sorts, outer_vars, bnd, k)?;
                                        bnd.truncate(m2);
                                    }
                                }
                                bnd.truncate(mark);
                            }
                        }
                        Ok(())
                    }
                }
            }
            Generator::SubclassOf(sub, sup) => {
                let classes: Vec<Oid> = self.db.classes().collect();
                let mark = bnd.mark();
                let sub_one;
                let subs: &[Oid] = match self.try_eval(sub, bnd) {
                    Some(c) => {
                        sub_one = [c];
                        &sub_one
                    }
                    None => &classes,
                };
                for &s in subs {
                    if !self.unify(sub, s, bnd)? {
                        continue;
                    }
                    let sup_one;
                    let sups: &[Oid] = match self.try_eval(sup, bnd) {
                        Some(c) => {
                            sup_one = [c];
                            &sup_one
                        }
                        None => &classes,
                    };
                    let m2 = bnd.mark();
                    for &t in sups {
                        self.tick()?;
                        if self.unify(sup, t, bnd)? {
                            if self.db.is_strict_subclass(s, t) {
                                self.solve_conjuncts(rest, sorts, outer_vars, bnd, k)?;
                            }
                            bnd.truncate(m2);
                        }
                    }
                    bnd.truncate(mark);
                }
                Ok(())
            }
            Generator::Or(a, b) => {
                // Solutions of a disjunction: union of the branches.
                // A binding satisfying both branches is emitted twice;
                // results are sets, so this is sound (and the grouped
                // `{W}` accumulator is a set as well).
                for branch in [a, b] {
                    let mut list: Vec<&'q Cond> = Vec::new();
                    flatten_and(branch, &mut list);
                    list.extend_from_slice(rest);
                    self.solve_conjuncts(&list, sorts, outer_vars, bnd, k)?;
                }
                Ok(())
            }
        }
    }

    fn instance_candidates(&self, obj: &IdTerm, class: Oid, bnd: &Bindings<'_>) -> Extent<'d> {
        // If the object side is already determined, test just it.
        if let Some(o) = self.try_eval(obj, bnd) {
            let hit = self.db.is_instance_of(o, class);
            return Extent::from_sorted(if hit { vec![o] } else { Vec::new() });
        }
        // Narrow by Theorem 6.1 range if the variable has one.
        if let IdTerm::Var(v) = obj {
            if let Some(rs) = self.ranges {
                if let Some(set) = rs.get(&v.name) {
                    return Extent::from_sorted(
                        set.iter()
                            .copied()
                            .filter(|&o| self.db.is_instance_of(o, class))
                            .collect(),
                    );
                }
            }
        }
        self.db.instances_of(class)
    }

    /// Enumerates the distinct extensions of `bnd` that satisfy path
    /// `p`: returns the unbound variable names and the set of value
    /// tuples (deduplicated — many database paths can induce the same
    /// bindings).
    pub fn distinct_extensions<'q>(
        &self,
        p: &'q PathExpr,
        bnd: &mut Bindings<'q>,
    ) -> XsqlResult<(Vec<&'q str>, BTreeSet<Vec<Oid>>)> {
        let mut pv = BTreeSet::new();
        vars::path_vars(p, &mut pv);
        let names: Vec<&'q str> = pv.into_iter().filter(|v| !bnd.is_bound(v)).collect();
        let mut tuples = BTreeSet::new();
        {
            let names_ref = &names;
            let tuples_ref = &mut tuples;
            self.walk_path(p, bnd, &mut |_tail, bnd2| {
                let mut tup: Vec<Oid> = Vec::with_capacity(names_ref.len());
                for n in names_ref.iter() {
                    match bnd2.get(n) {
                        Some(o) => tup.push(o),
                        None => {
                            return Err(XsqlError::Internal(format!(
                                "path walker reached a solution without binding `{n}`"
                            )))
                        }
                    }
                }
                if tuples_ref.insert(tup) {
                    self.count_tuples(1)?;
                }
                Ok(())
            })?;
        }
        Ok((names, tuples))
    }

    /// Boolean evaluation of a fully-bound condition.
    pub fn holds<'q>(&self, c: &'q Cond, bnd: &Bindings<'q>) -> XsqlResult<bool> {
        self.tick()?;
        match c {
            Cond::True => Ok(true),
            Cond::Path(p) => Ok(!self.path_value(p, bnd)?.is_empty()),
            Cond::Cmp {
                left,
                lq,
                op,
                rq,
                right,
            } => {
                let l = self.operand_value(left, bnd)?;
                let r = self.operand_value(right, bnd)?;
                Ok(self.compare(&l, *lq, *op, *rq, &r))
            }
            Cond::SetCmp { left, op, right } => {
                let l = self.operand_value(left, bnd)?;
                let r = self.operand_value(right, bnd)?;
                Ok(self.set_compare(&l, *op, &r))
            }
            Cond::SubclassOf { sub, sup } => {
                let (Some(s), Some(t)) = (self.eval_idterm(sub, bnd)?, self.eval_idterm(sup, bnd)?)
                else {
                    return Ok(false);
                };
                Ok(self.db.is_strict_subclass(s, t))
            }
            Cond::InstanceOf { obj, class } => {
                let (Some(o), Some(cl)) =
                    (self.eval_idterm(obj, bnd)?, self.eval_idterm(class, bnd)?)
                else {
                    return Ok(false);
                };
                Ok(self.db.is_instance_of(o, cl))
            }
            Cond::And(a, b) => Ok(self.holds(a, bnd)? && self.holds(b, bnd)?),
            Cond::Or(a, b) => Ok(self.holds(a, bnd)? || self.holds(b, bnd)?),
            Cond::Not(a) => Ok(!self.holds(a, bnd)?),
            Cond::Update(_) => Err(XsqlError::Resolve(
                "UPDATE conjuncts are only allowed inside update-method bodies".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::resolve::resolve_stmt;
    use oodb::Database;

    fn where_clause(db: &mut Database, src: &str) -> Cond {
        let stmt = parse(src).unwrap();
        match resolve_stmt(db, &stmt).unwrap() {
            crate::ast::Stmt::Select(q) => q.where_clause,
            _ => unreachable!(),
        }
    }

    #[test]
    fn flatten_and_splits_conjunctions_only() {
        let mut db = Database::new();
        db.define_class("C", &[]).unwrap();
        let c = where_clause(
            &mut db,
            "SELECT X FROM C X WHERE X.A and (X.B or X.D) and not X.E",
        );
        let mut out = Vec::new();
        flatten_and(&c, &mut out);
        assert_eq!(out.len(), 3);
        assert!(matches!(out[0], Cond::Path(_)));
        assert!(matches!(out[1], Cond::Or(..)));
        assert!(matches!(out[2], Cond::Not(_)));
    }

    #[test]
    fn conjunct_vars_includes_correlated_subquery_vars_only() {
        let mut db = Database::new();
        db.define_class("C", &[]).unwrap();
        let c = where_clause(
            &mut db,
            "SELECT X FROM C X WHERE 5 <all (SELECT W FROM C Y WHERE X.A[Y].B[W])",
        );
        let mut out = Vec::new();
        flatten_and(&c, &mut out);
        // Outer vars: X (FROM). The subquery's W and Y are local; X is
        // correlated and must gate the conjunct.
        let outer: BTreeSet<&str> = ["X"].into_iter().collect();
        let needs = conjunct_vars(out[0], &outer);
        assert!(needs.contains("X"));
        assert!(!needs.contains("W"));
        assert!(!needs.contains("Y"));
    }
}
