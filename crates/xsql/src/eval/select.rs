//! SELECT-query evaluation to relations (§3.3–3.4).

use super::bindings::Bindings;
use super::cond::flatten_and;
use super::value::Cell;
use super::vars;
use super::Ctx;
use crate::ast::*;
use crate::error::{XsqlError, XsqlResult};
use oodb::{Oid, OidTable};
use relalg::Relation;
use std::collections::{BTreeMap, BTreeSet};

/// Evaluates a resolved, non-creating SELECT query to column names plus
/// a set of rows (duplicates eliminated, §4 intro).
pub fn eval_rows(ctx: &Ctx<'_>, q: &SelectQuery) -> XsqlResult<(Vec<String>, BTreeSet<Vec<Cell>>)> {
    let empty = Bindings::new();
    eval_rows_under(ctx, q, &empty)
}

/// As [`eval_rows`], with outer bindings in effect (correlated
/// subqueries, §5 query (13)).
pub fn eval_rows_under<'q>(
    ctx: &Ctx<'_>,
    q: &'q SelectQuery,
    outer: &Bindings<'q>,
) -> XsqlResult<(Vec<String>, BTreeSet<Vec<Cell>>)> {
    let (columns, rows) = select_rows_under(ctx, q, outer)?;
    Ok((columns, rows.into_cells()))
}

/// The result rows of one SELECT, in whichever form the engine produced
/// them.
pub(crate) enum SelectRows {
    /// Distinct bare-OID rows in join order — the planner's exit when
    /// every SELECT item is a bare FROM variable and the items cover
    /// every FROM variable: nothing to intern, nothing to dedup.
    Atoms(Vec<Vec<Oid>>),
    /// General emission: deduped, sorted cell rows.
    Cells(BTreeSet<Vec<Cell>>),
}

impl SelectRows {
    fn len(&self) -> usize {
        match self {
            SelectRows::Atoms(rows) => rows.len(),
            SelectRows::Cells(rows) => rows.len(),
        }
    }

    fn into_cells(self) -> BTreeSet<Vec<Cell>> {
        match self {
            SelectRows::Atoms(rows) => rows
                .into_iter()
                .map(|row| row.into_iter().map(Cell::Obj).collect())
                .collect(),
            SelectRows::Cells(rows) => rows,
        }
    }

    /// Interns computed numerals and builds the relation in one bulk
    /// pass.
    pub(crate) fn into_relation(self, columns: Vec<String>, oids: &mut OidTable) -> Relation {
        match self {
            SelectRows::Atoms(rows) => Relation::from_tuples(columns, rows),
            SelectRows::Cells(rows) => Relation::from_tuples(
                columns,
                rows.into_iter()
                    .map(|row| row.into_iter().map(|c| c.into_oid(oids)).collect()),
            ),
        }
    }
}

/// As [`eval_rows`], keeping the planner's bare-OID rows as they are.
pub(crate) fn select_rows(ctx: &Ctx<'_>, q: &SelectQuery) -> XsqlResult<(Vec<String>, SelectRows)> {
    select_rows_under(ctx, q, &Bindings::new())
}

fn select_rows_under<'q>(
    ctx: &Ctx<'_>,
    q: &'q SelectQuery,
    outer: &Bindings<'q>,
) -> XsqlResult<(Vec<String>, SelectRows)> {
    if q.oid_fn.is_some() {
        return Err(XsqlError::Resolve(
            "object-creating queries (OID FUNCTION OF) must be run through a Session".into(),
        ));
    }
    for item in &q.select {
        match item {
            SelectItem::MethodResult { .. } => {
                return Err(XsqlError::Resolve(
                    "method-result SELECT items are only valid in ALTER CLASS".into(),
                ))
            }
            SelectItem::Named {
                value: SelectValue::Grouped(_),
                ..
            } => {
                return Err(XsqlError::Resolve(
                    "grouped `{X}` SELECT items require an OID FUNCTION OF clause".into(),
                ))
            }
            _ => {}
        }
    }
    let columns = column_names(&q.select);
    let prep = prepare(q);
    // Profile recording applies to the top-level statement only:
    // correlated subqueries and method bodies re-enter here with outer
    // bindings or at depth, and must not overwrite its record.
    let profile = ctx
        .opts
        .profile
        .as_ref()
        .filter(|_| outer.is_empty() && ctx.depth == 0);
    if let Some(p) = profile {
        let label = match (ctx.opts.strategy, ctx.ranges.is_some()) {
            (super::Strategy::Naive, _) => "naive",
            (super::Strategy::Pipelined, true) => "pipelined+theorem-6.1-ranges",
            (super::Strategy::Pipelined, false) => "pipelined",
        };
        p.record_strategy(label, ctx.opts.parallelism);
    }
    let rows = match ctx.opts.strategy {
        super::Strategy::Pipelined => {
            if let Some(planned) = crate::plan::solve_query_planned(ctx, q, &prep, outer)? {
                planned
            } else if let Some(merged) =
                super::parallel::solve_query_parallel(ctx, q, &prep, outer)?
            {
                SelectRows::Cells(merged)
            } else {
                let mut rows = BTreeSet::new();
                solve_query(ctx, q, &prep, outer, &mut |ctx2, bnd| {
                    if let Some(p) = profile {
                        p.count_solution();
                    }
                    emit_rows(ctx2, &q.select, bnd, &mut rows)
                })?;
                SelectRows::Cells(rows)
            }
        }
        super::Strategy::Naive => {
            let mut rows = BTreeSet::new();
            solve_query_naive(ctx, q, &prep, outer, &mut |ctx2, bnd| {
                if let Some(p) = profile {
                    p.count_solution();
                }
                emit_rows(ctx2, &q.select, bnd, &mut rows)
            })?;
            SelectRows::Cells(rows)
        }
    };
    if let Some(p) = profile {
        p.record_totals(
            ctx.work_done(),
            ctx.counters
                .tuples
                .load(std::sync::atomic::Ordering::Relaxed),
            rows.len(),
        );
    }
    Ok((columns, rows))
}

/// Owned storage for the conjuncts synthesized from a query: the FROM
/// items (as InstanceOf conditions) and trivial paths enumerating
/// variables that occur only in the SELECT list. Conjunct references
/// borrow from this structure, so it must outlive the solve.
#[derive(Debug)]
pub struct Prepared {
    pub(crate) from_conds: Vec<Cond>,
    pub(crate) select_only: Vec<Cond>,
}

/// Builds the synthesized conjuncts for a query.
pub fn prepare(q: &SelectQuery) -> Prepared {
    let from_conds: Vec<Cond> = q
        .from
        .iter()
        .map(|f| Cond::InstanceOf {
            obj: IdTerm::Var(f.var.clone()),
            class: f.class.clone(),
        })
        .collect();
    // Variables that appear only in the SELECT list still need
    // enumeration (naive semantics); add pseudo-conjuncts for them.
    let mut sorts = BTreeMap::new();
    vars::var_sorts(q, &mut sorts);
    let mut sv = BTreeSet::new();
    for item in &q.select {
        match item {
            SelectItem::Expr(op) => vars::operand_vars(op, &mut sv),
            SelectItem::Named { value, .. } => match value {
                SelectValue::Expr(op) => vars::operand_vars(op, &mut sv),
                SelectValue::Grouped(v) => {
                    sv.insert(v.name.as_str());
                }
            },
            SelectItem::MethodResult { args, value, .. } => {
                for a in args {
                    vars::idterm_vars(a, &mut sv);
                }
                vars::operand_vars(value, &mut sv);
            }
        }
    }
    let mut known = BTreeSet::new();
    cond_list_vars(&q.where_clause, &from_conds, &mut known);
    let select_only: Vec<Cond> = sv
        .iter()
        .filter(|v| !known.contains(*v))
        .map(|v| {
            Cond::Path(PathExpr::atom(IdTerm::Var(Var {
                name: v.to_string(),
                sort: sorts.get(v).copied().unwrap_or(VarSort::Individual),
            })))
        })
        .collect();
    Prepared {
        from_conds,
        select_only,
    }
}

fn cond_list_vars<'q>(where_clause: &'q Cond, from_conds: &'q [Cond], out: &mut BTreeSet<&'q str>) {
    vars::cond_vars(where_clause, out);
    for c in from_conds {
        vars::cond_vars(c, out);
    }
}

/// Enumerates the satisfying bindings of a query's FROM+WHERE under the
/// pipelined strategy, invoking the continuation per solution.
pub fn solve_query<'q>(
    ctx: &Ctx<'_>,
    q: &'q SelectQuery,
    prep: &'q Prepared,
    outer: &Bindings<'q>,
    k: &mut dyn FnMut(&Ctx<'_>, &mut Bindings<'q>) -> XsqlResult<()>,
) -> XsqlResult<()> {
    let conjs = assemble_conjuncts(q, prep, outer);

    let mut outer_vars = BTreeSet::new();
    vars::query_vars(q, &mut outer_vars);
    let mut sorts = BTreeMap::new();
    vars::var_sorts(q, &mut sorts);

    let mut bnd: Bindings<'q> = outer.clone();
    ctx.solve_conjuncts(&conjs, &sorts, &outer_vars, &mut bnd, &mut |bnd2| {
        k(ctx, bnd2)
    })
}

/// The conjunct list the pipelined scheduler solves: the synthesized
/// FROM conditions, the flattened WHERE clause, and the SELECT-only
/// enumeration pseudo-conjuncts (minus any made redundant by outer
/// bindings). Shared by the sequential and the parallel drivers so both
/// solve the same problem.
pub(crate) fn assemble_conjuncts<'q>(
    q: &'q SelectQuery,
    prep: &'q Prepared,
    outer: &Bindings<'q>,
) -> Vec<&'q Cond> {
    let mut conjs: Vec<&'q Cond> = prep.from_conds.iter().collect();
    flatten_and(&q.where_clause, &mut conjs);
    conjs.extend(prep.select_only.iter().filter(|c| match c {
        Cond::Path(p) => match &p.head {
            IdTerm::Var(v) => !outer.is_bound(&v.name),
            _ => true,
        },
        _ => true,
    }));
    conjs
}

/// The §3.4 naive specification engine: enumerate all substitutions of
/// OIDs (per sort) for all variables, filter by FROM and WHERE.
pub fn solve_query_naive<'q>(
    ctx: &Ctx<'_>,
    q: &'q SelectQuery,
    prep: &'q Prepared,
    outer: &Bindings<'q>,
    k: &mut dyn FnMut(&Ctx<'_>, &mut Bindings<'q>) -> XsqlResult<()>,
) -> XsqlResult<()> {
    let mut conjs: Vec<&'q Cond> = prep.from_conds.iter().collect();
    flatten_and(&q.where_clause, &mut conjs);

    let mut all_vars = BTreeSet::new();
    vars::query_vars(q, &mut all_vars);
    let mut sorts = BTreeMap::new();
    vars::var_sorts(q, &mut sorts);
    let todo: Vec<&str> = all_vars
        .iter()
        .copied()
        .filter(|v| !outer.is_bound(v))
        .collect();

    let mut bnd: Bindings<'_> = outer.clone();
    enumerate_all(ctx, &todo, 0, &sorts, &conjs, &mut bnd, k)
}

fn enumerate_all<'q>(
    ctx: &Ctx<'_>,
    todo: &[&'q str],
    i: usize,
    sorts: &BTreeMap<&'q str, VarSort>,
    conjs: &[&'q Cond],
    bnd: &mut Bindings<'q>,
    k: &mut dyn FnMut(&Ctx<'_>, &mut Bindings<'q>) -> XsqlResult<()>,
) -> XsqlResult<()> {
    if i == todo.len() {
        for c in conjs {
            if !ctx.holds(c, bnd)? {
                return Ok(());
            }
        }
        return k(ctx, bnd);
    }
    let v = todo[i];
    let sort = sorts.get(v).copied().unwrap_or(VarSort::Individual);
    let mark = bnd.mark();
    for o in ctx.var_domain(v, sort) {
        ctx.tick()?;
        bnd.push(v, o);
        enumerate_all(ctx, todo, i + 1, sorts, conjs, bnd, k)?;
        bnd.truncate(mark);
    }
    Ok(())
}

/// Evaluates the SELECT list under one satisfying binding and inserts
/// the resulting row(s). A set-valued item is unnested — one row per
/// member, the path-expression philosophy of §3.1 applied to output.
pub(crate) fn emit_rows<'q>(
    ctx: &Ctx<'_>,
    select: &'q [SelectItem],
    bnd: &Bindings<'q>,
    rows: &mut BTreeSet<Vec<Cell>>,
) -> XsqlResult<()> {
    let mut per_item: Vec<Vec<Cell>> = Vec::with_capacity(select.len());
    for item in select {
        let op = match item {
            SelectItem::Expr(op) => op,
            SelectItem::Named {
                value: SelectValue::Expr(op),
                ..
            } => op,
            other => {
                return Err(XsqlError::Internal(format!(
                    "emit_rows reached an unrewritten select item {other:?} \
                     (eval_rows_under rewrites these)"
                )))
            }
        };
        let elems = ctx.operand_value(op, bnd)?;
        if elems.is_empty() {
            // Undefined output expression: no tuple for this binding
            // (the same convention as a failing path).
            return Ok(());
        }
        ctx.check_binding_set(elems.len())?;
        per_item.push(elems.into_iter().map(Cell::from).collect());
    }
    // Cartesian product across items (each is usually a singleton).
    let mut row = Vec::with_capacity(per_item.len());
    product(ctx, &per_item, 0, &mut row, rows)?;
    Ok(())
}

fn product(
    ctx: &Ctx<'_>,
    per_item: &[Vec<Cell>],
    i: usize,
    row: &mut Vec<Cell>,
    rows: &mut BTreeSet<Vec<Cell>>,
) -> XsqlResult<()> {
    if i == per_item.len() {
        if rows.insert(row.clone()) {
            ctx.count_tuples(1)?;
        }
        return Ok(());
    }
    for &c in &per_item[i] {
        ctx.tick()?;
        row.push(c);
        product(ctx, per_item, i + 1, row, rows)?;
        row.pop();
    }
    Ok(())
}

/// Infers output column names (§3.3 examples title columns by the
/// selected attribute).
pub fn column_names(select: &[SelectItem]) -> Vec<String> {
    select
        .iter()
        .enumerate()
        .map(|(i, item)| match item {
            SelectItem::Named { attr, .. } => attr.clone(),
            SelectItem::MethodResult { method, .. } => method.clone(),
            SelectItem::Expr(op) => operand_name(op).unwrap_or_else(|| format!("c{i}")),
        })
        .collect()
}

fn operand_name(op: &Operand) -> Option<String> {
    match op {
        Operand::Path(p) => {
            if let Some(step) = p.steps.last() {
                match step {
                    Step::Method {
                        method: MethodTerm::Name(n),
                        ..
                    } => Some(n.clone()),
                    Step::Method {
                        method: MethodTerm::Var(n),
                        ..
                    } => Some(n.clone()),
                    Step::PathVar { name, .. } => Some(name.clone()),
                }
            } else {
                match &p.head {
                    IdTerm::Var(v) => Some(v.name.clone()),
                    _ => None,
                }
            }
        }
        Operand::Agg(f, _) => Some(
            match f {
                AggFunc::Count => "count",
                AggFunc::Sum => "sum",
                AggFunc::Avg => "avg",
                AggFunc::Min => "min",
                AggFunc::Max => "max",
            }
            .to_string(),
        ),
        _ => None,
    }
}

/// Converts rows to a relation, rejecting computed numerals (those need
/// interning — use a `Session`).
pub fn eval_to_relation(ctx: &Ctx<'_>, q: &SelectQuery) -> XsqlResult<Relation> {
    let (columns, rows) = match select_rows(ctx, q)? {
        (columns, SelectRows::Atoms(rows)) => return Ok(Relation::from_tuples(columns, rows)),
        (columns, SelectRows::Cells(rows)) => (columns, rows),
    };
    let mut tuples = Vec::with_capacity(rows.len());
    for row in rows {
        let mut t = Vec::with_capacity(row.len());
        for c in row {
            match c {
                Cell::Obj(o) => t.push(o),
                Cell::Num(_) => {
                    return Err(XsqlError::Resolve(
                        "SELECT list computes new numerals; run through a Session \
                         (which can intern them)"
                            .into(),
                    ))
                }
            }
        }
        tuples.push(t);
    }
    Ok(Relation::from_tuples(columns, tuples))
}

#[cfg(test)]
mod column_tests {
    use super::*;
    use crate::parser::parse;
    use crate::resolve::resolve_stmt;
    use oodb::Database;

    fn cols(src: &str) -> Vec<String> {
        let mut db = Database::new();
        db.define_class("C", &[]).unwrap();
        let stmt = parse(src).unwrap();
        match resolve_stmt(&mut db, &stmt).unwrap() {
            crate::ast::Stmt::Select(q) => column_names(&q.select),
            _ => unreachable!(),
        }
    }

    #[test]
    fn names_follow_paper_conventions() {
        assert_eq!(cols("SELECT X FROM C X"), vec!["X"]);
        assert_eq!(
            cols("SELECT X.Name, W.Salary FROM C X"),
            vec!["Name", "Salary"]
        );
        assert_eq!(cols("SELECT count(X.A) FROM C X"), vec!["count"]);
        assert_eq!(
            cols("SELECT CompName = X.Name FROM C X OID FUNCTION OF X"),
            vec!["CompName"]
        );
        // Unnameable expressions fall back to positional names.
        assert_eq!(cols("SELECT X.A + 1 FROM C X"), vec!["c0"]);
    }
}
