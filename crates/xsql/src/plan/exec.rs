//! Plan execution: filtered scans, hash joins, theta joins, emission.
//!
//! Everything semantic is delegated to the stock evaluator — candidates
//! come from the same extents ([`oodb::Database::instances_of`] filtered
//! by `sort_ok`, exactly like the pipelined `InstanceOf` generator; a
//! variable an index probe narrowed walks the probed receivers in OID
//! order and keeps those in the extent, the same candidates in the same
//! order),
//! filters run through [`Ctx::holds`], join edges through
//! [`Ctx::compare`] / [`Ctx::set_compare`] / `elem_eq` over cached
//! per-candidate columns, and rows through `emit_rows`. This module only
//! changes the *order* of that work (set-at-a-time with hash tables and
//! cached columns instead of candidate-at-a-time with re-scans), so
//! results are bit-identical to the other engines.
//!
//! Tick discipline mirrors the pipelined engine: one tick per candidate
//! examined, per column cell cached, per hash probe hit, per theta
//! pair, per emitted cell; one tuple count per materialized join tuple
//! and per fresh result row. Join steps charge their tuple counts once
//! per driving tuple (same totals, chunk-granular limit checks, far
//! fewer atomic bumps on large joins). Work limits, tuple budgets,
//! deadlines and cancellation therefore fire on the same counters with
//! the same error types.
//!
//! Intermediate tuples live in a flat, width-strided `Vec<u32>` of
//! candidate indices (no per-tuple allocation); a join step appends one
//! column. Three specializations carry the benchmark loads:
//!
//! * **Column reads** — a bare `V.Attr` join side reads the stored
//!   state directly (symbol resolved once, borrowed value, no path
//!   walk) and falls back to the full evaluator only for inherited or
//!   computed values. The elements are identical either way, because
//!   `value_at_depth` consults explicit state first.
//! * **Raw-`f64` theta loop** — when every edge compares singleton
//!   numerals under existential quantifiers (`employee_self_join`:
//!   870×870 pairs).
//! * **Bare-variable rows** — when every SELECT item is a bare FROM
//!   variable, rows are built straight from the tuple store; when the
//!   items also cover every FROM variable the join tuples' distinctness
//!   carries over, so the rows leave as plain OIDs with no dedup set
//!   ([`SelectRows::Atoms`]).

use super::{EdgeKind, Plan, Probe, StepMethod};
use crate::ast::{
    CmpOp, IdTerm, MethodTerm, Operand, Quant, SelectItem, SelectQuery, SelectValue, Step, VarSort,
};
use crate::error::XsqlResult;
use crate::eval::bindings::Bindings;
use crate::eval::select::{emit_rows, SelectRows};
use crate::eval::value::{Cell, Elem};
use crate::eval::Ctx;
use oodb::Oid;
use std::collections::{BTreeSet, HashMap};

/// One all-`f64` theta edge, ready for the tight loop: the two cached
/// columns, the comparator, whether the new variable is the left side,
/// and the already-joined side's tuple slot.
type FastEdge<'a> = (&'a [f64], &'a [f64], CmpOp, bool, usize);

/// Hash key with exactly the equivalence of `elem_eq`: numeral elements
/// (computed numbers and numeral objects alike) collapse onto their
/// numeric value, everything else is object identity. `-0.0` is
/// normalized onto `0.0`; NaN elements are skipped by both build and
/// probe sides (`elem_eq` with NaN is always false).
#[derive(PartialEq, Eq, Hash, Clone, Copy)]
enum CanonKey {
    Num(u64),
    Obj(Oid),
}

impl CanonKey {
    fn of(ctx: &Ctx<'_>, e: Elem) -> Option<CanonKey> {
        let num = match e {
            Elem::Num(n) => Some(n),
            Elem::Obj(o) => ctx.db.oids().as_number(o),
        };
        match (num, e) {
            (Some(n), _) if n.is_nan() => None,
            (Some(n), _) => Some(CanonKey::Num((if n == 0.0 { 0.0 } else { n }).to_bits())),
            (None, Elem::Obj(o)) => Some(CanonKey::Obj(o)),
            (None, Elem::Num(_)) => unreachable!("Elem::Num always yields a number"),
        }
    }
}

/// The cached per-candidate element columns of one join edge. Indexed
/// by candidate position in the owning variable's candidate list.
struct EdgeColumns {
    a: Vec<Vec<Elem>>,
    b: Vec<Vec<Elem>>,
    /// `Some` when every element set on both sides is a singleton
    /// number and both quantifiers are existential: the edge can then
    /// be compared as raw `f64`s.
    fast: Option<(Vec<f64>, Vec<f64>)>,
}

fn f64_cmp(op: CmpOp, x: f64, y: f64) -> bool {
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

/// `V.Attr` — a bare single-attribute path over `var` with no
/// arguments and no selector — resolved to the attribute's OID: the
/// shape the stored-state column read serves.
fn bare_attr(ctx: &Ctx<'_>, op: &Operand, var: &str) -> Option<Oid> {
    let Operand::Path(p) = op else { return None };
    let IdTerm::Var(v) = &p.head else { return None };
    if v.name != var {
        return None;
    }
    let [Step::Method {
        method: MethodTerm::Name(n),
        args,
        selector: None,
    }] = p.steps.as_slice()
    else {
        return None;
    };
    if !args.is_empty() {
        return None;
    }
    ctx.db.oids().find_sym(n)
}

/// Executes the plan: returns the per-step actual tuple counts and the
/// result rows. This is the only executor of a [`Plan`].
pub(crate) fn execute(
    ctx: &Ctx<'_>,
    q: &SelectQuery,
    plan: &Plan<'_>,
) -> XsqlResult<(Vec<usize>, SelectRows)> {
    // ---- access paths: filtered candidate list per variable --------
    let mut cands: Vec<Vec<Oid>> = Vec::with_capacity(plan.vars.len());
    for (vi, v) in plan.vars.iter().enumerate() {
        // Index narrowing: intersect with the receivers the probes
        // admit. A probe is a sound superset, so this only removes
        // candidates `holds` would reject anyway.
        let mut narrowed: Option<BTreeSet<Oid>> = None;
        for f in plan.filters.iter().filter(|f| f.var == vi) {
            let set = match &f.probe {
                Some(Probe::Eq { method, key }) => ctx.db.attr_receivers_eq(*method, key),
                Some(Probe::Range { method, lo, hi }) => ctx
                    .db
                    .attr_receivers_range(*method, (lo.clone(), hi.clone())),
                None => continue,
            };
            narrowed = Some(match narrowed {
                None => set,
                Some(prev) => prev.intersection(&set).copied().collect(),
            });
        }
        let mut kept = Vec::new();
        let mut bnd = Bindings::new();
        let mark = bnd.mark();
        // One tick per candidate examined: each probed receiver (kept
        // only if in the extent) when a probe narrowed the variable, else
        // each member of the extent. One of the two chained walks is
        // empty.
        let probed = narrowed.iter().flatten().copied();
        let scanned = narrowed.is_none().then(|| v.extent.iter());
        'cand: for o in probed.chain(scanned.into_iter().flatten()) {
            ctx.tick()?;
            if narrowed.is_some() && !v.extent.contains(&o) {
                continue;
            }
            if !ctx.sort_ok(VarSort::Individual, o) {
                continue;
            }
            bnd.push(v.name, o);
            for f in plan.filters.iter().filter(|f| f.var == vi) {
                if !ctx.holds(f.cond, &bnd)? {
                    bnd.truncate(mark);
                    continue 'cand;
                }
            }
            bnd.truncate(mark);
            kept.push(o);
        }
        ctx.check_binding_set(kept.len())?;
        cands.push(kept);
    }

    // ---- join edge columns -----------------------------------------
    let mut columns: Vec<EdgeColumns> = Vec::with_capacity(plan.edges.len());
    for e in &plan.edges {
        let mut bnd = Bindings::new();
        let mark = bnd.mark();
        let mut side = |vi: usize, which_a: bool| -> XsqlResult<Vec<Vec<Elem>>> {
            let v = &plan.vars[vi];
            let mut col = Vec::with_capacity(cands[vi].len());
            let attr = match &e.kind {
                EdgeKind::Cmp { left, right, .. } | EdgeKind::SetCmp { left, right, .. } => {
                    bare_attr(ctx, if which_a { left } else { right }, v.name)
                }
                EdgeKind::SetLink { .. } => None,
            };
            for &o in &cands[vi] {
                ctx.tick()?;
                if let Some(val) = attr.and_then(|m| ctx.db.stored_value(o, m, &[])) {
                    col.push(val.members().map(Elem::Obj).collect());
                    continue;
                }
                bnd.push(v.name, o);
                let elems = match &e.kind {
                    EdgeKind::Cmp { left, right, .. } | EdgeKind::SetCmp { left, right, .. } => {
                        ctx.operand_value(if which_a { left } else { right }, &bnd)?
                    }
                    EdgeKind::SetLink { path } => {
                        if which_a {
                            ctx.path_value(path, &bnd)?
                                .into_iter()
                                .map(Elem::Obj)
                                .collect()
                        } else {
                            vec![Elem::Obj(o)]
                        }
                    }
                };
                bnd.truncate(mark);
                col.push(elems);
            }
            Ok(col)
        };
        let a = side(e.a, true)?;
        let b = side(e.b, false)?;
        let singletons = |col: &[Vec<Elem>]| -> Option<Vec<f64>> {
            col.iter()
                .map(|es| match es.as_slice() {
                    [Elem::Num(n)] => Some(*n),
                    [Elem::Obj(o)] => ctx.db.oids().as_number(*o),
                    _ => None,
                })
                .collect()
        };
        let fast = match &e.kind {
            EdgeKind::Cmp { lq, rq, .. } if *lq != Some(Quant::All) && *rq != Some(Quant::All) => {
                singletons(&a).zip(singletons(&b))
            }
            _ => None,
        };
        columns.push(EdgeColumns { a, b, fast });
    }

    // ---- join loop -------------------------------------------------
    // Flat width-strided tuple store: one `u32` candidate index per
    // joined variable; `slot[vi]` maps a variable to its stride offset.
    let mut slot: Vec<usize> = vec![usize::MAX; plan.vars.len()];
    let mut width = 0usize;
    let mut tuples: Vec<u32> = Vec::new();
    let mut ntuples = 0usize;
    let mut actuals = Vec::with_capacity(plan.steps.len());

    // True iff edge `ei` holds between candidate `ai` of its a-side
    // variable and candidate `bi` of its b-side variable.
    let edge_holds = |ei: usize, ai: usize, bi: usize| -> bool {
        let cols = &columns[ei];
        match &plan.edges[ei].kind {
            EdgeKind::Cmp { lq, op, rq, .. } => {
                if let Some((fa, fb)) = &cols.fast {
                    return f64_cmp(*op, fa[ai], fb[bi]);
                }
                ctx.compare(&cols.a[ai], *lq, *op, *rq, &cols.b[bi])
            }
            EdgeKind::SetCmp { op, .. } => ctx.set_compare(&cols.a[ai], *op, &cols.b[bi]),
            // `X.Path[B]`: some member of the path value is the
            // candidate — existential element equality.
            EdgeKind::SetLink { .. } => {
                ctx.compare(&cols.a[ai], None, CmpOp::Eq, None, &cols.b[bi])
            }
        }
    };
    // Resolves edge `ei` endpoints into (a-side, b-side) candidate
    // indices given the new variable `vi` at candidate `ci` and an
    // existing tuple.
    let pair = |ei: usize, vi: usize, ci: u32, t: &[u32], slot: &[usize]| -> (usize, usize) {
        let e = &plan.edges[ei];
        if e.a == vi {
            (ci as usize, t[slot[e.b]] as usize)
        } else {
            (t[slot[e.a]] as usize, ci as usize)
        }
    };

    for step in &plan.steps {
        let vi = step.var;
        let ncand = cands[vi].len() as u32;
        match &step.method {
            StepMethod::Scan => {
                tuples = (0..ncand).collect();
                width = 1;
                ntuples = tuples.len();
                ctx.count_tuples(ntuples)?;
            }
            StepMethod::Cross => {
                let mut next = Vec::new();
                for t in tuples.chunks_exact(width.max(1)) {
                    for ci in 0..ncand {
                        ctx.tick()?;
                        next.extend_from_slice(t);
                        next.push(ci);
                    }
                    ctx.count_tuples(ncand as usize)?;
                }
                tuples = next;
                width += 1;
                ntuples = tuples.len() / width;
            }
            StepMethod::Hash(hei) => {
                // Build over the new variable's side of the hash edge.
                let e = &plan.edges[*hei];
                let new_is_a = e.a == vi;
                let build_col = if new_is_a {
                    &columns[*hei].a
                } else {
                    &columns[*hei].b
                };
                let probe_col = if new_is_a {
                    &columns[*hei].b
                } else {
                    &columns[*hei].a
                };
                let other_slot = slot[if new_is_a { e.b } else { e.a }];
                let mut table: HashMap<CanonKey, Vec<u32>> = HashMap::new();
                for (ci, elems) in build_col.iter().enumerate() {
                    ctx.tick()?;
                    for &el in elems {
                        if let Some(k) = CanonKey::of(ctx, el) {
                            let bucket = table.entry(k).or_default();
                            if bucket.last() != Some(&(ci as u32)) {
                                bucket.push(ci as u32);
                            }
                        }
                    }
                }
                let residual: Vec<usize> =
                    step.edges.iter().copied().filter(|ei| ei != hei).collect();
                let mut next = Vec::new();
                let mut count = 0usize;
                let mut matched: Vec<u32> = Vec::new();
                for t in tuples.chunks_exact(width) {
                    let probe_ci = t[other_slot] as usize;
                    matched.clear();
                    for &el in &probe_col[probe_ci] {
                        if let Some(k) = CanonKey::of(ctx, el) {
                            if let Some(bucket) = table.get(&k) {
                                matched.extend_from_slice(bucket);
                            }
                        }
                    }
                    matched.sort_unstable();
                    matched.dedup();
                    let before = count;
                    'new: for &ci in &matched {
                        ctx.tick()?;
                        for &ei in &residual {
                            let (ai, bi) = pair(ei, vi, ci, t, &slot);
                            if !edge_holds(ei, ai, bi) {
                                continue 'new;
                            }
                        }
                        count += 1;
                        next.extend_from_slice(t);
                        next.push(ci);
                    }
                    ctx.count_tuples(count - before)?;
                }
                tuples = next;
                width += 1;
                ntuples = count;
            }
            StepMethod::Theta => {
                // All-f64 edges: compare raw numbers in a tight loop
                // with the per-tuple side hoisted out.
                let fast: Option<Vec<FastEdge>> = step
                    .edges
                    .iter()
                    .map(|&ei| {
                        let e = &plan.edges[ei];
                        let (fa, fb) = columns[ei].fast.as_ref()?;
                        let EdgeKind::Cmp { op, .. } = &e.kind else {
                            return None;
                        };
                        let new_is_a = e.a == vi;
                        let other_slot = slot[if new_is_a { e.b } else { e.a }];
                        Some((fa.as_slice(), fb.as_slice(), *op, new_is_a, other_slot))
                    })
                    .collect();
                let mut next = Vec::new();
                let mut count = 0usize;
                if let Some(fast) = fast {
                    // (comparator, new-var column, other side's value,
                    // new var on the left), refilled per driving tuple.
                    let mut sides: Vec<(CmpOp, &[f64], f64, bool)> = Vec::with_capacity(fast.len());
                    for t in tuples.chunks_exact(width) {
                        sides.clear();
                        sides.extend(fast.iter().map(|&(fa, fb, op, new_is_a, os)| {
                            let other = t[os] as usize;
                            if new_is_a {
                                (op, fa, fb[other], true)
                            } else {
                                (op, fb, fa[other], false)
                            }
                        }));
                        let before = count;
                        'fcand: for ci in 0..ncand as usize {
                            ctx.tick()?;
                            for &(op, col, other, new_is_left) in &sides {
                                let ok = if new_is_left {
                                    f64_cmp(op, col[ci], other)
                                } else {
                                    f64_cmp(op, other, col[ci])
                                };
                                if !ok {
                                    continue 'fcand;
                                }
                            }
                            count += 1;
                            next.extend_from_slice(t);
                            next.push(ci as u32);
                        }
                        ctx.count_tuples(count - before)?;
                    }
                } else {
                    for t in tuples.chunks_exact(width) {
                        let before = count;
                        'cand: for ci in 0..ncand {
                            ctx.tick()?;
                            for &ei in &step.edges {
                                let (ai, bi) = pair(ei, vi, ci, t, &slot);
                                if !edge_holds(ei, ai, bi) {
                                    continue 'cand;
                                }
                            }
                            count += 1;
                            next.extend_from_slice(t);
                            next.push(ci);
                        }
                        ctx.count_tuples(count - before)?;
                    }
                }
                tuples = next;
                width += 1;
                ntuples = count;
            }
        }
        slot[vi] = width - 1;
        actuals.push(ntuples);
    }

    // ---- emission ---------------------------------------------------
    // Fast path: every SELECT item is a bare FROM variable (`SELECT X,
    // Y`), so each row is the tuple's candidates — no binding stack, no
    // operand evaluation.
    let atom_tpl: Option<Vec<usize>> = q
        .select
        .iter()
        .map(|item| {
            let op = match item {
                SelectItem::Expr(op) => op,
                SelectItem::Named {
                    value: SelectValue::Expr(op),
                    ..
                } => op,
                _ => return None,
            };
            let Operand::Path(p) = op else {
                return None;
            };
            if !p.steps.is_empty() {
                return None;
            }
            let IdTerm::Var(v) = &p.head else {
                return None;
            };
            plan.vars.iter().position(|pv| pv.name == v.name)
        })
        .collect();
    let width = width.max(1);
    if let Some(tpl) = atom_tpl {
        let covers_all = (0..plan.vars.len()).all(|vi| tpl.contains(&vi));
        if covers_all {
            // Distinct join tuples give distinct rows: no interning, no
            // dedup — the caller bulk-builds the relation in one sort.
            let mut out: Vec<Vec<Oid>> = Vec::with_capacity(ntuples);
            for t in tuples.chunks_exact(width) {
                if let Some(p) = &ctx.opts.profile {
                    p.count_solution();
                }
                ctx.tick_n(tpl.len() as u64)?;
                ctx.check_binding_set(1)?;
                out.push(
                    tpl.iter()
                        .map(|&vi| cands[vi][t[slot[vi]] as usize])
                        .collect(),
                );
            }
            ctx.count_tuples(out.len())?;
            return Ok((actuals, SelectRows::Atoms(out)));
        }
        let mut out: Vec<Vec<Cell>> = Vec::with_capacity(ntuples);
        for t in tuples.chunks_exact(width) {
            if let Some(p) = &ctx.opts.profile {
                p.count_solution();
            }
            ctx.tick_n(tpl.len() as u64)?;
            ctx.check_binding_set(1)?;
            out.push(
                tpl.iter()
                    .map(|&vi| Cell::Obj(cands[vi][t[slot[vi]] as usize]))
                    .collect(),
            );
        }
        // FromIterator on a BTreeSet sorts and bulk-builds — far
        // cheaper than per-row tree descents.
        let rows: BTreeSet<Vec<Cell>> = out.into_iter().collect();
        ctx.count_tuples(rows.len())?;
        return Ok((actuals, SelectRows::Cells(rows)));
    }
    let mut rows = BTreeSet::new();
    let mut bnd = Bindings::new();
    let mark = bnd.mark();
    for t in tuples.chunks_exact(width) {
        for (vi, v) in plan.vars.iter().enumerate() {
            bnd.push(v.name, cands[vi][t[slot[vi]] as usize]);
        }
        if let Some(p) = &ctx.opts.profile {
            p.count_solution();
        }
        emit_rows(ctx, &q.select, &bnd, &mut rows)?;
        bnd.truncate(mark);
    }
    Ok((actuals, SelectRows::Cells(rows)))
}
