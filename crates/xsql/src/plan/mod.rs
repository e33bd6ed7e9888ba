//! Cost-based planning for pipelined SELECT queries.
//!
//! The pipelined engine of `crate::eval` schedules conjuncts greedily
//! and re-scans class extents with nested loops; on multi-variable
//! joins that is quadratic re-traversal per candidate pair (the
//! `employee_self_join` bench spent ~1.1 s on a 193k-row join that
//! way). This module recognizes the join-shaped fragment of XSQL —
//! queries whose FROM items are plain individual variables over classes
//! and whose flattened WHERE conjuncts each touch one variable (a
//! *filter*) or two (a *join edge*) — and, when the whole query fits,
//! takes over evaluation with set-oriented operators:
//!
//! * **Access paths** — each variable's candidate set starts from its
//!   class extent; equality and range filters over a stored attribute
//!   narrow it through the typed ordered index
//!   ([`oodb::Database::attr_index`]) when the index is complete for
//!   the attribute. Narrowed candidates are *always* re-verified with
//!   the evaluator's own [`holds`](crate::eval::Ctx::holds), so the
//!   index only needs to be a sound superset.
//! * **Join operators** — a hash join for equality edges and for the
//!   Odra-style fusion of set-valued selector paths (`X.Children[Y]`
//!   joins `Y` against the members of `X.Children` through one hash
//!   table instead of re-walking the path per pair), and a nested theta
//!   join over cached per-candidate columns for everything else (with a
//!   direct `f64` fast path when both columns are singleton numerals).
//! * **Cost model** — `cost.rs` estimates cardinalities from extent
//!   sizes and per-attribute distinct counts ([`oodb::AttrStats`]) and
//!   picks the join order greedily. The chosen plan renders into
//!   `EXPLAIN` / `EXPLAIN ANALYZE` (estimated vs. actual rows).
//!
//! Anything outside the fragment — class/method variables, ground
//! conjuncts, three-variable conjuncts, Theorem 6.1 ranges, nested or
//! correlated position, object-creating queries — falls back to the
//! unchanged pipelined engine. Results are bit-identical across
//! planner, pipelined and naive engines: candidates come from the same
//! extents, predicates are evaluated by the same `holds` / `compare` /
//! `path_value` code, and emission goes through the same `emit_rows`.
//! The differential suite crosses all engines on every paper query.
//!
//! `exec::execute` is the only executor of a [`Plan`]. Prepared
//! statements (`EXECUTE`) skip parse and resolve but reach it through
//! the same statement path, so they are re-planned against current
//! statistics and index completeness on every run.

use crate::ast::*;
use crate::error::XsqlResult;
use crate::eval::bindings::Bindings;
use crate::eval::cond::{conjunct_vars, flatten_and};
use crate::eval::select::{Prepared, SelectRows};
use crate::eval::{vars, Ctx};
use oodb::{Oid, ValueKey};
use std::collections::BTreeSet;
use std::ops::Bound;

mod cost;
pub(crate) mod exec;

/// One FROM variable of a planned query.
pub struct PlanVar<'q> {
    /// Variable name (borrowed from the query).
    pub name: &'q str,
    /// The class whose extent seeds the candidate set.
    pub class: Oid,
    /// Rendered class name (for EXPLAIN).
    pub class_name: String,
    /// The class extent (candidates before filters), read once per
    /// plan and scanned by the executor.
    pub extent: Vec<Oid>,
    /// Estimated candidates after filters.
    pub est_rows: f64,
}

/// An index probe a filter can be narrowed through (always re-verified
/// by `holds` afterwards — the probe only needs to be a superset).
pub enum Probe {
    /// Equality against one typed key.
    Eq {
        /// The attribute (0-ary method) the index is over.
        method: Oid,
        /// The probe key.
        key: ValueKey,
    },
    /// An ordered range within one type family.
    Range {
        /// The attribute the index is over.
        method: Oid,
        /// Lower bound.
        lo: Bound<ValueKey>,
        /// Upper bound.
        hi: Bound<ValueKey>,
    },
}

/// A single-variable conjunct: evaluated per candidate via `holds`,
/// optionally narrowed through an index probe first.
pub struct PlanFilter<'q> {
    /// Index into [`Plan::vars`].
    pub var: usize,
    /// The conjunct (evaluated by the stock `holds`).
    pub cond: &'q Cond,
    /// Index narrowing, when recognized and sound.
    pub probe: Option<Probe>,
    /// Rendered form (for EXPLAIN).
    pub label: String,
}

/// How a two-variable conjunct joins its sides.
pub enum EdgeKind<'q> {
    /// A quantified comparison; `left` depends only on var `a`, `right`
    /// only on var `b`.
    Cmp {
        /// Left operand.
        left: &'q Operand,
        /// Left quantifier.
        lq: Option<Quant>,
        /// Comparator.
        op: CmpOp,
        /// Right quantifier.
        rq: Option<Quant>,
        /// Right operand.
        right: &'q Operand,
    },
    /// A set comparison with the same side split.
    SetCmp {
        /// Left operand.
        left: &'q Operand,
        /// Set comparator.
        op: SetCmpOp,
        /// Right operand.
        right: &'q Operand,
    },
    /// `A.Path[B]` — a set-valued path on `a` whose final selector is
    /// var `b`: satisfied iff some member of the (selector-stripped)
    /// path value is `oid_eq` to `b`'s binding. `path` is the stripped
    /// path, depending only on var `a`.
    SetLink {
        /// The selector-stripped path (head is var `a`).
        path: PathExpr,
    },
}

/// A two-variable conjunct (join edge).
pub struct PlanEdge<'q> {
    /// Var index owning the left / head side.
    pub a: usize,
    /// Var index owning the right / selector side.
    pub b: usize,
    /// Operational shape.
    pub kind: EdgeKind<'q>,
    /// Rendered form (for EXPLAIN).
    pub label: String,
}

impl PlanEdge<'_> {
    /// True when the edge admits a hash join: element-equality
    /// semantics with existential quantifiers on both sides.
    pub fn hashable(&self) -> bool {
        match &self.kind {
            EdgeKind::Cmp { lq, op, rq, .. } => {
                *op == CmpOp::Eq && *lq != Some(Quant::All) && *rq != Some(Quant::All)
            }
            EdgeKind::SetLink { .. } => true,
            EdgeKind::SetCmp { .. } => false,
        }
    }
}

/// How one step of the join order combines the next variable.
pub enum StepMethod {
    /// The driver variable: its filtered candidates seed the tuples.
    Scan,
    /// Hash join on the given edge index (others in
    /// [`PlanStep::edges`] are residual pair filters).
    Hash(usize),
    /// Nested theta join evaluating every edge per candidate pair.
    Theta,
    /// No connecting edge: cross product.
    Cross,
}

/// One step of the chosen join order.
pub struct PlanStep {
    /// Index into [`Plan::vars`].
    pub var: usize,
    /// Join method for this step.
    pub method: StepMethod,
    /// All edges between this variable and the already-joined set.
    pub edges: Vec<usize>,
    /// Estimated tuples after this step.
    pub est_rows: f64,
}

/// A fully-recognized, cost-ordered plan for one SELECT query.
pub struct Plan<'q> {
    /// FROM variables, in FROM order.
    pub vars: Vec<PlanVar<'q>>,
    /// Single-variable conjuncts, in conjunct order.
    pub filters: Vec<PlanFilter<'q>>,
    /// Two-variable conjuncts, in conjunct order.
    pub edges: Vec<PlanEdge<'q>>,
    /// Chosen join order (first step is the driver scan).
    pub steps: Vec<PlanStep>,
}

impl Plan<'_> {
    /// Renders the plan, one line per join step plus one per filter.
    /// `actuals`, when given (EXPLAIN ANALYZE), holds the measured
    /// tuple count after each step.
    pub fn render_lines(&self, actuals: Option<&[usize]>) -> Vec<String> {
        let mut out = Vec::new();
        for (si, step) in self.steps.iter().enumerate() {
            let v = &self.vars[step.var];
            let actual = actuals
                .and_then(|a| a.get(si))
                .map(|n| format!(", actual {n} rows"))
                .unwrap_or_default();
            let est = step.est_rows.round() as u64;
            match &step.method {
                StepMethod::Scan => out.push(format!(
                    "scan {}: {} extent, {} objects, est {est} rows{actual}",
                    v.name,
                    v.class_name,
                    v.extent.len()
                )),
                StepMethod::Hash(e) => {
                    let mut labels = vec![self.edges[*e].label.clone()];
                    labels.extend(
                        step.edges
                            .iter()
                            .filter(|i| *i != e)
                            .map(|&i| self.edges[i].label.clone()),
                    );
                    out.push(format!(
                        "join {} (hash): {}, est {est} rows{actual}",
                        v.name,
                        labels.join(" and ")
                    ));
                }
                StepMethod::Theta => {
                    let labels: Vec<String> = step
                        .edges
                        .iter()
                        .map(|&i| self.edges[i].label.clone())
                        .collect();
                    out.push(format!(
                        "join {} (nested-theta): {}, est {est} rows{actual}",
                        v.name,
                        labels.join(" and ")
                    ));
                }
                StepMethod::Cross => out.push(format!(
                    "join {} (cross product): est {est} rows{actual}",
                    v.name
                )),
            }
            for f in self.filters.iter().filter(|f| f.var == step.var) {
                let via = match &f.probe {
                    Some(Probe::Eq { .. }) => " via attr-index eq",
                    Some(Probe::Range { .. }) => " via attr-index range",
                    None => "",
                };
                out.push(format!("filter {}: {}{via}", v.name, f.label));
            }
        }
        out
    }
}

/// Attempts to take over a top-level pipelined SELECT. Returns
/// `Ok(None)` when the planner declines (options, query shape, or
/// position outside the recognized fragment) — the caller falls back to
/// the stock pipelined engine.
pub(crate) fn solve_query_planned(
    ctx: &Ctx<'_>,
    q: &SelectQuery,
    prep: &Prepared,
    outer: &Bindings<'_>,
) -> XsqlResult<Option<SelectRows>> {
    if !ctx.opts.use_planner || ctx.ranges.is_some() || !outer.is_empty() || ctx.depth != 0 {
        return Ok(None);
    }
    let Some(plan) = plan_query(ctx, q, prep) else {
        return Ok(None);
    };
    let profile = ctx.opts.profile.as_ref();
    if let Some(p) = profile {
        p.record_strategy("planner");
    }
    let (actuals, rows) = exec::execute(ctx, q, &plan)?;
    if let Some(p) = profile {
        p.record_plan(plan.render_lines(Some(&actuals)));
    }
    Ok(Some(rows))
}

/// Static plan lines for plain `EXPLAIN`: what the planner would do,
/// without executing. `None` when the planner would decline. Public so
/// the benchmarks can time planning on its own.
pub fn static_plan_lines(ctx: &Ctx<'_>, q: &SelectQuery) -> Option<Vec<String>> {
    if !ctx.opts.use_planner || ctx.ranges.is_some() {
        return None;
    }
    let prep = crate::eval::select::prepare(q);
    plan_query(ctx, q, &prep).map(|plan| plan.render_lines(None))
}

/// Recognizes the query and, if it fits the fragment entirely, builds
/// the cost-ordered plan. Pure analysis: no ticks, no evaluation.
pub(crate) fn plan_query<'q>(
    ctx: &Ctx<'_>,
    q: &'q SelectQuery,
    prep: &Prepared,
) -> Option<Plan<'q>> {
    if q.from.is_empty() || q.oid_fn.is_some() || !prep.select_only.is_empty() {
        return None;
    }
    let mut names: BTreeSet<&str> = BTreeSet::new();
    let mut plan_vars = Vec::with_capacity(q.from.len());
    for f in &q.from {
        if f.var.sort != VarSort::Individual {
            return None;
        }
        let IdTerm::Oid(class) = f.class else {
            return None;
        };
        if !ctx.db.is_class(class) || !names.insert(f.var.name.as_str()) {
            return None;
        }
        plan_vars.push(PlanVar {
            name: f.var.name.as_str(),
            class,
            class_name: ctx.db.render(class),
            // Self-joins read their class extent once.
            extent: plan_vars
                .iter()
                .find(|v: &&PlanVar| v.class == class)
                .map_or_else(|| ctx.db.instances_of(class), |v| v.extent.clone()),
            est_rows: 0.0,
        });
    }
    for item in &q.select {
        let op = match item {
            SelectItem::Expr(op) => op,
            SelectItem::Named {
                value: SelectValue::Expr(op),
                ..
            } => op,
            _ => return None,
        };
        let mut sv = BTreeSet::new();
        vars::operand_vars(op, &mut sv);
        if !sv.iter().all(|v| names.contains(v)) {
            return None;
        }
    }
    let mut conjs = Vec::new();
    flatten_and(&q.where_clause, &mut conjs);
    if conjs.is_empty() {
        // Pure FROM products carry no predicates to plan around; the
        // pipelined engine handles them identically, and several
        // resource-budget goldens pin its tick accounting there.
        return None;
    }
    let mut outer_vars = BTreeSet::new();
    vars::query_vars(q, &mut outer_vars);
    let var_idx = |n: &str| plan_vars.iter().position(|v| v.name == n);
    let mut filters = Vec::new();
    let mut edges = Vec::new();
    for c in conjs {
        if matches!(c, Cond::Update(_)) {
            return None;
        }
        let cv = conjunct_vars(c, &outer_vars);
        if cv.is_empty() || !cv.iter().all(|v| names.contains(v)) {
            return None;
        }
        match cv.len() {
            1 => {
                let vi = var_idx(cv.first().unwrap())?;
                let probe = filter_probe(ctx, c, plan_vars[vi].name);
                filters.push(PlanFilter {
                    var: vi,
                    cond: c,
                    probe,
                    label: cond_label(ctx, c),
                });
            }
            2 => edges.push(recognize_edge(ctx, c, &outer_vars, &var_idx)?),
            _ => return None,
        }
    }
    let mut plan = Plan {
        vars: plan_vars,
        filters,
        edges,
        steps: Vec::new(),
    };
    cost::order(ctx, &mut plan);
    Some(plan)
}

/// The variables one comparison side depends on: its free variables
/// plus the correlated variables of any nested subquery.
fn side_vars<'q>(op: &'q Operand, outer_vars: &BTreeSet<&'q str>) -> BTreeSet<&'q str> {
    let mut out = BTreeSet::new();
    vars::operand_vars(op, &mut out);
    let mut subs = BTreeSet::new();
    vars::subquery_vars(op, &mut subs);
    for v in subs {
        if outer_vars.contains(v) {
            out.insert(v);
        }
    }
    out
}

fn recognize_edge<'q>(
    ctx: &Ctx<'_>,
    c: &'q Cond,
    outer_vars: &BTreeSet<&'q str>,
    var_idx: &dyn Fn(&str) -> Option<usize>,
) -> Option<PlanEdge<'q>> {
    match c {
        Cond::Cmp {
            left,
            lq,
            op,
            rq,
            right,
        } => {
            let lv = side_vars(left, outer_vars);
            let rv = side_vars(right, outer_vars);
            if lv.len() != 1 || rv.len() != 1 || lv == rv {
                return None;
            }
            Some(PlanEdge {
                a: var_idx(lv.first().unwrap())?,
                b: var_idx(rv.first().unwrap())?,
                kind: EdgeKind::Cmp {
                    left,
                    lq: *lq,
                    op: *op,
                    rq: *rq,
                    right,
                },
                label: format!(
                    "{} {} {}",
                    operand_label(ctx, left),
                    cmp_symbol(*op),
                    operand_label(ctx, right)
                ),
            })
        }
        Cond::SetCmp { left, op, right } => {
            let lv = side_vars(left, outer_vars);
            let rv = side_vars(right, outer_vars);
            if lv.len() != 1 || rv.len() != 1 || lv == rv {
                return None;
            }
            Some(PlanEdge {
                a: var_idx(lv.first().unwrap())?,
                b: var_idx(rv.first().unwrap())?,
                kind: EdgeKind::SetCmp {
                    left,
                    op: *op,
                    right,
                },
                label: format!(
                    "{} {} {}",
                    operand_label(ctx, left),
                    set_cmp_symbol(*op),
                    operand_label(ctx, right)
                ),
            })
        }
        Cond::Path(p) => {
            let IdTerm::Var(hv) = &p.head else {
                return None;
            };
            let Some(Step::Method {
                selector: Some(IdTerm::Var(sv)),
                ..
            }) = p.steps.last()
            else {
                return None;
            };
            if sv.sort != VarSort::Individual || sv.name == hv.name {
                return None;
            }
            let mut stripped = p.clone();
            if let Some(Step::Method { selector, .. }) = stripped.steps.last_mut() {
                *selector = None;
            }
            let mut spv = BTreeSet::new();
            vars::path_vars(&stripped, &mut spv);
            if spv.len() != 1 || !spv.contains(hv.name.as_str()) {
                return None;
            }
            let label = format!("{}[{}]", path_label(ctx, &stripped), sv.name);
            Some(PlanEdge {
                a: var_idx(&hv.name)?,
                b: var_idx(&sv.name)?,
                kind: EdgeKind::SetLink { path: stripped },
                label,
            })
        }
        _ => None,
    }
}

/// Recognizes an index-narrowable filter: `V.Attr op constant` (either
/// orientation) where `Attr` is a stored 0-ary attribute whose ordered
/// index is complete, the path-side quantifier is existential, and the
/// operator/constant pair maps onto a typed key probe. The probe is a
/// sound *superset* (k-ary entries and numeral collapsing make it
/// non-exact); execution re-verifies every survivor with `holds`.
fn filter_probe(ctx: &Ctx<'_>, c: &Cond, var: &str) -> Option<Probe> {
    if !ctx.opts.use_method_index {
        return None;
    }
    let Cond::Cmp {
        left,
        lq,
        op,
        rq,
        right,
    } = c
    else {
        return None;
    };
    let oriented = |path_op: &Operand, pq: Option<Quant>, cmp: CmpOp, konst: &Operand| {
        if pq == Some(Quant::All) {
            return None;
        }
        let Operand::Path(p) = path_op else {
            return None;
        };
        let IdTerm::Var(v) = &p.head else {
            return None;
        };
        if v.name != var {
            return None;
        }
        let [Step::Method {
            method: MethodTerm::Name(attr),
            args,
            selector: None,
        }] = p.steps.as_slice()
        else {
            return None;
        };
        if !args.is_empty() {
            return None;
        }
        let Operand::Path(k) = konst else {
            return None;
        };
        let (IdTerm::Oid(konst_oid), []) = (&k.head, k.steps.as_slice()) else {
            return None;
        };
        let m = ctx.db.oids().find_sym(attr)?;
        if !ctx.db.attr_index_complete(m) {
            return None;
        }
        probe_for(ctx, m, cmp, *konst_oid)
    };
    oriented(left, *lq, *op, right).or_else(|| oriented(right, *rq, flip(*op), left))
}

/// `a op b` ⟺ `b flip(op) a`.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

/// Maps `attr op constant` onto a typed key probe. Equality probes one
/// key (`ValueKey::of` collapses numeral spellings exactly like
/// `elem_eq`); order probes scan one type family's contiguous run —
/// numeric constants a numeric range, string constants a lexicographic
/// range, mirroring `elem_lt`'s two comparable families.
fn probe_for(ctx: &Ctx<'_>, method: Oid, op: CmpOp, konst: Oid) -> Option<Probe> {
    use oodb::OidData;
    let oids = ctx.db.oids();
    if op == CmpOp::Eq {
        return Some(Probe::Eq {
            method,
            key: ValueKey::of(oids, konst),
        });
    }
    if op == CmpOp::Ne {
        return None;
    }
    let str_floor = || ValueKey::Str("".into());
    let bool_floor = || ValueKey::Bool(false);
    if let Some(n) = oids.as_number(konst) {
        let k = ValueKey::num(n);
        let (lo, hi) = match op {
            CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(k)),
            CmpOp::Le => (Bound::Unbounded, Bound::Included(k)),
            CmpOp::Gt => (Bound::Excluded(k), Bound::Excluded(str_floor())),
            CmpOp::Ge => (Bound::Included(k), Bound::Excluded(str_floor())),
            _ => unreachable!(),
        };
        return Some(Probe::Range { method, lo, hi });
    }
    if let OidData::Str(s) = oids.get(konst) {
        let k = ValueKey::Str(s.clone());
        let (lo, hi) = match op {
            CmpOp::Lt => (Bound::Included(str_floor()), Bound::Excluded(k)),
            CmpOp::Le => (Bound::Included(str_floor()), Bound::Included(k)),
            CmpOp::Gt => (Bound::Excluded(k), Bound::Excluded(bool_floor())),
            CmpOp::Ge => (Bound::Included(k), Bound::Excluded(bool_floor())),
            _ => unreachable!(),
        };
        return Some(Probe::Range { method, lo, hi });
    }
    None
}

fn cmp_symbol(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn set_cmp_symbol(op: SetCmpOp) -> &'static str {
    match op {
        SetCmpOp::Contains => "contains",
        SetCmpOp::ContainsEq => "containsEq",
        SetCmpOp::Subset => "subset",
        SetCmpOp::SubsetEq => "subsetEq",
    }
}

fn path_label(ctx: &Ctx<'_>, p: &PathExpr) -> String {
    let mut s = match &p.head {
        IdTerm::Var(v) => v.name.clone(),
        IdTerm::Oid(o) => ctx.db.render(*o),
        _ => "…".to_string(),
    };
    for step in &p.steps {
        match step {
            Step::Method {
                method, selector, ..
            } => {
                s.push('.');
                match method {
                    MethodTerm::Name(n) => s.push_str(n),
                    MethodTerm::Var(n) => {
                        s.push('"');
                        s.push_str(n);
                    }
                }
                if let Some(sel) = selector {
                    s.push('[');
                    match sel {
                        IdTerm::Var(v) => s.push_str(&v.name),
                        IdTerm::Oid(o) => s.push_str(&ctx.db.render(*o)),
                        _ => s.push('…'),
                    }
                    s.push(']');
                }
            }
            Step::PathVar { name, .. } => {
                s.push_str(".*");
                s.push_str(name);
            }
        }
    }
    s
}

fn operand_label(ctx: &Ctx<'_>, op: &Operand) -> String {
    match op {
        Operand::Path(p) => path_label(ctx, p),
        Operand::Agg(f, p) => {
            let name = match f {
                AggFunc::Count => "count",
                AggFunc::Sum => "sum",
                AggFunc::Avg => "avg",
                AggFunc::Min => "min",
                AggFunc::Max => "max",
            };
            format!("{name}({})", path_label(ctx, p))
        }
        Operand::Subquery(_) => "(subquery)".to_string(),
        Operand::SetLit(_) => "{…}".to_string(),
        Operand::Arith(..) => "(arith)".to_string(),
        Operand::Union(..) | Operand::Intersection(..) | Operand::Difference(..) => {
            "(set-expr)".to_string()
        }
    }
}

fn cond_label(ctx: &Ctx<'_>, c: &Cond) -> String {
    match c {
        Cond::Cmp {
            left, op, right, ..
        } => format!(
            "{} {} {}",
            operand_label(ctx, left),
            cmp_symbol(*op),
            operand_label(ctx, right)
        ),
        Cond::SetCmp { left, op, right } => format!(
            "{} {} {}",
            operand_label(ctx, left),
            set_cmp_symbol(*op),
            operand_label(ctx, right)
        ),
        Cond::Path(p) => path_label(ctx, p),
        Cond::InstanceOf { .. } => "instanceOf".to_string(),
        Cond::SubclassOf { .. } => "subclassOf".to_string(),
        Cond::Not(_) => "not(…)".to_string(),
        Cond::Or(..) => "or(…)".to_string(),
        _ => "cond".to_string(),
    }
}
