//! Query-defined methods (§5): `ALTER CLASS … ADD SIGNATURE … SELECT
//! (M @ …) = … OID X WHERE …`, including update methods.

use super::bindings::Bindings;
use super::cond::flatten_and;
use super::update::exec_update;
use super::value::Elem;
use super::vars;
use super::{Ctx, EvalOptions};
use crate::ast::*;
use crate::error::{XsqlError, XsqlResult};
use oodb::{Database, DbError, DbResult, MethodImpl, Oid, Val};
use std::collections::{BTreeMap, BTreeSet};

/// A method whose implementation is an XSQL query (§5). Stored in the
/// database as a [`MethodImpl`]; invocation binds the `OID X` self
/// variable to the receiver, unifies the formal argument terms with the
/// actual arguments, solves the FROM/WHERE clause, and evaluates the
/// result expression per solution.
pub struct QueryMethod {
    /// The resolved defining query (select[0] is `MethodResult`).
    query: SelectQuery,
    /// Name of the self variable (`OID X`).
    self_var: String,
    /// Result multiplicity from the declared signature.
    set_valued: bool,
    /// True when the WHERE clause contains UPDATE conjuncts.
    has_update: bool,
    /// Engine options for the body (always pipelined).
    opts: EvalOptions,
    /// Rendered name, for diagnostics.
    name: String,
}

impl std::fmt::Debug for QueryMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryMethod")
            .field("name", &self.name)
            .field("set_valued", &self.set_valued)
            .field("has_update", &self.has_update)
            .finish()
    }
}

fn cond_has_update(c: &Cond) -> bool {
    match c {
        Cond::Update(_) => true,
        Cond::And(a, b) | Cond::Or(a, b) => cond_has_update(a) || cond_has_update(b),
        Cond::Not(a) => cond_has_update(a),
        _ => false,
    }
}

impl QueryMethod {
    /// Builds a query method from a resolved ALTER CLASS statement.
    pub fn from_alter(a: &AlterClass, opts: EvalOptions) -> XsqlResult<QueryMethod> {
        let spec = a.query.oid_fn.as_ref().ok_or_else(|| {
            XsqlError::Resolve("method definition requires an `OID X` clause".into())
        })?;
        if spec.vars.len() != 1 {
            return Err(XsqlError::Resolve(
                "the `OID` clause of a method definition names exactly the self variable".into(),
            ));
        }
        let Some(SelectItem::MethodResult { method, args, .. }) = a.query.select.first() else {
            return Err(XsqlError::Resolve(
                "method definition SELECT must have the form `(M @ args) = expr`".into(),
            ));
        };
        if *method != a.signature.method {
            return Err(XsqlError::Resolve(format!(
                "SELECT defines `{method}` but the signature declares `{}`",
                a.signature.method
            )));
        }
        if args.len() != a.signature.args.len() {
            return Err(XsqlError::Resolve(format!(
                "`{method}` is declared with {} argument(s) but defined with {}",
                a.signature.args.len(),
                args.len()
            )));
        }
        Ok(QueryMethod {
            query: a.query.clone(),
            self_var: spec.vars[0].name.clone(),
            set_valued: a.signature.set_valued,
            has_update: cond_has_update(&a.query.where_clause),
            opts: EvalOptions {
                strategy: super::Strategy::Pipelined,
                ..opts
            },
            name: format!("{}::{}", a.class, method),
        })
    }

    fn parts(&self) -> (&[IdTerm], &Operand) {
        match self.query.select.first() {
            Some(SelectItem::MethodResult { args, value, .. }) => (args, value),
            // Genuinely unreachable: `from_alter` is the only
            // constructor and rejects any other select-list shape, and
            // `query` is never mutated afterwards.
            _ => unreachable!("validated in from_alter"),
        }
    }

    fn fail(&self, msg: impl Into<String>) -> DbError {
        DbError::MethodFailed {
            method: self.name.clone(),
            message: msg.into(),
        }
    }

    /// Binds self and unifies formal parameters; returns the synthesized
    /// parameter conjuncts that must hold (for non-variable formals).
    fn param_conds(&self, actual: &[Oid]) -> Vec<Cond> {
        let (params, _) = self.parts();
        params
            .iter()
            .zip(actual.iter())
            .map(|(t, &a)| {
                // `(MngrSalary @ Y.Name)`: the actual argument must be a
                // member of the formal path's value (the paper's Z-
                // rewriting). A plain-variable formal is bound directly
                // at invocation; the equality below is then a no-op
                // filter that keeps the two cases uniform.
                let left = match t {
                    IdTerm::PathArg(p) => Operand::Path((**p).clone()),
                    other => Operand::Path(PathExpr::atom(other.clone())),
                };
                Cond::Cmp {
                    left,
                    lq: None,
                    op: CmpOp::Eq,
                    rq: None,
                    right: Operand::Path(PathExpr::atom(IdTerm::Oid(a))),
                }
            })
            .collect()
    }

    /// Solves FROM + non-update WHERE prefix, returning binding
    /// snapshots and the conjuncts that remained (the suffix starting at
    /// the first UPDATE, in source order).
    #[allow(clippy::type_complexity)]
    fn solve_prefix<'a>(
        &'a self,
        db: &Database,
        recv: Oid,
        actual: &[Oid],
        depth: usize,
        param_conds: &'a [Cond],
        from_conds: &'a [Cond],
    ) -> XsqlResult<(Vec<Vec<(String, Oid)>>, Vec<&'a Cond>)> {
        let ctx = Ctx::with_depth(db, &self.opts, depth);
        let mut body: Vec<&Cond> = Vec::new();
        flatten_and(&self.query.where_clause, &mut body);
        // Conjuncts are evaluated left-to-right (§5); everything from
        // the first UPDATE on is deferred to the mutation phase.
        let split = body
            .iter()
            .position(|c| matches!(c, Cond::Update(_)))
            .unwrap_or(body.len());
        let (prefix_body, suffix) = body.split_at(split);

        let mut conjs: Vec<&Cond> = Vec::new();
        conjs.extend(param_conds.iter());
        conjs.extend(from_conds.iter());
        conjs.extend(prefix_body.iter().copied());

        let mut sorts = BTreeMap::new();
        vars::var_sorts(&self.query, &mut sorts);
        let mut outer_vars = BTreeSet::new();
        vars::query_vars(&self.query, &mut outer_vars);

        let mut bnd = Bindings::new();
        bnd.push(&self.self_var, recv);
        let (params, _) = self.parts();
        for (t, &a) in params.iter().zip(actual.iter()) {
            if let IdTerm::Var(v) = t {
                bnd.push(&v.name, a);
            }
        }
        let mut snapshots: Vec<Vec<(String, Oid)>> = Vec::new();
        ctx.solve_conjuncts(&conjs, &sorts, &outer_vars, &mut bnd, &mut |bnd2| {
            snapshots.push(bnd2.iter().map(|(n, o)| (n.to_string(), o)).collect());
            Ok(())
        })?;
        Ok((snapshots, suffix.to_vec()))
    }

    #[allow(clippy::wrong_self_convention)] // synthesizes FROM conjuncts
    fn from_conds(&self) -> Vec<Cond> {
        self.query
            .from
            .iter()
            .map(|f| Cond::InstanceOf {
                obj: IdTerm::Var(f.var.clone()),
                class: f.class.clone(),
            })
            .collect()
    }

    fn collect_result(
        &self,
        db: &Database,
        snapshots: &[Vec<(String, Oid)>],
        depth: usize,
    ) -> DbResult<Option<Val>> {
        let (_, result) = self.parts();
        let ctx = Ctx::with_depth(db, &self.opts, depth);
        let mut values: BTreeSet<Oid> = BTreeSet::new();
        for snap in snapshots {
            let mut bnd = Bindings::new();
            for (n, o) in snap {
                bnd.push(n, *o);
            }
            let elems = ctx
                .operand_value(result, &bnd)
                .map_err(|e| self.fail(e.to_string()))?;
            for e in elems {
                match e {
                    Elem::Obj(o) => {
                        values.insert(o);
                    }
                    Elem::Num(_) => {
                        return Err(self.fail(
                            "method result computed a new numeral; store it via an \
                             update method instead",
                        ))
                    }
                }
            }
        }
        if self.set_valued {
            if values.is_empty() {
                Ok(None)
            } else {
                Ok(Some(Val::Set(values)))
            }
        } else {
            match values.len() {
                0 => Ok(None),
                1 => Ok(Some(Val::Scalar(values.into_iter().next().unwrap()))),
                n => Err(self.fail(format!("scalar method produced {n} distinct results"))),
            }
        }
    }
}

impl MethodImpl for QueryMethod {
    fn invoke(
        &self,
        db: &Database,
        recv: Oid,
        args: &[Oid],
        depth: usize,
    ) -> DbResult<Option<Val>> {
        if self.has_update {
            return Err(self.fail("update method invoked in read-only context"));
        }
        let (params, _) = self.parts();
        if params.len() != args.len() {
            return Err(DbError::ArityOrKindMismatch {
                method: self.name.clone(),
                detail: format!("expected {} argument(s), got {}", params.len(), args.len()),
            });
        }
        let param_conds = self.param_conds(args);
        let from_conds = self.from_conds();
        let (snapshots, suffix) = self
            .solve_prefix(db, recv, args, depth, &param_conds, &from_conds)
            .map_err(|e| self.fail(e.to_string()))?;
        debug_assert!(suffix.is_empty());
        self.collect_result(db, &snapshots, depth)
    }

    fn invoke_mut(
        &self,
        db: &mut Database,
        recv: Oid,
        args: &[Oid],
        depth: usize,
    ) -> DbResult<Option<Val>> {
        if !self.has_update {
            return self.invoke(db, recv, args, depth);
        }
        let (params, _) = self.parts();
        if params.len() != args.len() {
            return Err(DbError::ArityOrKindMismatch {
                method: self.name.clone(),
                detail: format!("expected {} argument(s), got {}", params.len(), args.len()),
            });
        }
        let param_conds = self.param_conds(args);
        let from_conds = self.from_conds();
        let (snapshots, suffix_owned): (Vec<Vec<(String, Oid)>>, Vec<Cond>) = {
            let (snaps, suffix) = self
                .solve_prefix(db, recv, args, depth, &param_conds, &from_conds)
                .map_err(|e| self.fail(e.to_string()))?;
            (snaps, suffix.into_iter().cloned().collect())
        };
        // Mutation phase: per binding, evaluate the remaining conjuncts
        // left-to-right against the *current* database state.
        let mut surviving: Vec<Vec<(String, Oid)>> = Vec::new();
        'snap: for snap in snapshots {
            for c in &suffix_owned {
                match c {
                    Cond::Update(u) => {
                        exec_update(db, u, &snap, &self.opts)
                            .map_err(|e| self.fail(e.to_string()))?;
                        // An UPDATE conjunct is true iff it succeeded —
                        // a failure is an error, so reaching here means
                        // success.
                    }
                    other => {
                        let ctx = Ctx::with_depth(db, &self.opts, depth);
                        let mut bnd = Bindings::new();
                        for (n, o) in &snap {
                            bnd.push(n, *o);
                        }
                        if !ctx
                            .holds(other, &bnd)
                            .map_err(|e| self.fail(e.to_string()))?
                        {
                            continue 'snap;
                        }
                    }
                }
            }
            surviving.push(snap);
        }
        self.collect_result(db, &surviving, depth)
    }

    fn is_update(&self) -> bool {
        self.has_update
    }
}

/// Installs a resolved ALTER CLASS statement: declares the signature and
/// defines the query method on the class.
pub fn install_method(
    db: &mut Database,
    a: &AlterClass,
    opts: &EvalOptions,
) -> XsqlResult<(Oid, Oid)> {
    let class = db
        .oids()
        .find_sym(&a.class)
        .filter(|&c| db.is_class(c))
        .ok_or_else(|| XsqlError::Resolve(format!("unknown class `{}`", a.class)))?;
    let mut arg_classes = Vec::with_capacity(a.signature.args.len());
    for name in &a.signature.args {
        let c = db
            .oids()
            .find_sym(name)
            .filter(|&c| db.is_class(c))
            .ok_or_else(|| XsqlError::Resolve(format!("unknown class `{name}` in signature")))?;
        arg_classes.push(c);
    }
    let result_class = db
        .oids()
        .find_sym(&a.signature.result)
        .filter(|&c| db.is_class(c))
        .ok_or_else(|| {
            XsqlError::Resolve(format!(
                "unknown class `{}` in signature",
                a.signature.result
            ))
        })?;
    let method = db.add_signature(
        class,
        &a.signature.method,
        &arg_classes,
        result_class,
        a.signature.set_valued,
    )?;
    let qm = QueryMethod::from_alter(a, opts.clone())?;
    let arity = a.signature.args.len();
    db.define_method(class, method, arity, std::sync::Arc::new(qm))?;
    Ok((class, method))
}
