//! Views (§4.2): `CREATE VIEW … AS SUBCLASS OF … SIGNATURE … SELECT …`,
//! materialization, refresh, and view-update translation.

use super::create::run_creation;
use super::EvalOptions;
use crate::ast::*;
use crate::error::{XsqlError, XsqlResult};
use oodb::{Database, Oid, OidData};
use std::collections::BTreeMap;

/// A registered view: its class, its defining query and its signature.
/// The id-function of the view is its name (§4.2: the expression
/// `CompSalaries(Y,W)` denotes the object the view's id-function assigns
/// to `(y,w)`).
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// View (= class = id-function) name.
    pub name: String,
    /// The view's class-object.
    pub class: Oid,
    /// The resolved defining query (carries the OID FUNCTION OF clause).
    pub query: SelectQuery,
    /// Declared attribute signatures.
    pub signature: Vec<SigDecl>,
}

impl ViewDef {
    fn sig_kinds(&self) -> BTreeMap<String, bool> {
        self.signature
            .iter()
            .map(|s| (s.method.clone(), s.set_valued))
            .collect()
    }
}

/// Creates the view class, declares its signatures, and materializes it.
/// Returns the definition and the created view objects.
pub fn create_view(
    db: &mut Database,
    v: &CreateView,
    opts: &EvalOptions,
) -> XsqlResult<(ViewDef, Vec<Oid>)> {
    let superclass = db
        .oids()
        .find_sym(&v.superclass)
        .filter(|&c| db.is_class(c))
        .ok_or_else(|| {
            XsqlError::Resolve(format!("unknown superclass `{}` for view", v.superclass))
        })?;
    let class = db.define_class(&v.name, &[superclass])?;
    for s in &v.signature {
        let mut args = Vec::with_capacity(s.args.len());
        for name in &s.args {
            let c = db
                .oids()
                .find_sym(name)
                .filter(|&c| db.is_class(c))
                .ok_or_else(|| {
                    XsqlError::Resolve(format!("unknown class `{name}` in view signature"))
                })?;
            args.push(c);
        }
        let result = db
            .oids()
            .find_sym(&s.result)
            .filter(|&c| db.is_class(c))
            .ok_or_else(|| {
                XsqlError::Resolve(format!("unknown class `{}` in view signature", s.result))
            })?;
        db.add_signature(class, &s.method, &args, result, s.set_valued)?;
    }
    let def = ViewDef {
        name: v.name.clone(),
        class,
        query: v.query.clone(),
        signature: v.signature.clone(),
    };
    let oids = materialize(db, &def, opts)?;
    Ok((def, oids))
}

/// Rebuilds a [`ViewDef`] for a view whose class and materialized
/// extent already exist (e.g. restored from a storage snapshot): looks
/// the class up instead of defining it, and does **not** re-run the
/// defining query. Recovery uses this for definitions-only replay of
/// the catalog — the snapshot carries the state, only the in-session
/// definition (a closure over the resolved query) needs rebuilding.
pub fn reattach_view(db: &Database, v: &CreateView) -> XsqlResult<ViewDef> {
    let class = db
        .oids()
        .find_sym(&v.name)
        .filter(|&c| db.is_class(c))
        .ok_or_else(|| {
            XsqlError::Resolve(format!(
                "view class `{}` not present in the restored database",
                v.name
            ))
        })?;
    Ok(ViewDef {
        name: v.name.clone(),
        class,
        query: v.query.clone(),
        signature: v.signature.clone(),
    })
}

/// (Re)materializes a view: runs the defining query; view objects whose
/// key no longer satisfies the query are dropped from the extent and
/// their state cleared.
pub fn materialize(db: &mut Database, def: &ViewDef, opts: &EvalOptions) -> XsqlResult<Vec<Oid>> {
    let before: Vec<Oid> = db.instances_of(def.class).into_iter().collect();
    let created = run_creation(
        db,
        &def.query,
        opts,
        &def.name,
        Some(def.class),
        &def.sig_kinds(),
    )?;
    for stale in before {
        if !created.contains(&stale) {
            db.remove_instance(stale, def.class);
            for s in &def.signature {
                if let Some(m) = db.oids().find_sym(&s.method) {
                    db.remove_value(stale, m, &[]);
                }
            }
        }
    }
    Ok(created)
}

/// Translates an update on a view object's attribute to an update on the
/// underlying database (§4.2). Requires the one-to-one correspondence
/// the paper requires: the view's id-function must depend on exactly one
/// variable, and the attribute's defining expression must be a path
/// expression rooted at that variable with named 0-ary scalar steps —
/// then the view object corresponds to one base object and the paper's
/// translation applies (e.g. raising `Salary` through `CompSalaries`
/// updates the underlying employee).
pub fn update_through_view(
    db: &mut Database,
    def: &ViewDef,
    view_obj: Oid,
    attr: &str,
    new_value: Oid,
) -> XsqlResult<()> {
    let spec = def
        .query
        .oid_fn
        .as_ref()
        .ok_or_else(|| XsqlError::ViewUpdate("view has no OID FUNCTION OF clause".into()))?;
    // Locate the defining expression of `attr`.
    let mut def_path: Option<&PathExpr> = None;
    for item in &def.query.select {
        if let SelectItem::Named {
            attr: a,
            value: SelectValue::Expr(Operand::Path(p)),
        } = item
        {
            if a == attr {
                def_path = Some(p);
            }
        }
    }
    let p = def_path.ok_or_else(|| {
        XsqlError::ViewUpdate(format!(
            "attribute `{attr}` is not defined by a path expression in view `{}`",
            def.name
        ))
    })?;
    let IdTerm::Var(root) = &p.head else {
        return Err(XsqlError::ViewUpdate(format!(
            "attribute `{attr}` is not rooted at a view variable"
        )));
    };
    // One-to-one correspondence: the id-function depends only on the
    // root variable of this attribute's path.
    let root_pos = spec
        .vars
        .iter()
        .position(|v| v.name == root.name)
        .ok_or_else(|| {
            XsqlError::ViewUpdate(format!(
                "`{attr}` is rooted at `{}`, which the id-function does not depend on",
                root.name
            ))
        })?;
    if spec.vars.len() != 1 {
        return Err(XsqlError::ViewUpdate(format!(
            "view `{}` objects are not in one-to-one correspondence with a base class \
             (its id-function depends on {} variables)",
            def.name,
            spec.vars.len()
        )));
    }
    // Recover the base object from the view object's id-term.
    let fn_sym = db
        .oids()
        .find_sym(&def.name)
        .ok_or_else(|| XsqlError::ViewUpdate("view id-function not interned".into()))?;
    let base = match db.oids().get(view_obj) {
        OidData::Func(f, args) if *f == fn_sym && args.len() == spec.vars.len() => args[root_pos],
        _ => {
            return Err(XsqlError::ViewUpdate(format!(
                "`{}` is not an object of view `{}`",
                db.render(view_obj),
                def.name
            )))
        }
    };
    // Walk the scalar prefix to the object holding the final attribute.
    let mut cur = base;
    let Some((last, prefix)) = p.steps.split_last() else {
        return Err(XsqlError::ViewUpdate(format!(
            "attribute `{attr}` mirrors the base object itself and cannot be updated"
        )));
    };
    for step in prefix {
        let Step::Method {
            method: MethodTerm::Name(n),
            args,
            selector: _,
        } = step
        else {
            return Err(XsqlError::ViewUpdate(
                "view-update paths must consist of named attribute steps".into(),
            ));
        };
        if !args.is_empty() {
            return Err(XsqlError::ViewUpdate(
                "view-update paths cannot pass method arguments".into(),
            ));
        }
        let m = db
            .oids()
            .find_sym(n)
            .ok_or_else(|| XsqlError::ViewUpdate(format!("unknown attribute `{n}`")))?;
        let v = db
            .value(cur, m, &[])?
            .ok_or_else(|| XsqlError::ViewUpdate(format!("`{n}` undefined along the path")))?;
        cur = v.as_scalar().ok_or_else(|| {
            XsqlError::ViewUpdate(format!("`{n}` is set-valued; no one-to-one correspondence"))
        })?;
    }
    let Step::Method {
        method: MethodTerm::Name(n),
        args,
        ..
    } = last
    else {
        return Err(XsqlError::ViewUpdate(
            "view-update target must end in a named attribute".into(),
        ));
    };
    if !args.is_empty() {
        return Err(XsqlError::ViewUpdate(
            "view-update target cannot pass method arguments".into(),
        ));
    }
    let m = db.oids_mut().sym(n);
    db.set_scalar(cur, m, &[], new_value)?;
    // Keep the materialized view consistent.
    let attr_sym = db.oids_mut().sym(attr);
    db.set_scalar(view_obj, attr_sym, &[], new_value)?;
    Ok(())
}
