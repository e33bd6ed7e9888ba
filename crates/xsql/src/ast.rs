//! Abstract syntax of XSQL.
//!
//! The grammar covers everything the paper exhibits: extended path
//! expressions with ground/variable selectors and method expressions
//! (§3.1, §5), quantified and set comparators (§3.2), relation-producing
//! SELECT queries and the relational algebra over them (§3.3),
//! object-creating queries with `OID FUNCTION OF` and set-attribute
//! grouping (§4.1), views (§4.2), method definitions including update
//! methods (§5), and — as a flagged extension — the path variables the
//! paper sketches after query (3).
//!
//! Variable sorts follow §3.1: *individual* variables (`X`), *method*
//! variables (`"Y`), and *class* variables (`#X`, the paper's `§X`).

use std::fmt;

/// Sort of a variable (§3.1: "the variables can be of the following
/// variety: class-variables, method-variables, and individual-variables").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarSort {
    /// Ranges over ids of individual objects.
    Individual,
    /// Ranges over method-objects (attribute and method names).
    Method,
    /// Ranges over class-objects.
    Class,
}

impl fmt::Display for VarSort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            VarSort::Individual => "individual",
            VarSort::Method => "method",
            VarSort::Class => "class",
        })
    }
}

/// A sorted variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Var {
    /// Variable name (without sort prefix).
    pub name: String,
    /// Sort of the variable.
    pub sort: VarSort,
}

impl Var {
    /// Individual variable.
    pub fn ind(name: &str) -> Var {
        Var {
            name: name.into(),
            sort: VarSort::Individual,
        }
    }
    /// Method variable (`"Y`).
    pub fn method(name: &str) -> Var {
        Var {
            name: name.into(),
            sort: VarSort::Method,
        }
    }
    /// Class variable (`#X`).
    pub fn class(name: &str) -> Var {
        Var {
            name: name.into(),
            sort: VarSort::Class,
        }
    }
}

/// An id-term (§4.2): an oid constant, a variable, or an id-function
/// application `f(t1,…,tk)`.
#[derive(Debug, Clone, PartialEq)]
pub enum IdTerm {
    /// A resolved, interned OID constant. Produced by the resolver; the
    /// parser never emits this variant.
    Oid(oodb::Oid),
    /// Symbolic oid (`mary123`, `uniSQL`, `Person`, `Residence`).
    Sym(String),
    /// Integer numeral object.
    Int(i64),
    /// Real numeral object.
    Real(f64),
    /// String object (`'newyork'`).
    Str(String),
    /// Boolean object.
    Bool(bool),
    /// The object `nil` (§5).
    Nil,
    /// Positional parameter `?n` (1-based) inside a `PREPARE`d
    /// statement body. The resolver leaves parameters untouched;
    /// `Program::bind` substitutes bound argument OIDs at `EXECUTE` time.
    Param(u32),
    /// A variable of any sort.
    Var(Var),
    /// Id-function application, e.g. `CompSalaries(Y, W)` (§4.2).
    Func(String, Vec<IdTerm>),
    /// A scalar path expression used where an id-term is expected, e.g.
    /// the argument `Y.Name` in `(MngrSalary @ Y.Name)` or
    /// `CompSalaries(X.Manufacturer, W)` in query (10). The paper treats
    /// these as shorthand — "it should be viewed as a shorthand for
    /// writing (MngrSalary @ Z) … and adding the path expression
    /// `Y.Name[Z]` to the WHERE clause" — and the resolver performs exactly
    /// that rewriting.
    PathArg(Box<PathExpr>),
}

impl IdTerm {
    /// True if the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            IdTerm::Var(_) => false,
            IdTerm::Func(_, args) => args.iter().all(IdTerm::is_ground),
            IdTerm::PathArg(_) => false,
            // A parameter denotes an unknown (though fixed) object until
            // EXECUTE binds it, so treat it like a variable.
            IdTerm::Param(_) => false,
            _ => true,
        }
    }
}

/// The method part of a step: a method/attribute name or a method
/// variable.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodTerm {
    /// Fixed method/attribute name.
    Name(String),
    /// Method variable (ranges over method-objects).
    Var(String),
}

/// One step of a path expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// `.(Mthd @ a1,…,ak)[sel]` — a method expression with optional
    /// selector (§5); attributes are the 0-ary case `.Attr[sel]` (§3.1).
    Method {
        /// Method name or method variable.
        method: MethodTerm,
        /// Argument id-terms (desugared: path arguments become fresh
        /// variables plus extra conjuncts, as the paper prescribes for
        /// `(MngrSalary @ Y.Name)`).
        args: Vec<IdTerm>,
        /// Optional selector `[sel]`.
        selector: Option<IdTerm>,
    },
    /// `.*P[sel]` — a *path variable* bound to a sequence of attributes;
    /// the extension sketched after query (3). Matches 0‥=`MAX` steps of
    /// scalar/set 0-ary methods.
    PathVar {
        /// Name of the path variable.
        name: String,
        /// Optional selector on the path's endpoint.
        selector: Option<IdTerm>,
    },
}

/// An extended path expression (2)/(11):
/// `selector.MthdEx1[sel1].….MthdExm[selm]`.
#[derive(Debug, Clone, PartialEq)]
pub struct PathExpr {
    /// The mandatory head selector (a ground id-term, a variable, or —
    /// with the §4.2 extension — any id-term).
    pub head: IdTerm,
    /// The steps; empty means the trivial path (a selector is a path).
    pub steps: Vec<Step>,
}

impl PathExpr {
    /// A trivial path consisting of just a head selector.
    pub fn atom(head: IdTerm) -> PathExpr {
        PathExpr {
            head,
            steps: Vec::new(),
        }
    }
}

/// Quantifier modifying one side of a comparator (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quant {
    /// Existential: at least one member stands in the relation.
    Some,
    /// Universal: every member stands in the relation.
    All,
}

/// Elementary comparators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Set comparators (§3.2: "standard set-comparators as contains,
/// containsEq, subset, subsetEq").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetCmpOp {
    /// Proper superset.
    Contains,
    /// Superset or equal.
    ContainsEq,
    /// Proper subset.
    Subset,
    /// Subset or equal.
    SubsetEq,
}

/// Aggregate functions (§3.2: sum, count, average …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Cardinality of the value set.
    Count,
    /// Sum of numeral members.
    Sum,
    /// Average of numeral members.
    Avg,
    /// Minimum numeral member.
    Min,
    /// Maximum numeral member.
    Max,
}

/// Arithmetic operators usable in operands (needed by `RaiseMngrSalary`'s
/// `(1 + W/100) * X.(MngrSalary @ Y.Name)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// An operand of a comparison: denotes a set of objects (path
/// expressions evaluate to their value set, §3.2) or a computed number.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A path expression; its value is the set of tails.
    Path(PathExpr),
    /// An aggregate applied to a path expression.
    Agg(AggFunc, PathExpr),
    /// An explicit set literal `{'blue','red'}`.
    SetLit(Vec<IdTerm>),
    /// A nested SELECT used as a set operand (query (13)); may be
    /// correlated with outer variables.
    Subquery(Box<SelectQuery>),
    /// Scalar arithmetic over operands.
    Arith(Box<Operand>, ArithOp, Box<Operand>),
    /// Union of two set operands (§3.2 "we can also apply union,
    /// intersection, and set-difference to path expressions").
    Union(Box<Operand>, Box<Operand>),
    /// Intersection of two set operands.
    Intersection(Box<Operand>, Box<Operand>),
    /// Set difference of two set operands.
    Difference(Box<Operand>, Box<Operand>),
}

/// A condition of the WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// The empty condition (no WHERE clause).
    True,
    /// A stand-alone path expression: true iff its value is non-empty
    /// (§3.4).
    Path(PathExpr),
    /// A quantified comparison `left [q] op [q] right` (§3.2).
    Cmp {
        /// Left operand.
        left: Operand,
        /// Quantifier written before the comparator (applies to the left
        /// set); `None` defaults to `some`.
        lq: Option<Quant>,
        /// The comparator.
        op: CmpOp,
        /// Quantifier written after the comparator (applies to the right
        /// set); `None` defaults to `some`.
        rq: Option<Quant>,
        /// Right operand.
        right: Operand,
    },
    /// A set comparison `left contains right` etc.
    SetCmp {
        /// Left operand.
        left: Operand,
        /// The set comparator.
        op: SetCmpOp,
        /// Right operand.
        right: Operand,
    },
    /// `sub subclassOf sup` — the *strict* schema predicate of query (4).
    SubclassOf {
        /// Subclass term.
        sub: IdTerm,
        /// Superclass term.
        sup: IdTerm,
    },
    /// `obj instanceOf class` — companion schema predicate (the FROM
    /// clause is its implicit form: `FROM C X` ranges X over C).
    InstanceOf {
        /// Object term.
        obj: IdTerm,
        /// Class term.
        class: IdTerm,
    },
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
    /// A nested UPDATE used as a conjunct inside a method body (§5);
    /// "an UPDATE clause evaluates to true if and only if the update was
    /// successful", conjuncts evaluated left-to-right.
    Update(UpdateStmt),
}

/// One binding of the FROM clause, `FROM Class X`. The class position
/// may itself be a class variable (`FROM #X Y`, the query template of
/// §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    /// The range: a class name or a class variable.
    pub class: IdTerm,
    /// The bound variable.
    pub var: Var,
}

/// A target-list item of the SELECT clause.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A scalar path expression / operand (§3.3): one output column.
    Expr(Operand),
    /// `Attr = expr` — explicit attribute naming used by object-creating
    /// queries and views (§4.1).
    Named {
        /// Attribute name in the created objects.
        attr: String,
        /// The value expression.
        value: SelectValue,
    },
    /// `(Mthd @ a1,…,ak) = expr` inside a method definition (§5).
    MethodResult {
        /// Name of the method being defined.
        method: String,
        /// The formal argument terms.
        args: Vec<IdTerm>,
        /// The result expression (e.g. `W`, or `nil` for update methods).
        value: Operand,
    },
}

/// Value shape of a named SELECT item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectValue {
    /// An operand evaluated per satisfying binding.
    Expr(Operand),
    /// `{W}` — the set of all `W` satisfying the WHERE clause for the
    /// fixed OID-function arguments (query (8); plays the role of SQL's
    /// GROUP BY, as the paper notes).
    Grouped(Var),
}

/// The `OID FUNCTION OF X,W` clause (§4.1) or its abbreviation `OID X`
/// (§5).
#[derive(Debug, Clone, PartialEq)]
pub struct OidSpec {
    /// Explicit id-function name; queries leave it anonymous (the engine
    /// generates one), views use the view name (§4.2).
    pub function: Option<String>,
    /// The variables the id-function depends on.
    pub vars: Vec<Var>,
}

/// A SELECT query (§3.3, §4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// Target list.
    pub select: Vec<SelectItem>,
    /// FROM bindings.
    pub from: Vec<FromItem>,
    /// Optional object-creating clause.
    pub oid_fn: Option<OidSpec>,
    /// The WHERE condition (`Cond::True` when absent).
    pub where_clause: Cond,
}

/// A signature declaration, e.g. `MngrSalary : String => Numeral` or
/// `CompName => String` (0-ary).
#[derive(Debug, Clone, PartialEq)]
pub struct SigDecl {
    /// Method name.
    pub method: String,
    /// Argument class names.
    pub args: Vec<String>,
    /// Result class name.
    pub result: String,
    /// True for `=>>` (set-valued).
    pub set_valued: bool,
}

/// `CREATE VIEW name AS SUBCLASS OF cls SIGNATURE … SELECT …` (§4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct CreateView {
    /// View (class) name; doubles as the id-function name.
    pub name: String,
    /// Superclass of the new view class.
    pub superclass: String,
    /// Attribute signatures of the view.
    pub signature: Vec<SigDecl>,
    /// The defining query; must carry an `OID FUNCTION OF` clause.
    pub query: SelectQuery,
}

/// `ALTER CLASS c ADD SIGNATURE … SELECT (M @ …) = … OID X WHERE …`
/// (§5, queries (12) and `RaiseMngrSalary`).
#[derive(Debug, Clone, PartialEq)]
pub struct AlterClass {
    /// The class whose definition is extended.
    pub class: String,
    /// The added signature.
    pub signature: SigDecl,
    /// The defining query (its single SELECT item is
    /// [`SelectItem::MethodResult`]; `oid_fn.vars` holds the self
    /// variable from the abbreviated `OID X` clause).
    pub query: SelectQuery,
}

/// One assignment of an UPDATE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Path whose final step designates the attribute to write.
    pub target: PathExpr,
    /// New value.
    pub value: Operand,
}

/// `UPDATE CLASS c SET path = expr, …` (§5).
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    /// The class the update is declared against.
    pub class: String,
    /// The assignments, applied to every binding satisfying the paths.
    pub assignments: Vec<Assignment>,
}

/// Relational algebra connective between whole queries (§3.3 "relations
/// computed by queries can be manipulated by relational algebra
/// operators").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelOp {
    /// UNION
    Union,
    /// MINUS
    Minus,
    /// INTERSECT
    Intersect,
}

/// `CREATE CLASS name [AS SUBCLASS OF A, B]` — engineering extension:
/// the paper defines schemas in its data model; this surfaces class
/// definition in the language so an XSQL session is self-sufficient.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateClass {
    /// New class name.
    pub name: String,
    /// Superclass names (empty: directly under `Object`).
    pub supers: Vec<String>,
}

/// `CREATE OBJECT name CLASS c1, c2 [SET attr = expr, …]` — engineering
/// extension creating a named individual with initial attribute values.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateObject {
    /// Symbolic OID of the new individual.
    pub name: String,
    /// Classes the individual belongs to.
    pub classes: Vec<String>,
    /// Initial attribute assignments.
    pub sets: Vec<(String, Operand)>,
}

/// A top-level XSQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A SELECT (possibly object-creating) query.
    Select(SelectQuery),
    /// `q1 UNION q2`, `q1 MINUS q2`, `q1 INTERSECT q2`.
    RelOp {
        /// Left query.
        left: Box<Stmt>,
        /// Connective.
        op: RelOp,
        /// Right query.
        right: Box<Stmt>,
    },
    /// View creation.
    CreateView(CreateView),
    /// Method definition.
    AlterClass(AlterClass),
    /// Pure signature declaration: `ALTER CLASS c ADD SIGNATURE decl`
    /// with no defining SELECT (the attribute declarations of §2).
    AddSignature {
        /// The class being extended.
        class: String,
        /// The declared signature.
        signature: SigDecl,
    },
    /// Stand-alone update.
    Update(UpdateStmt),
    /// Class definition (extension).
    CreateClass(CreateClass),
    /// Individual creation (extension).
    CreateObject(CreateObject),
    /// `EXPLAIN [ANALYZE] <select>`. Plain `EXPLAIN` produces the §6
    /// typing analysis report plus the static plan without running the
    /// query; `EXPLAIN ANALYZE` additionally executes it and reports
    /// the measured execution profile. Only SELECT statements may be
    /// explained — the parser rejects anything else with a span error.
    Explain {
        /// True for `EXPLAIN ANALYZE` (run the query, profile it).
        analyze: bool,
        /// The SELECT being explained.
        stmt: Box<Stmt>,
    },
    /// `STATS` — render the session's telemetry registry (metric
    /// exposition; engineering extension, see docs/OBSERVABILITY.md).
    Stats,
    /// `BEGIN [WORK]` — open an explicit transaction (engineering
    /// extension; the paper's model has no transactions, but a
    /// production engine needs statement grouping).
    Begin,
    /// `COMMIT [WORK]` — make the open transaction permanent.
    Commit,
    /// `ROLLBACK [WORK]` — undo the open transaction back to its
    /// `BEGIN`.
    Rollback,
    /// `WAL ON` — enable write-ahead logging on the session's store
    /// (engineering extension; forces a checkpoint first so the log
    /// never has a gap).
    WalOn,
    /// `WAL OFF` — disable write-ahead logging (later statements are
    /// not durable until the next checkpoint).
    WalOff,
    /// `CHECKPOINT` — write a snapshot of the database to the store and
    /// truncate the WAL.
    Checkpoint,
    /// `PREPARE name AS <stmt>` — resolve a statement (which may
    /// contain `?1`-style positional parameters) once and register it
    /// under `name` in the session (engineering extension; see
    /// docs/PREPARED.md). Prepared statements are session-local and are not
    /// logged to the WAL: after a crash the client must re-PREPARE.
    Prepare {
        /// The registration name.
        name: String,
        /// The statement body (parsed, unresolved).
        stmt: Box<Stmt>,
    },
    /// `EXECUTE name (a1, …, ak)` — run a prepared statement with the
    /// given ground argument terms bound to `?1…?k`.
    Execute {
        /// The registration name.
        name: String,
        /// Ground argument terms, positionally bound to `?1…?k`.
        args: Vec<IdTerm>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idterm_groundness() {
        assert!(IdTerm::Sym("uniSQL".into()).is_ground());
        assert!(!IdTerm::Var(Var::ind("X")).is_ground());
        assert!(!IdTerm::Func(
            "CompSalaries".into(),
            vec![IdTerm::Var(Var::ind("Y")), IdTerm::Int(3)]
        )
        .is_ground());
        assert!(IdTerm::Func("secretary".into(), vec![IdTerm::Sym("dept77".into())]).is_ground());
    }

    #[test]
    fn trivial_path_is_selector() {
        let p = PathExpr::atom(IdTerm::Int(20));
        assert!(p.steps.is_empty());
    }
}
