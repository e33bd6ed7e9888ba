//! Recursive-descent parser for XSQL.
//!
//! Produces the [`crate::ast`] representation. Bare identifiers are
//! parsed as symbols; the resolver (`resolve` module) later reclassifies
//! those that denote variables, because the rule — FROM-clause binders
//! plus the paper's single-uppercase-letter convention — needs the whole
//! statement. Keywords are case-insensitive, identifiers are not.

use crate::ast::*;
use crate::error::{XsqlError, XsqlResult};
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

thread_local! {
    static PARSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Parses one XSQL statement. Lex/parse errors carry a line/column
/// location computed from the source.
pub fn parse(src: &str) -> XsqlResult<Stmt> {
    PARSES.with(|n| n.set(n.get() + 1));
    parse_inner(src).map_err(|e| e.with_location(src))
}

/// How many times [`parse`] ran on the calling thread — lets tests pin
/// how often a request is parsed on its way through a server.
#[doc(hidden)]
pub fn parses_on_this_thread() -> u64 {
    PARSES.with(|n| n.get())
}

fn parse_inner(src: &str) -> XsqlResult<Stmt> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let stmt = p.stmt()?;
    p.expect_eof()?;
    Ok(stmt)
}

/// Parses a script: statements separated by `;`. Lex/parse errors carry
/// a line/column location computed from the source.
pub fn parse_script(src: &str) -> XsqlResult<Vec<Stmt>> {
    parse_script_inner(src).map_err(|e| e.with_location(src))
}

fn parse_script_inner(src: &str) -> XsqlResult<Vec<Stmt>> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut out = Vec::new();
    loop {
        while p.eat(&TokenKind::Semi) {}
        if matches!(p.peek(), TokenKind::Eof) {
            break;
        }
        out.push(p.stmt()?);
    }
    Ok(out)
}

const RESERVED: &[&str] = &[
    // `function` is deliberately NOT reserved: Figure 1 itself declares
    // a `Function` attribute; the keyword is only recognized right after
    // OID, where no identifier can occur.
    "select",
    "from",
    "where",
    "and",
    "or",
    "not",
    "oid",
    "of",
    "create",
    "view",
    "as",
    "subclass",
    "alter",
    "class",
    "add",
    "signature",
    "update",
    "set",
    "union",
    "minus",
    "intersect",
    "except",
    "some",
    "all",
    "contains",
    "containseq",
    "subset",
    "subseteq",
    "subclassof",
    "instanceof",
    "count",
    "sum",
    "avg",
    "min",
    "max",
    "nil",
    "true",
    "false",
    "explain",
];

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].kind
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].offset
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        k
    }

    fn eat(&mut self, k: &TokenKind) -> bool {
        if self.peek() == k {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, k: TokenKind) -> XsqlResult<()> {
        if self.peek() == &k {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {k}, found {}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> XsqlResult<()> {
        self.eat(&TokenKind::Semi);
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input: {}", self.peek())))
        }
    }

    fn err(&self, msg: impl Into<String>) -> XsqlError {
        XsqlError::parse(self.offset(), msg)
    }

    /// True if the current token is the case-insensitive keyword `kw`.
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> XsqlResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword `{kw}`, found {}", self.peek())))
        }
    }

    /// An identifier that is not a reserved word.
    fn ident(&mut self) -> XsqlResult<String> {
        match self.peek() {
            TokenKind::Ident(s) if !RESERVED.contains(&s.to_ascii_lowercase().as_str()) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            t => Err(self.err(format!("expected identifier, found {t}"))),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn stmt(&mut self) -> XsqlResult<Stmt> {
        if self.eat_kw("explain") {
            let analyze = self.eat_kw("analyze");
            let inner_at = self.offset();
            let inner = self.stmt()?;
            // EXPLAIN applies to queries only; explaining a DDL,
            // update or transaction-control statement is an error at
            // the inner statement's position, never a silent no-op.
            // A UNION/MINUS/INTERSECT combination is rejected too: the
            // typing report and the profile collector both work on a
            // single SELECT.
            return match inner {
                Stmt::Select(_) => Ok(Stmt::Explain {
                    analyze,
                    stmt: Box::new(inner),
                }),
                Stmt::RelOp { .. } => Err(XsqlError::parse(
                    inner_at,
                    "EXPLAIN applies to a single SELECT query, not a \
                     UNION/MINUS/INTERSECT combination",
                )),
                _ => Err(XsqlError::parse(
                    inner_at,
                    "EXPLAIN applies to SELECT queries only",
                )),
            };
        }
        // `STATS` renders the telemetry registry (contextual keyword,
        // statement-initial position only).
        if self.eat_kw("stats") {
            return Ok(Stmt::Stats);
        }
        // Transaction control. `begin`/`commit`/`rollback`/`work` are
        // recognized contextually (statement-initial position only) so
        // they stay usable as identifiers elsewhere.
        if self.eat_kw("begin") {
            self.eat_kw("work");
            return Ok(Stmt::Begin);
        }
        if self.eat_kw("commit") {
            self.eat_kw("work");
            return Ok(Stmt::Commit);
        }
        if self.eat_kw("rollback") {
            self.eat_kw("work");
            return Ok(Stmt::Rollback);
        }
        // Storage control (same contextual-keyword treatment): `WAL ON`,
        // `WAL OFF`, `CHECKPOINT`.
        if self.at_kw("wal") {
            self.bump();
            if self.eat_kw("on") {
                return Ok(Stmt::WalOn);
            }
            if self.eat_kw("off") {
                return Ok(Stmt::WalOff);
            }
            return Err(self.err("expected ON or OFF after WAL"));
        }
        if self.eat_kw("checkpoint") {
            return Ok(Stmt::Checkpoint);
        }
        // Prepared statements (contextual keywords, statement-initial):
        // `PREPARE name AS <stmt>` / `EXECUTE name (a1, …, ak)`.
        if self.at_kw("prepare") && matches!(self.peek2(), TokenKind::Ident(_)) {
            self.bump();
            let name = self.ident()?;
            self.expect_kw("as")?;
            let inner_at = self.offset();
            let inner = self.stmt()?;
            return match inner {
                Stmt::Prepare { .. } | Stmt::Execute { .. } => Err(XsqlError::parse(
                    inner_at,
                    "a prepared statement cannot itself be PREPARE or EXECUTE",
                )),
                Stmt::Explain { .. } => Err(XsqlError::parse(
                    inner_at,
                    "EXPLAIN cannot be prepared; prepare the SELECT itself",
                )),
                _ => Ok(Stmt::Prepare {
                    name,
                    stmt: Box::new(inner),
                }),
            };
        }
        if self.at_kw("execute") && matches!(self.peek2(), TokenKind::Ident(_)) {
            self.bump();
            let name = self.ident()?;
            let mut args = Vec::new();
            if self.eat(&TokenKind::LParen) {
                if !matches!(self.peek(), TokenKind::RParen) {
                    args.push(self.idterm()?);
                    while self.eat(&TokenKind::Comma) {
                        args.push(self.idterm()?);
                    }
                }
                self.expect(TokenKind::RParen)?;
            }
            return Ok(Stmt::Execute { name, args });
        }
        if self.at_kw("create") {
            return match self.peek2() {
                TokenKind::Ident(k) if k.eq_ignore_ascii_case("class") => self.create_class(),
                TokenKind::Ident(k) if k.eq_ignore_ascii_case("object") => self.create_object(),
                _ => Ok(Stmt::CreateView(self.create_view()?)),
            };
        }
        if self.at_kw("alter") {
            return self.alter_class();
        }
        if self.at_kw("update") {
            return Ok(Stmt::Update(self.update_stmt()?));
        }
        let mut left = Stmt::Select(self.select_query()?);
        loop {
            let op = if self.eat_kw("union") {
                RelOp::Union
            } else if self.eat_kw("minus") || self.eat_kw("except") {
                RelOp::Minus
            } else if self.eat_kw("intersect") {
                RelOp::Intersect
            } else {
                break;
            };
            let right = if self.eat(&TokenKind::LParen) {
                let s = self.stmt()?;
                self.expect(TokenKind::RParen)?;
                s
            } else {
                Stmt::Select(self.select_query()?)
            };
            left = Stmt::RelOp {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn select_query(&mut self) -> XsqlResult<SelectQuery> {
        self.expect_kw("select")?;
        let mut select = vec![self.select_item()?];
        while self.eat(&TokenKind::Comma) {
            select.push(self.select_item()?);
        }
        let mut from = Vec::new();
        if self.eat_kw("from") {
            from.push(self.from_item()?);
            while self.eat(&TokenKind::Comma) {
                from.push(self.from_item()?);
            }
        }
        let oid_fn = if self.eat_kw("oid") {
            Some(self.oid_spec()?)
        } else {
            None
        };
        let where_clause = if self.eat_kw("where") {
            self.cond()?
        } else {
            Cond::True
        };
        Ok(SelectQuery {
            select,
            from,
            oid_fn,
            where_clause,
        })
    }

    fn select_item(&mut self) -> XsqlResult<SelectItem> {
        // `(M @ args) = expr` — method-result item of a method definition.
        if matches!(self.peek(), TokenKind::LParen) && matches!(self.peek2(), TokenKind::Ident(_)) {
            let save = self.pos;
            self.bump(); // (
            if let Ok(name) = self.ident() {
                if self.eat(&TokenKind::At) {
                    let mut args = Vec::new();
                    if !matches!(self.peek(), TokenKind::RParen) {
                        args.push(self.idterm_or_patharg()?);
                        while self.eat(&TokenKind::Comma) {
                            args.push(self.idterm_or_patharg()?);
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    self.expect(TokenKind::Eq)?;
                    let value = self.operand()?;
                    return Ok(SelectItem::MethodResult {
                        method: name,
                        args,
                        value,
                    });
                }
            }
            self.pos = save;
        }
        // `Attr = expr` or `Attr = {W}` — named item.
        if let TokenKind::Ident(name) = self.peek() {
            let is_named = !RESERVED.contains(&name.to_ascii_lowercase().as_str())
                && matches!(self.peek2(), TokenKind::Eq);
            if is_named {
                let attr = self.ident()?;
                self.expect(TokenKind::Eq)?;
                if self.eat(&TokenKind::LBrace) {
                    let v = self.plain_var()?;
                    self.expect(TokenKind::RBrace)?;
                    return Ok(SelectItem::Named {
                        attr,
                        value: SelectValue::Grouped(v),
                    });
                }
                let value = self.operand()?;
                return Ok(SelectItem::Named {
                    attr,
                    value: SelectValue::Expr(value),
                });
            }
        }
        Ok(SelectItem::Expr(self.operand()?))
    }

    /// A bare variable token in a position that must be a variable
    /// (e.g. inside `{W}` or in OID/FROM clauses).
    fn plain_var(&mut self) -> XsqlResult<Var> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(Var::ind(&s)),
            TokenKind::MethodVar(s) => Ok(Var::method(&s)),
            TokenKind::ClassVar(s) => Ok(Var::class(&s)),
            t => Err(self.err(format!("expected variable, found {t}"))),
        }
    }

    #[allow(clippy::wrong_self_convention)] // parses a FROM-clause item
    fn from_item(&mut self) -> XsqlResult<FromItem> {
        let class = match self.bump() {
            TokenKind::Ident(s) => IdTerm::Sym(s),
            TokenKind::ClassVar(s) => IdTerm::Var(Var::class(&s)),
            t => return Err(self.err(format!("expected class name or class variable, found {t}"))),
        };
        let var = self.plain_var()?;
        Ok(FromItem { class, var })
    }

    fn oid_spec(&mut self) -> XsqlResult<OidSpec> {
        // `OID FUNCTION OF X,W` — full form; `OID X` — abbreviation (§5).
        if self.eat_kw("function") {
            self.expect_kw("of")?;
        }
        let mut vars = vec![self.plain_var()?];
        while self.eat(&TokenKind::Comma) {
            vars.push(self.plain_var()?);
        }
        Ok(OidSpec {
            function: None,
            vars,
        })
    }

    // ------------------------------------------------------------------
    // Conditions
    // ------------------------------------------------------------------

    fn cond(&mut self) -> XsqlResult<Cond> {
        let mut left = self.and_cond()?;
        while self.eat_kw("or") {
            let right = self.and_cond()?;
            left = Cond::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_cond(&mut self) -> XsqlResult<Cond> {
        let mut left = self.unary_cond()?;
        while self.eat_kw("and") {
            let right = self.unary_cond()?;
            left = Cond::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary_cond(&mut self) -> XsqlResult<Cond> {
        if self.eat_kw("not") {
            let inner = self.unary_cond()?;
            return Ok(Cond::Not(Box::new(inner)));
        }
        if self.at_kw("update") {
            return Ok(Cond::Update(self.update_stmt()?));
        }
        // `( cond )` vs an operand starting with `(` — try the
        // parenthesized condition first and backtrack on failure.
        if matches!(self.peek(), TokenKind::LParen) && !self.subquery_ahead() {
            let save = self.pos;
            self.bump();
            if let Ok(c) = self.cond() {
                if self.eat(&TokenKind::RParen) {
                    // Only accept if it was genuinely a condition — a
                    // lone path would also parse, which is harmless
                    // (same semantics), but a follow-up comparator means
                    // the parens belonged to an operand.
                    if !self.comparator_ahead() && !self.arith_ahead() {
                        return Ok(c);
                    }
                }
            }
            self.pos = save;
        }
        self.atom_cond()
    }

    fn subquery_ahead(&self) -> bool {
        matches!(self.peek(), TokenKind::LParen)
            && matches!(self.peek2(), TokenKind::Ident(s) if s.eq_ignore_ascii_case("select"))
    }

    fn comparator_ahead(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Eq
                | TokenKind::Ne
                | TokenKind::Lt
                | TokenKind::Le
                | TokenKind::Gt
                | TokenKind::Ge
        ) || self.at_kw("some")
            || self.at_kw("all")
            || self.at_kw("contains")
            || self.at_kw("containseq")
            || self.at_kw("subset")
            || self.at_kw("subseteq")
    }

    fn arith_ahead(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Plus | TokenKind::Minus | TokenKind::Star | TokenKind::Slash
        )
    }

    fn atom_cond(&mut self) -> XsqlResult<Cond> {
        let left = self.operand()?;
        // Schema predicates `subclassOf` / `instanceOf` take id-terms.
        if self.at_kw("subclassof") || self.at_kw("instanceof") {
            let is_sub = self.at_kw("subclassof");
            self.bump();
            let lterm = operand_as_idterm(&left)
                .ok_or_else(|| self.err("left side of subclassOf/instanceOf must be an id-term"))?;
            let rterm = {
                let right = self.operand()?;
                operand_as_idterm(&right).ok_or_else(|| {
                    self.err("right side of subclassOf/instanceOf must be an id-term")
                })?
            };
            return Ok(if is_sub {
                Cond::SubclassOf {
                    sub: lterm,
                    sup: rterm,
                }
            } else {
                Cond::InstanceOf {
                    obj: lterm,
                    class: rterm,
                }
            });
        }
        // Set comparators.
        for (kw, op) in [
            ("containseq", SetCmpOp::ContainsEq),
            ("contains", SetCmpOp::Contains),
            ("subseteq", SetCmpOp::SubsetEq),
            ("subset", SetCmpOp::Subset),
        ] {
            if self.eat_kw(kw) {
                let right = self.operand()?;
                return Ok(Cond::SetCmp { left, op, right });
            }
        }
        // Quantified comparison: [quant] op [quant].
        let lq = self.quantifier();
        let op = match self.peek() {
            TokenKind::Eq => Some(CmpOp::Eq),
            TokenKind::Ne => Some(CmpOp::Ne),
            TokenKind::Lt => Some(CmpOp::Lt),
            TokenKind::Le => Some(CmpOp::Le),
            TokenKind::Gt => Some(CmpOp::Gt),
            TokenKind::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rq = self.quantifier();
            let right = self.operand()?;
            return Ok(Cond::Cmp {
                left,
                lq,
                op,
                rq,
                right,
            });
        }
        if lq.is_some() {
            return Err(self.err("quantifier must be followed by a comparator"));
        }
        // A stand-alone path expression.
        match left {
            Operand::Path(p) => Ok(Cond::Path(p)),
            _ => Err(self.err("expected comparator after operand")),
        }
    }

    fn quantifier(&mut self) -> Option<Quant> {
        if self.eat_kw("some") {
            Some(Quant::Some)
        } else if self.eat_kw("all") {
            Some(Quant::All)
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // Operands
    // ------------------------------------------------------------------

    fn operand(&mut self) -> XsqlResult<Operand> {
        // Lowest precedence: set operators over operands (§3.2 allows
        // union/intersection/difference of path expressions).
        let mut left = self.arith_expr()?;
        loop {
            // A set operator followed by SELECT is the *statement-level*
            // relational operator (§3.3), not an operand-level set op.
            let stmt_level =
                matches!(self.peek2(), TokenKind::Ident(s) if s.eq_ignore_ascii_case("select"));
            if stmt_level
                && (self.at_kw("union")
                    || self.at_kw("intersect")
                    || self.at_kw("except")
                    || self.at_kw("minus"))
            {
                break;
            }
            let ctor: fn(Box<Operand>, Box<Operand>) -> Operand = if self.eat_kw("union") {
                Operand::Union
            } else if self.eat_kw("intersect") {
                Operand::Intersection
            } else if self.eat_kw("except") || self.eat_kw("minus") {
                Operand::Difference
            } else {
                break;
            };
            let right = self.arith_expr()?;
            left = ctor(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn arith_expr(&mut self) -> XsqlResult<Operand> {
        let mut left = self.arith_term()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => ArithOp::Add,
                TokenKind::Minus => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.arith_term()?;
            left = Operand::Arith(Box::new(left), op, Box::new(right));
        }
        Ok(left)
    }

    fn arith_term(&mut self) -> XsqlResult<Operand> {
        let mut left = self.arith_factor()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => ArithOp::Mul,
                TokenKind::Slash => ArithOp::Div,
                _ => break,
            };
            self.bump();
            let right = self.arith_factor()?;
            left = Operand::Arith(Box::new(left), op, Box::new(right));
        }
        Ok(left)
    }

    fn arith_factor(&mut self) -> XsqlResult<Operand> {
        // Unary minus: a negative numeral literal (which may head a
        // path expression, e.g. `-347.Salary`), else 0 - factor.
        if matches!(self.peek(), TokenKind::Minus) {
            if matches!(self.peek2(), TokenKind::Int(_) | TokenKind::Real(_)) {
                self.bump();
                let head = match self.bump() {
                    TokenKind::Int(v) => IdTerm::Int(-v),
                    TokenKind::Real(v) => IdTerm::Real(-v),
                    _ => unreachable!(),
                };
                let mut steps = Vec::new();
                while self.eat(&TokenKind::Dot) {
                    steps.push(self.step()?);
                }
                return Ok(Operand::Path(PathExpr { head, steps }));
            }
            self.bump();
            let inner = self.arith_factor()?;
            return Ok(Operand::Arith(
                Box::new(Operand::Path(PathExpr::atom(IdTerm::Int(0)))),
                ArithOp::Sub,
                Box::new(inner),
            ));
        }
        // Aggregates.
        for (kw, f) in [
            ("count", AggFunc::Count),
            ("sum", AggFunc::Sum),
            ("avg", AggFunc::Avg),
            ("min", AggFunc::Min),
            ("max", AggFunc::Max),
        ] {
            if self.at_kw(kw) {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let p = self.path_expr()?;
                self.expect(TokenKind::RParen)?;
                return Ok(Operand::Agg(f, p));
            }
        }
        // Set literal.
        if self.eat(&TokenKind::LBrace) {
            let mut items = Vec::new();
            if !matches!(self.peek(), TokenKind::RBrace) {
                items.push(self.idterm()?);
                while self.eat(&TokenKind::Comma) {
                    items.push(self.idterm()?);
                }
            }
            self.expect(TokenKind::RBrace)?;
            return Ok(Operand::SetLit(items));
        }
        // Subquery.
        if self.subquery_ahead() {
            self.bump();
            let q = self.select_query()?;
            self.expect(TokenKind::RParen)?;
            return Ok(Operand::Subquery(Box::new(q)));
        }
        // Parenthesized operand.
        if matches!(self.peek(), TokenKind::LParen) {
            // Could be `(Mthd @ …)` as the first step of a path with an
            // implicit head — not legal XSQL (paths need a head), so a
            // paren here is grouping.
            let save = self.pos;
            self.bump();
            match self.operand() {
                Ok(inner) => {
                    self.expect(TokenKind::RParen)?;
                    return Ok(inner);
                }
                Err(_) => {
                    self.pos = save;
                }
            }
        }
        // A path expression (covers plain literals as trivial paths).
        Ok(Operand::Path(self.path_expr()?))
    }

    // ------------------------------------------------------------------
    // Path expressions and id-terms
    // ------------------------------------------------------------------

    /// Parses a path expression: `head {.step}`.
    fn path_expr(&mut self) -> XsqlResult<PathExpr> {
        let head = self.idterm()?;
        let mut steps = Vec::new();
        while self.eat(&TokenKind::Dot) {
            steps.push(self.step()?);
        }
        Ok(PathExpr { head, steps })
    }

    fn step(&mut self) -> XsqlResult<Step> {
        // Path variable `.*P` (extension).
        if self.eat(&TokenKind::Star) {
            let name = self.ident()?;
            let selector = self.opt_selector()?;
            return Ok(Step::PathVar { name, selector });
        }
        // Method expression `.(Mthd @ a1,…)`.
        if self.eat(&TokenKind::LParen) {
            let method = match self.bump() {
                TokenKind::Ident(s) if !RESERVED.contains(&s.to_ascii_lowercase().as_str()) => {
                    MethodTerm::Name(s)
                }
                TokenKind::MethodVar(s) => MethodTerm::Var(s),
                t => return Err(self.err(format!("expected method name or variable, found {t}"))),
            };
            self.expect(TokenKind::At)?;
            let mut args = Vec::new();
            if !matches!(self.peek(), TokenKind::RParen) {
                args.push(self.idterm_or_patharg()?);
                while self.eat(&TokenKind::Comma) {
                    args.push(self.idterm_or_patharg()?);
                }
            }
            self.expect(TokenKind::RParen)?;
            let selector = self.opt_selector()?;
            return Ok(Step::Method {
                method,
                args,
                selector,
            });
        }
        // Plain attribute step `.Attr` or `."Y`.
        let method = match self.bump() {
            TokenKind::Ident(s) if !RESERVED.contains(&s.to_ascii_lowercase().as_str()) => {
                MethodTerm::Name(s)
            }
            TokenKind::MethodVar(s) => MethodTerm::Var(s),
            t => return Err(self.err(format!("expected attribute expression, found {t}"))),
        };
        let selector = self.opt_selector()?;
        Ok(Step::Method {
            method,
            args: Vec::new(),
            selector,
        })
    }

    fn opt_selector(&mut self) -> XsqlResult<Option<IdTerm>> {
        if self.eat(&TokenKind::LBracket) {
            let t = self.idterm()?;
            self.expect(TokenKind::RBracket)?;
            Ok(Some(t))
        } else {
            Ok(None)
        }
    }

    /// An id-term: literal, symbol/variable, or id-function application.
    fn idterm(&mut self) -> XsqlResult<IdTerm> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(IdTerm::Int(v))
            }
            TokenKind::Real(v) => {
                self.bump();
                Ok(IdTerm::Real(v))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(IdTerm::Str(s))
            }
            TokenKind::Param(n) => {
                self.bump();
                Ok(IdTerm::Param(n))
            }
            TokenKind::MethodVar(s) => {
                self.bump();
                Ok(IdTerm::Var(Var::method(&s)))
            }
            TokenKind::ClassVar(s) => {
                self.bump();
                Ok(IdTerm::Var(Var::class(&s)))
            }
            TokenKind::Minus => {
                self.bump();
                match self.bump() {
                    TokenKind::Int(v) => Ok(IdTerm::Int(-v)),
                    TokenKind::Real(v) => Ok(IdTerm::Real(-v)),
                    t => Err(self.err(format!("expected numeral after `-`, found {t}"))),
                }
            }
            TokenKind::Ident(s) => {
                let lower = s.to_ascii_lowercase();
                match lower.as_str() {
                    "nil" => {
                        self.bump();
                        return Ok(IdTerm::Nil);
                    }
                    "true" => {
                        self.bump();
                        return Ok(IdTerm::Bool(true));
                    }
                    "false" => {
                        self.bump();
                        return Ok(IdTerm::Bool(false));
                    }
                    _ => {}
                }
                if RESERVED.contains(&lower.as_str()) {
                    return Err(self.err(format!("unexpected keyword `{s}`")));
                }
                self.bump();
                // Id-function application `f(t1,…,tk)`.
                if self.eat(&TokenKind::LParen) {
                    let mut args = Vec::new();
                    if !matches!(self.peek(), TokenKind::RParen) {
                        args.push(self.func_arg()?);
                        while self.eat(&TokenKind::Comma) {
                            args.push(self.func_arg()?);
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    return Ok(IdTerm::Func(s, args));
                }
                Ok(IdTerm::Sym(s))
            }
            t => Err(self.err(format!("expected id-term, found {t}"))),
        }
    }

    /// An id-function argument: an id-term or, per the §4.2 shorthand, a
    /// path expression (`CompSalaries(X.Manufacturer, W)`).
    fn func_arg(&mut self) -> XsqlResult<IdTerm> {
        self.idterm_or_patharg()
    }

    /// An id-term that may also be the §5 path shorthand (`Y.Name`).
    fn idterm_or_patharg(&mut self) -> XsqlResult<IdTerm> {
        let p = self.path_expr()?;
        if p.steps.is_empty() {
            Ok(p.head)
        } else {
            Ok(IdTerm::PathArg(Box::new(p)))
        }
    }

    // ------------------------------------------------------------------
    // DDL / DML
    // ------------------------------------------------------------------

    fn create_view(&mut self) -> XsqlResult<CreateView> {
        self.expect_kw("create")?;
        self.expect_kw("view")?;
        let name = self.ident()?;
        self.expect_kw("as")?;
        self.expect_kw("subclass")?;
        self.expect_kw("of")?;
        let superclass = self.ident()?;
        let mut signature = Vec::new();
        if self.eat_kw("signature") {
            signature.push(self.sig_decl()?);
            while self.eat(&TokenKind::Comma) {
                signature.push(self.sig_decl()?);
            }
        }
        let mut query = self.select_query()?;
        if let Some(spec) = &mut query.oid_fn {
            spec.function = Some(name.clone());
        }
        Ok(CreateView {
            name,
            superclass,
            signature,
            query,
        })
    }

    /// `M : A1,…,Ak => R` — 0-ary declarations may use `=` or `=>`;
    /// set-valued use `=>>`/`==>`.
    fn sig_decl(&mut self) -> XsqlResult<SigDecl> {
        let method = self.ident()?;
        let mut args = Vec::new();
        if self.eat(&TokenKind::Colon) {
            args.push(self.ident()?);
            while self.eat(&TokenKind::Comma) {
                args.push(self.ident()?);
            }
        }
        let set_valued = match self.bump() {
            TokenKind::Arrow | TokenKind::Eq => false,
            TokenKind::SetArrow => true,
            t => return Err(self.err(format!("expected `=>` or `=>>`, found {t}"))),
        };
        let result = self.ident()?;
        Ok(SigDecl {
            method,
            args,
            result,
            set_valued,
        })
    }

    fn alter_class(&mut self) -> XsqlResult<Stmt> {
        self.expect_kw("alter")?;
        self.expect_kw("class")?;
        let class = self.ident()?;
        self.expect_kw("add")?;
        self.expect_kw("signature")?;
        let signature = self.sig_decl()?;
        // With a SELECT body this defines a method (§5); without one it
        // is a pure signature declaration (§2 attribute declarations).
        if self.at_kw("select") {
            let query = self.select_query()?;
            Ok(Stmt::AlterClass(AlterClass {
                class,
                signature,
                query,
            }))
        } else {
            Ok(Stmt::AddSignature { class, signature })
        }
    }

    /// `CREATE CLASS Name [AS SUBCLASS OF A, B]` (extension).
    fn create_class(&mut self) -> XsqlResult<Stmt> {
        self.expect_kw("create")?;
        self.expect_kw("class")?;
        let name = self.ident()?;
        let mut supers = Vec::new();
        if self.eat_kw("as") {
            self.expect_kw("subclass")?;
            self.expect_kw("of")?;
            supers.push(self.ident()?);
            while self.eat(&TokenKind::Comma) {
                supers.push(self.ident()?);
            }
        }
        Ok(Stmt::CreateClass(CreateClass { name, supers }))
    }

    /// `CREATE OBJECT name CLASS c1, c2 [SET a = e, …]` (extension).
    fn create_object(&mut self) -> XsqlResult<Stmt> {
        self.expect_kw("create")?;
        self.expect_kw("object")?;
        let name = self.ident()?;
        self.expect_kw("class")?;
        let mut classes = vec![self.ident()?];
        while self.eat(&TokenKind::Comma) {
            classes.push(self.ident()?);
        }
        let mut sets = Vec::new();
        if self.eat_kw("set") {
            loop {
                let attr = self.ident()?;
                self.expect(TokenKind::Eq)?;
                let value = self.operand()?;
                sets.push((attr, value));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        Ok(Stmt::CreateObject(CreateObject {
            name,
            classes,
            sets,
        }))
    }

    fn update_stmt(&mut self) -> XsqlResult<UpdateStmt> {
        self.expect_kw("update")?;
        self.expect_kw("class")?;
        let class = self.ident()?;
        self.expect_kw("set")?;
        let mut assignments = vec![self.assignment()?];
        while self.eat(&TokenKind::Comma) {
            assignments.push(self.assignment()?);
        }
        Ok(UpdateStmt { class, assignments })
    }

    fn assignment(&mut self) -> XsqlResult<Assignment> {
        let target = self.path_expr()?;
        self.expect(TokenKind::Eq)?;
        let value = self.operand()?;
        Ok(Assignment { target, value })
    }
}

/// A trivial-path operand is usable as an id-term (for the schema
/// predicates `subclassOf`/`instanceOf`).
fn operand_as_idterm(op: &Operand) -> Option<IdTerm> {
    match op {
        Operand::Path(p) if p.steps.is_empty() => Some(p.head.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(src: &str) -> SelectQuery {
        match parse(src).unwrap() {
            Stmt::Select(q) => q,
            s => panic!("expected select, got {s:?}"),
        }
    }

    #[test]
    fn parses_nobel_query() {
        let q = sel("SELECT X WHERE X.WonNobelPrize");
        assert_eq!(q.select.len(), 1);
        assert!(matches!(q.where_clause, Cond::Path(_)));
    }

    #[test]
    fn parses_query_with_selectors() {
        let q = sel("SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']");
        assert_eq!(q.from.len(), 1);
        match &q.where_clause {
            Cond::Path(p) => {
                assert_eq!(p.steps.len(), 2);
                match &p.steps[0] {
                    Step::Method { selector, .. } => assert!(selector.is_some()),
                    s => panic!("unexpected step {s:?}"),
                }
            }
            c => panic!("unexpected cond {c:?}"),
        }
    }

    #[test]
    fn parses_subclassof() {
        let q = sel("SELECT #X WHERE TurboEngine subclassOf #X");
        assert!(matches!(q.where_clause, Cond::SubclassOf { .. }));
    }

    #[test]
    fn parses_quantified_comparisons() {
        let q = sel("SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20");
        match q.where_clause {
            Cond::Cmp { lq, op, rq, .. } => {
                assert_eq!(lq, Some(Quant::Some));
                assert_eq!(op, CmpOp::Gt);
                assert_eq!(rq, None);
            }
            c => panic!("unexpected {c:?}"),
        }
        let q = sel("SELECT X FROM Person X WHERE X.Residence =all X.FamMembers.Residence");
        match q.where_clause {
            Cond::Cmp { lq, op, rq, .. } => {
                assert_eq!(lq, None);
                assert_eq!(op, CmpOp::Eq);
                assert_eq!(rq, Some(Quant::All));
            }
            c => panic!("unexpected {c:?}"),
        }
        let q =
            sel("SELECT X FROM Person X, Person Y WHERE Y.FamMembers.Age all<all X.FamMembers.Age");
        assert!(matches!(
            q.where_clause,
            Cond::Cmp {
                lq: Some(Quant::All),
                rq: Some(Quant::All),
                ..
            }
        ));
    }

    #[test]
    fn parses_set_comparator_and_literal() {
        let q = sel("SELECT X FROM Automobile Y WHERE Y.Manufacturer[X] \
             and X.President.OwnedVehicles.Color containsEq {'blue', 'red'} \
             and X.President.Age < 30");
        // and is left-assoc: ((p and setcmp) and cmp)
        match q.where_clause {
            Cond::And(l, r) => {
                assert!(matches!(*r, Cond::Cmp { .. }));
                match *l {
                    Cond::And(_, inner) => assert!(matches!(*inner, Cond::SetCmp { .. })),
                    c => panic!("unexpected {c:?}"),
                }
            }
            c => panic!("unexpected {c:?}"),
        }
    }

    #[test]
    fn parses_aggregate() {
        let q = sel("SELECT X FROM Employee X WHERE count(X.FamMembers) > 4 \
             and X.Residence =all X.FamMembers.Residence and X.Salary < 35000");
        fn has_agg(c: &Cond) -> bool {
            match c {
                Cond::And(a, b) => has_agg(a) || has_agg(b),
                Cond::Cmp { left, .. } => matches!(left, Operand::Agg(AggFunc::Count, _)),
                _ => false,
            }
        }
        assert!(has_agg(&q.where_clause));
    }

    #[test]
    fn parses_oid_function() {
        let q = sel(
            "SELECT EmpSalary = W.Salary FROM Company X OID FUNCTION OF X,W \
             WHERE X.Divisions.Employees[W]",
        );
        let spec = q.oid_fn.unwrap();
        assert_eq!(spec.vars.len(), 2);
        assert!(matches!(
            q.select[0],
            SelectItem::Named {
                value: SelectValue::Expr(_),
                ..
            }
        ));
    }

    #[test]
    fn parses_grouped_set_attribute() {
        let q = sel(
            "SELECT CompName = Y.Name, Beneficiaries = {W} FROM Company Y OID FUNCTION OF Y \
             WHERE Y.Retirees[W] or Y.Divisions.Employees.Dependents[W]",
        );
        assert!(matches!(
            q.select[1],
            SelectItem::Named {
                value: SelectValue::Grouped(_),
                ..
            }
        ));
        assert!(matches!(q.where_clause, Cond::Or(..)));
    }

    #[test]
    fn parses_create_view() {
        let s = parse(
            "CREATE VIEW CompSalaries AS SUBCLASS OF Object \
             SIGNATURE CompName => String, DivName => String, Salary => Numeral \
             SELECT CompName = X.Name, DivName = Y.Name, Salary = W.Salary \
             FROM Company X OID FUNCTION OF X,W \
             WHERE X.Divisions[Y].Employees[W]",
        )
        .unwrap();
        match s {
            Stmt::CreateView(v) => {
                assert_eq!(v.name, "CompSalaries");
                assert_eq!(v.signature.len(), 3);
                assert_eq!(
                    v.query.oid_fn.as_ref().unwrap().function.as_deref(),
                    Some("CompSalaries")
                );
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn parses_view_query_with_idterm_selector() {
        let q = sel("SELECT X.Manufacturer.Name FROM Automobile X, Employee W \
             WHERE CompSalaries(X.Manufacturer, W).Salary > 35000");
        match &q.where_clause {
            Cond::Cmp { left, .. } => match left {
                Operand::Path(p) => match &p.head {
                    IdTerm::Func(f, args) => {
                        assert_eq!(f, "CompSalaries");
                        assert!(matches!(args[0], IdTerm::PathArg(_)));
                    }
                    t => panic!("unexpected head {t:?}"),
                },
                o => panic!("unexpected {o:?}"),
            },
            c => panic!("unexpected {c:?}"),
        }
    }

    #[test]
    fn parses_alter_class_method_definition() {
        let s = parse(
            "ALTER CLASS Company ADD SIGNATURE MngrSalary : String => Numeral \
             SELECT (MngrSalary @ Y.Name) = W FROM Company X OID X \
             WHERE X.Divisions[Y].Manager.Salary[W]",
        )
        .unwrap();
        match s {
            Stmt::AlterClass(a) => {
                assert_eq!(a.class, "Company");
                assert_eq!(a.signature.args, vec!["String".to_string()]);
                assert!(matches!(a.query.select[0], SelectItem::MethodResult { .. }));
                assert_eq!(a.query.oid_fn.as_ref().unwrap().vars.len(), 1);
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn parses_nested_subquery() {
        let q = sel(
            "SELECT X FROM Vehicle X WHERE 200000 <all (SELECT W FROM Division Y \
             WHERE X.Manufacturer.(MngrSalary @ Y.Name)[W])",
        );
        match q.where_clause {
            Cond::Cmp { right, rq, .. } => {
                assert!(matches!(right, Operand::Subquery(_)));
                assert_eq!(rq, Some(Quant::All));
            }
            c => panic!("unexpected {c:?}"),
        }
    }

    #[test]
    fn parses_update_method_definition() {
        let s = parse(
            "ALTER CLASS Company ADD SIGNATURE RaiseMngrSalary : Numeral => Object \
             SELECT (RaiseMngrSalary @ W) = nil FROM Company X, Numeral W OID X \
             WHERE W < 20 and (UPDATE CLASS Company \
             SET X.Divisions[Y].Manager.Salary = (1 + W/100) * X.(MngrSalary @ Y.Name))",
        )
        .unwrap();
        match s {
            Stmt::AlterClass(a) => {
                fn has_update(c: &Cond) -> bool {
                    match c {
                        Cond::And(a, b) => has_update(a) || has_update(b),
                        Cond::Update(_) => true,
                        _ => false,
                    }
                }
                assert!(has_update(&a.query.where_clause));
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn parses_relational_union() {
        let s = parse("SELECT X FROM Person X UNION SELECT Y FROM Company Y").unwrap();
        assert!(matches!(
            s,
            Stmt::RelOp {
                op: RelOp::Union,
                ..
            }
        ));
    }

    #[test]
    fn parses_path_variable_extension() {
        let q = sel("SELECT X FROM Person X WHERE X.*Y.City['newyork']");
        match &q.where_clause {
            Cond::Path(p) => assert!(matches!(p.steps[0], Step::PathVar { .. })),
            c => panic!("unexpected {c:?}"),
        }
    }

    #[test]
    fn parses_method_variable_step() {
        let q = sel("SELECT Y FROM Person X WHERE X.\"Y.City['newyork']");
        match &q.where_clause {
            Cond::Path(p) => match &p.steps[0] {
                Step::Method { method, .. } => assert!(matches!(method, MethodTerm::Var(_))),
                s => panic!("unexpected {s:?}"),
            },
            c => panic!("unexpected {c:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("WHERE X").is_err());
        assert!(parse("SELECT X WHERE X.").is_err());
    }

    #[test]
    fn parses_script() {
        let stmts = parse_script("SELECT X FROM Person X; SELECT Y FROM Company Y;").unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn parses_operand_set_ops() {
        let q = sel("SELECT X FROM Person X WHERE X.A union X.B containsEq {'a'}");
        assert!(matches!(
            q.where_clause,
            Cond::SetCmp {
                left: Operand::Union(..),
                ..
            }
        ));
    }
}

#[cfg(test)]
mod precedence_tests {
    use super::*;

    fn sel(src: &str) -> SelectQuery {
        match parse(src).unwrap() {
            Stmt::Select(q) => q,
            s => panic!("expected select, got {s:?}"),
        }
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let q = sel("SELECT X FROM C X WHERE X.A or X.B and X.D");
        match q.where_clause {
            Cond::Or(l, r) => {
                assert!(matches!(*l, Cond::Path(_)));
                assert!(matches!(*r, Cond::And(..)));
            }
            c => panic!("unexpected {c:?}"),
        }
    }

    #[test]
    fn not_binds_tightest() {
        let q = sel("SELECT X FROM C X WHERE not X.A and X.B");
        match q.where_clause {
            Cond::And(l, _) => assert!(matches!(*l, Cond::Not(_))),
            c => panic!("unexpected {c:?}"),
        }
    }

    #[test]
    fn mul_binds_tighter_than_add() {
        let q = sel("SELECT X FROM C X WHERE X.A = 1 + 2 * 3");
        fn rightmost(c: &Cond) -> &Operand {
            match c {
                Cond::Cmp { right, .. } => right,
                _ => panic!(),
            }
        }
        match rightmost(&q.where_clause) {
            Operand::Arith(l, ArithOp::Add, r) => {
                assert!(matches!(**l, Operand::Path(_)));
                assert!(matches!(**r, Operand::Arith(_, ArithOp::Mul, _)));
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn parenthesized_condition_groups() {
        let q = sel("SELECT X FROM C X WHERE (X.A or X.B) and X.D");
        match q.where_clause {
            Cond::And(l, _) => assert!(matches!(*l, Cond::Or(..))),
            c => panic!("unexpected {c:?}"),
        }
    }

    #[test]
    fn keywords_case_insensitive_identifiers_not() {
        let a = parse("select X from Person X where X.Age > 1").unwrap();
        let b = parse("SELECT X FROM Person X WHERE X.Age > 1").unwrap();
        assert_eq!(a, b);
        // `person` and `Person` are different class symbols.
        let c = parse("SELECT X FROM person X").unwrap();
        assert_ne!(b, c);
    }

    #[test]
    fn deep_nesting_parses() {
        let mut src = String::from("SELECT X FROM C X WHERE ");
        for _ in 0..40 {
            src.push_str("not (");
        }
        src.push_str("X.A");
        for _ in 0..40 {
            src.push(')');
        }
        assert!(parse(&src).is_ok());
    }
}
