//! Recursive-descent parser for the supported SELECT fragment.
//!
//! ```text
//! script      := statement (';' statement)* [';']
//! statement   := SELECT select_list FROM table_ref
//!                [WHERE expr]
//!                [ORDER BY ident_list [AS ident]] [LIMIT int]
//! select_list := '*' (',' window_item)*
//!              | item (',' item)*
//! item        := window_item | expr [AS ident]
//! window_item := agg_name '(' ('*' | ident) ')' OVER '('
//!                  [PARTITION BY ident_list] [ORDER BY ident_list]
//!                  [ROWS BETWEEN bound AND bound] ')' [AS ident]
//! bound       := int PRECEDING | int FOLLOWING | CURRENT ROW
//! table_ref   := ident | '(' statement ')'
//! expr        := or (precedence: OR < AND < NOT < cmp < +,- < * < unary -)
//! atom        := '(' expr ')' | ident | literal | RANGE '(' lit, lit, lit ')'
//! ```
//!
//! Dialect notes (AU-DB semantics): statement-level `ORDER BY` is the sort
//! operator of Def. 2 — it **appends** a position-range column, named by the
//! optional trailing `AS` (default `pos`). `LIMIT k` turns that sort into a
//! top-k. `ORDER BY` binds *after* the select list (projection), as in SQL.
//! Window frames default to `ROWS BETWEEN CURRENT ROW AND CURRENT ROW`.
//! Aggregate names and `RANGE` are contextual (only special before `(`), so
//! they remain usable as column names.
//!
//! Nesting is bounded at parse time ([`MAX_DEPTH`]): everything downstream
//! — the binder, the executor, the plan printer, and the drop of the tree
//! — recurses over it, and a statement nested past what a thread's stack
//! holds must be refused, not crash the process.

use crate::ast::*;
use crate::error::{Span, SqlError, SqlErrorKind};
use crate::lexer::{lex, Kw, Spanned, Tok};
use audb_rel::{AggFunc, CmpOp, Value};

/// The deepest nesting a statement may have: at most this many levels open
/// at once — parentheses, `NOT`s, unary minuses and subqueries — and no
/// expression tree higher than this many nodes, the levels open around it
/// counted. A left-deep chain like `a + b + … + z` is as high as it is
/// long. A statement at the bound parses, binds, executes and prints on a
/// 2 MiB thread stack in a debug build; past it, parsing stops with
/// [`SqlErrorKind::TooDeep`].
pub const MAX_DEPTH: usize = 100;

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Spanned>,
    pos: usize,
    /// Levels open around the token at `pos`.
    depth: usize,
}

type PResult<T> = Result<T, SqlError>;

/// An expression and its height: the nodes on its longest root-to-leaf
/// path.
type Tree = (Expr, usize);

/// A binary node over its two operands.
type Build = fn(Box<Expr>, Box<Expr>) -> Expr;

fn too_deep<T>(at: Span) -> PResult<T> {
    Err(SqlError::new(SqlErrorKind::TooDeep, at))
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> PResult<Self> {
        Ok(Parser {
            src,
            toks: lex(src)?,
            pos: 0,
            depth: 0,
        })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn unexpected<T>(&self, expected: &str) -> PResult<T> {
        Err(SqlError::new(
            SqlErrorKind::UnexpectedToken {
                found: self.peek().to_string(),
                expected: expected.to_string(),
            },
            self.span(),
        ))
    }

    /// Past the token that opens it, `parse` one level further in —
    /// refused at that token where [`MAX_DEPTH`] levels are open already.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        if self.depth == MAX_DEPTH {
            return too_deep(self.span());
        }
        self.bump();
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    /// The height of the node the token at `at` builds over children at
    /// most `below` high — refused there where the node and the levels
    /// open around it pass [`MAX_DEPTH`].
    fn node(&self, at: Span, below: usize) -> PResult<usize> {
        if self.depth + below >= MAX_DEPTH {
            return too_deep(at);
        }
        Ok(below + 1)
    }

    fn expect_kw(&mut self, kw: Kw) -> PResult<()> {
        if self.peek() == &Tok::Kw(kw) {
            self.bump();
            Ok(())
        } else {
            self.unexpected(&Tok::Kw(kw).to_string())
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> PResult<()> {
        if self.peek() == &tok {
            self.bump();
            Ok(())
        } else {
            self.unexpected(what)
        }
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        if self.peek() == &Tok::Kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> PResult<String> {
        match self.peek().clone() {
            Tok::Ident(s) | Tok::QuotedIdent(s) => {
                self.bump();
                Ok(s)
            }
            _ => self.unexpected("an identifier"),
        }
    }

    fn ident_list(&mut self) -> PResult<Vec<String>> {
        let mut out = vec![self.ident()?];
        while self.peek() == &Tok::Comma {
            self.bump();
            out.push(self.ident()?);
        }
        Ok(out)
    }

    // ------------------------------------------------------------ statement

    fn select(&mut self) -> PResult<Select> {
        let span = self.span();
        let start = span.offset;
        self.expect_kw(Kw::Select)?;
        let items = self.select_list()?;
        self.expect_kw(Kw::From)?;
        let from = self.table_ref()?;
        let r#where = if self.eat_kw(Kw::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        let order_by = if self.eat_kw(Kw::Order) {
            self.expect_kw(Kw::By)?;
            let cols = self.ident_list()?;
            let pos_name = if self.eat_kw(Kw::As) {
                Some(self.ident()?)
            } else {
                None
            };
            Some(OrderBy { cols, pos_name })
        } else {
            None
        };
        let limit = if self.eat_kw(Kw::Limit) {
            match self.peek().clone() {
                Tok::Int(k) if k >= 0 => {
                    self.bump();
                    Some(k as u64)
                }
                _ => return self.unexpected("a non-negative integer"),
            }
        } else {
            None
        };
        let end = self.span().offset;
        Ok(Select {
            items,
            from,
            r#where,
            order_by,
            limit,
            span,
            text: self.src[start..end].trim().to_string(),
        })
    }

    fn table_ref(&mut self) -> PResult<TableRef> {
        if self.peek() == &Tok::LParen {
            let inner = self.nested(Self::select)?;
            self.expect(Tok::RParen, "')' closing the subquery")?;
            Ok(TableRef::Subquery(Box::new(inner)))
        } else {
            Ok(TableRef::Name(self.ident()?))
        }
    }

    // ----------------------------------------------------------- select list

    /// Is the current token an aggregate-function name directly followed by
    /// `(`? (Contextual — these are ordinary identifiers elsewhere.)
    fn at_agg_call(&self) -> bool {
        matches!(
            (self.peek(), self.peek2()),
            (Tok::Ident(name), Tok::LParen) if AggFunc::named(name, ()).is_some()
        )
    }

    fn select_list(&mut self) -> PResult<SelectList> {
        if self.peek() == &Tok::Star {
            self.bump();
            let mut windows = Vec::new();
            while self.peek() == &Tok::Comma {
                self.bump();
                if !self.at_agg_call() {
                    return self.unexpected("a window aggregate (after 'SELECT *,')");
                }
                windows.push(self.window_item()?);
            }
            return Ok(SelectList::Star { windows });
        }
        let mut items = vec![self.select_item()?];
        while self.peek() == &Tok::Comma {
            self.bump();
            items.push(self.select_item()?);
        }
        Ok(SelectList::Items(items))
    }

    fn select_item(&mut self) -> PResult<SelectItem> {
        if self.at_agg_call() {
            return Ok(SelectItem::Window(self.window_item()?));
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw(Kw::As) {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn window_item(&mut self) -> PResult<WindowItem> {
        let name = self.ident()?;
        let agg = AggFunc::named(&name, ()).expect("at_agg_call checked the name");
        self.expect(Tok::LParen, "'('")?;
        if agg == AggFunc::Count {
            self.expect(Tok::Star, "'*' (COUNT takes '*')")?;
        }
        let agg = agg.try_map(|()| self.ident())?;
        self.expect(Tok::RParen, "')'")?;
        self.expect_kw(Kw::Over)?;
        self.expect(Tok::LParen, "'(' after OVER")?;
        let partition_by = if self.eat_kw(Kw::Partition) {
            self.expect_kw(Kw::By)?;
            self.ident_list()?
        } else {
            Vec::new()
        };
        let order_by = if self.eat_kw(Kw::Order) {
            self.expect_kw(Kw::By)?;
            self.ident_list()?
        } else {
            Vec::new()
        };
        let frame = if self.eat_kw(Kw::Rows) {
            self.expect_kw(Kw::Between)?;
            let lo = self.frame_bound(true)?;
            self.expect_kw(Kw::And)?;
            let hi = self.frame_bound(false)?;
            (lo, hi)
        } else {
            (0, 0)
        };
        self.expect(Tok::RParen, "')' closing the OVER clause")?;
        let alias = if self.eat_kw(Kw::As) {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(WindowItem {
            agg,
            partition_by,
            order_by,
            frame,
            alias,
        })
    }

    /// `int PRECEDING` / `int FOLLOWING` / `CURRENT ROW`. `leading` only
    /// affects the error message.
    fn frame_bound(&mut self, leading: bool) -> PResult<i64> {
        match self.peek().clone() {
            Tok::Kw(Kw::Current) => {
                self.bump();
                self.expect_kw(Kw::Row)?;
                Ok(0)
            }
            Tok::Int(n) if n >= 0 => {
                self.bump();
                match self.peek() {
                    Tok::Kw(Kw::Preceding) => {
                        self.bump();
                        Ok(-n)
                    }
                    Tok::Kw(Kw::Following) => {
                        self.bump();
                        Ok(n)
                    }
                    _ => self.unexpected("PRECEDING or FOLLOWING"),
                }
            }
            _ => self.unexpected(if leading {
                "a frame bound (n PRECEDING | CURRENT ROW | n FOLLOWING)"
            } else {
                "a frame bound (CURRENT ROW | n FOLLOWING | n PRECEDING)"
            }),
        }
    }

    // ----------------------------------------------------------- expressions

    fn expr(&mut self) -> PResult<Expr> {
        Ok(self.or_expr()?.0)
    }

    /// A left-deep chain `operand (op operand)*`: `op` says whether a token
    /// is one of this level's operators, and builds its node.
    fn chain(
        &mut self,
        operand: fn(&mut Self) -> PResult<Tree>,
        op: fn(&Tok) -> Option<Build>,
    ) -> PResult<Tree> {
        let (mut e, mut h) = operand(self)?;
        while let Some(build) = op(self.peek()) {
            let at = self.span();
            self.bump();
            let (rhs, rh) = operand(self)?;
            h = self.node(at, h.max(rh))?;
            e = build(Box::new(e), Box::new(rhs));
        }
        Ok((e, h))
    }

    fn or_expr(&mut self) -> PResult<Tree> {
        self.chain(Self::and_expr, |t| match t {
            Tok::Kw(Kw::Or) => Some(Expr::Or),
            _ => None,
        })
    }

    fn and_expr(&mut self) -> PResult<Tree> {
        self.chain(Self::not_expr, |t| match t {
            Tok::Kw(Kw::And) => Some(Expr::And),
            _ => None,
        })
    }

    fn not_expr(&mut self) -> PResult<Tree> {
        if self.peek() == &Tok::Kw(Kw::Not) {
            let at = self.span();
            let (e, h) = self.nested(Self::not_expr)?;
            Ok((Expr::Not(Box::new(e)), self.node(at, h)?))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> PResult<Tree> {
        let (lhs, lh) = self.add_expr()?;
        let op = match self.peek() {
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            Tok::Eq => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            _ => return Ok((lhs, lh)),
        };
        let at = self.span();
        self.bump();
        let (rhs, rh) = self.add_expr()?;
        let h = self.node(at, lh.max(rh))?;
        Ok((Expr::Cmp(op, Box::new(lhs), Box::new(rhs)), h))
    }

    fn add_expr(&mut self) -> PResult<Tree> {
        self.chain(Self::mul_expr, |t| match t {
            Tok::Plus => Some(|a, b| Expr::Bin(BinOp::Add, a, b)),
            Tok::Minus => Some(|a, b| Expr::Bin(BinOp::Sub, a, b)),
            _ => None,
        })
    }

    fn mul_expr(&mut self) -> PResult<Tree> {
        self.chain(Self::unary, |t| match t {
            Tok::Star => Some(|a, b| Expr::Bin(BinOp::Mul, a, b)),
            _ => None,
        })
    }

    fn unary(&mut self) -> PResult<Tree> {
        if self.peek() == &Tok::Minus {
            // A minus directly before a numeric literal folds into the
            // literal (`-5` is a value, not `Neg(5)`), matching what the
            // plan pretty-printer emits for negative constants.
            let folded = match self.peek2() {
                Tok::Int(i) => Some(Value::Int(-i)),
                Tok::Float(v) => Some(Value::Float(-v)),
                _ => None,
            };
            if let Some(v) = folded {
                self.bump();
                self.bump();
                return Ok((Expr::Lit(v), 1));
            }
            let at = self.span();
            let (e, h) = self.nested(Self::unary)?;
            return Ok((Expr::Neg(Box::new(e)), self.node(at, h)?));
        }
        if self.peek() == &Tok::LParen {
            let tree = self.nested(Self::or_expr)?;
            self.expect(Tok::RParen, "')'")?;
            return Ok(tree);
        }
        Ok((self.atom()?, 1))
    }

    /// Is the current token `RANGE` directly followed by `(`? (Contextual,
    /// like the aggregate names.)
    fn at_range_call(&self) -> bool {
        matches!(
            (self.peek(), self.peek2()),
            (Tok::Ident(name), Tok::LParen) if name.eq_ignore_ascii_case("range")
        )
    }

    fn atom(&mut self) -> PResult<Expr> {
        if self.at_range_call() {
            self.bump();
            self.expect(Tok::LParen, "'('")?;
            let lb = self.literal_value()?;
            self.expect(Tok::Comma, "','")?;
            let sg = self.literal_value()?;
            self.expect(Tok::Comma, "','")?;
            let ub = self.literal_value()?;
            self.expect(Tok::RParen, "')'")?;
            return Ok(Expr::Range(lb, sg, ub));
        }
        match self.peek().clone() {
            Tok::Ident(s) | Tok::QuotedIdent(s) => {
                self.bump();
                Ok(Expr::Col(s))
            }
            Tok::Int(i) => {
                self.bump();
                Ok(Expr::Lit(Value::Int(i)))
            }
            Tok::Float(v) => {
                self.bump();
                Ok(Expr::Lit(Value::Float(v)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Lit(Value::str(s)))
            }
            Tok::Kw(Kw::True) => {
                self.bump();
                Ok(Expr::Lit(Value::Bool(true)))
            }
            Tok::Kw(Kw::False) => {
                self.bump();
                Ok(Expr::Lit(Value::Bool(false)))
            }
            Tok::Kw(Kw::Null) => {
                self.bump();
                Ok(Expr::Lit(Value::Null))
            }
            _ => self.unexpected("an expression"),
        }
    }

    /// A literal value (optionally negated number) — the arguments of
    /// `RANGE(lb, sg, ub)`.
    fn literal_value(&mut self) -> PResult<Value> {
        let neg = if self.peek() == &Tok::Minus {
            self.bump();
            true
        } else {
            false
        };
        let v = match self.peek().clone() {
            Tok::Int(i) => Value::Int(if neg { -i } else { i }),
            Tok::Float(v) => Value::Float(if neg { -v } else { v }),
            Tok::Str(s) if !neg => Value::str(s),
            Tok::Kw(Kw::True) if !neg => Value::Bool(true),
            Tok::Kw(Kw::False) if !neg => Value::Bool(false),
            Tok::Kw(Kw::Null) if !neg => Value::Null,
            _ => return self.unexpected("a literal value"),
        };
        self.bump();
        Ok(v)
    }
}

/// Parse a script, also returning the lexer's end-of-input span (the same
/// span accounting every other error position uses — where the missing
/// statement of an [`SqlErrorKind::EmptyStatement`] would have begun).
fn parse_script_spanned(src: &str) -> Result<(Vec<Select>, Span), SqlError> {
    let mut p = Parser::new(src)?;
    let mut out = Vec::new();
    loop {
        while p.peek() == &Tok::Semi {
            p.bump();
        }
        if p.peek() == &Tok::Eof {
            return Ok((out, p.span()));
        }
        out.push(p.select()?);
        match p.peek() {
            Tok::Semi | Tok::Eof => {}
            _ => return p.unexpected("';' or end of input"),
        }
    }
}

/// Parse a script: zero or more `;`-separated SELECT statements (blank
/// `;;` statements and trailing semicolons are skipped, not errors).
pub fn parse_script(src: &str) -> Result<Vec<Select>, SqlError> {
    parse_script_spanned(src).map(|(stmts, _)| stmts)
}

/// Parse exactly one statement (trailing `;`s and blank `;;` statements
/// are allowed).
pub fn parse(src: &str) -> Result<Select, SqlError> {
    let (mut stmts, eof) = parse_script_spanned(src)?;
    match stmts.len() {
        0 => Err(SqlError::new(SqlErrorKind::EmptyStatement, eof)),
        1 => Ok(stmts.pop().unwrap()),
        _ => Err(SqlError::new(SqlErrorKind::TrailingInput, stmts[1].span)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_select() {
        let s = parse("SELECT * FROM t").unwrap();
        assert_eq!(s.from, TableRef::Name("t".into()));
        assert!(matches!(s.items, SelectList::Star { ref windows } if windows.is_empty()));
        assert_eq!(s.text, "SELECT * FROM t");
    }

    #[test]
    fn full_ranking_query() {
        let s = parse(
            "SELECT sku, price FROM products WHERE price < 12 ORDER BY price, sku AS rank LIMIT 2;",
        )
        .unwrap();
        let SelectList::Items(items) = &s.items else {
            panic!("expected items")
        };
        assert_eq!(items.len(), 2);
        assert!(s.r#where.is_some());
        let ob = s.order_by.unwrap();
        assert_eq!(ob.cols, ["price", "sku"]);
        assert_eq!(ob.pos_name.as_deref(), Some("rank"));
        assert_eq!(s.limit, Some(2));
    }

    #[test]
    fn window_clause() {
        let s = parse(
            "SELECT *, SUM(temp) OVER (PARTITION BY site ORDER BY t \
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS roll FROM readings",
        )
        .unwrap();
        let SelectList::Star { windows } = &s.items else {
            panic!("expected star list")
        };
        assert_eq!(windows.len(), 1);
        let w = &windows[0];
        assert_eq!(w.agg, AggCall::Sum("temp".into()));
        assert_eq!(w.partition_by, ["site"]);
        assert_eq!(w.order_by, ["t"]);
        assert_eq!(w.frame, (-2, 0));
        assert_eq!(w.alias.as_deref(), Some("roll"));
    }

    #[test]
    fn subquery_and_script() {
        let stmts = parse_script(
            "SELECT a FROM (SELECT * FROM t WHERE a >= 1 OR NOT b = 'x,y');\n\
             -- a comment between statements\n\
             SELECT * FROM u;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 2);
        let TableRef::Subquery(inner) = &stmts[0].from else {
            panic!("expected subquery")
        };
        assert_eq!(inner.text, "SELECT * FROM t WHERE a >= 1 OR NOT b = 'x,y'");
        assert_eq!(stmts[1].text, "SELECT * FROM u");
    }

    #[test]
    fn expression_precedence_and_literals() {
        let s = parse("SELECT * FROM t WHERE a + 2 * b <= -3 AND c = RANGE(1, 2, 3) OR d").unwrap();
        // ((a + (2*b)) <= -3 AND c = RANGE(..)) OR d
        let Expr::Or(lhs, rhs) = s.r#where.unwrap() else {
            panic!("OR at top")
        };
        assert_eq!(*rhs, Expr::Col("d".into()));
        let Expr::And(cmp, range_eq) = *lhs else {
            panic!("AND below OR")
        };
        let Expr::Cmp(CmpOp::Le, add, neg3) = *cmp else {
            panic!("<= below AND")
        };
        assert_eq!(*neg3, Expr::Lit(Value::Int(-3)));
        let Expr::Bin(BinOp::Add, _, mul) = *add else {
            panic!("+ below <=")
        };
        assert!(matches!(*mul, Expr::Bin(BinOp::Mul, _, _)));
        let Expr::Cmp(CmpOp::Eq, _, range) = *range_eq else {
            panic!("= below AND")
        };
        assert_eq!(
            *range,
            Expr::Range(Value::Int(1), Value::Int(2), Value::Int(3))
        );
    }

    #[test]
    fn contextual_names_stay_usable_as_columns() {
        // `sum` and `range` as plain columns (not followed by '(').
        let s = parse("SELECT sum, range FROM t WHERE sum < 3").unwrap();
        let SelectList::Items(items) = &s.items else {
            panic!()
        };
        assert_eq!(
            items[0],
            SelectItem::Expr {
                expr: Expr::Col("sum".into()),
                alias: None
            }
        );
        assert_eq!(
            items[1],
            SelectItem::Expr {
                expr: Expr::Col("range".into()),
                alias: None
            }
        );
    }

    #[test]
    fn errors_carry_spans() {
        let e = parse("SELECT FROM t").unwrap_err();
        assert!(
            matches!(e.kind, SqlErrorKind::UnexpectedToken { .. }),
            "{e}"
        );
        assert_eq!(e.span.col, 8);

        let e = parse("SELECT * FROM t WHERE").unwrap_err();
        assert!(e.to_string().contains("an expression"), "{e}");

        // Missing keywords name the keyword, not the Rust enum variant.
        let e = parse("SELECT * FRM t").unwrap_err();
        assert!(e.to_string().contains("expected FROM"), "{e}");

        let e = parse("SELECT * FROM t; SELECT * FROM u").unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::TrailingInput);

        let e = parse("   ").unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::EmptyStatement);
    }

    /// Windows are row-based only (DESIGN.md §6.1, "Unsupported"): a
    /// `RANGE` frame is rejected where it starts, not silently read as
    /// something else.
    #[test]
    fn range_frames_are_a_spanned_error() {
        let sql = "SELECT *, SUM(v) OVER (ORDER BY o RANGE BETWEEN 1 PRECEDING AND CURRENT ROW) \
                   FROM t";
        let e = parse(sql).unwrap_err();
        assert!(
            matches!(e.kind, SqlErrorKind::UnexpectedToken { .. }),
            "{e}"
        );
        let at = sql.find("RANGE").unwrap();
        assert_eq!(
            (e.span.line, e.span.col as usize, e.span.offset),
            (1, at + 1, at)
        );
    }

    /// Nesting one past [`MAX_DEPTH`] is refused at the token that opens
    /// the level, or builds the node, one too many.
    #[test]
    fn nesting_past_the_bound_is_refused_where_it_goes_too_deep() {
        let prefix = "SELECT * FROM t WHERE ";
        let parens = |n| format!("{prefix}{}a{}", "(".repeat(n), ")".repeat(n));
        assert!(parse(&parens(MAX_DEPTH)).is_ok());
        let e = parse(&parens(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::TooDeep);
        assert_eq!(e.span.offset, prefix.len() + MAX_DEPTH);
        // A chain of `n` additions is `n + 1` nodes high.
        let chain = |n| format!("{prefix}a{}", " + a".repeat(n));
        assert!(parse(&chain(MAX_DEPTH - 1)).is_ok());
        let sql = chain(MAX_DEPTH);
        let e = parse(&sql).unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::TooDeep);
        assert_eq!(e.span.offset, sql.rfind('+').unwrap());
        assert!(e.to_string().ends_with("nested deeper than 100 levels"));
    }

    /// Trailing semicolons and blank `;;` statements are accepted
    /// everywhere; a source with *no* statement at all is an
    /// `EmptyStatement` whose span points at the end of input (not a
    /// blanket line 1, column 1).
    #[test]
    fn trailing_semicolons_blank_statements_and_empty_spans() {
        // Scripts: blank statements between, before and after real ones.
        let stmts = parse_script(";;\nSELECT * FROM t;;\n;SELECT * FROM u;;\n;").unwrap();
        assert_eq!(stmts.len(), 2);
        assert!(parse_script("").unwrap().is_empty());
        assert!(parse_script(" ;; \n ; ").unwrap().is_empty());

        // Single statements: trailing semicolons (even several) are fine.
        assert!(parse("SELECT * FROM t;").is_ok());
        assert!(parse("SELECT * FROM t;;;").is_ok());

        // The empty-statement edge case, span-checked.
        let e = parse("").unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::EmptyStatement);
        assert_eq!((e.span.line, e.span.col, e.span.offset), (1, 1, 0));

        let e = parse(";;\n  ").unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::EmptyStatement);
        assert_eq!((e.span.line, e.span.col), (2, 3));
        assert_eq!(e.span.offset, 5);
        assert!(
            e.to_string().starts_with("SQL error at line 2, column 3"),
            "{e}"
        );

        // Comment-only sources are empty statements too.
        let e = parse("-- nothing here\n").unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::EmptyStatement);
        assert_eq!(e.span.line, 2);
    }
}
