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

use crate::ast::*;
use crate::error::{Span, SqlError, SqlErrorKind};
use crate::lexer::{lex, Kw, Spanned, Tok};
use audb_rel::{CmpOp, Value};

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Spanned>,
    pos: usize,
}

type PResult<T> = Result<T, SqlError>;

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> PResult<Self> {
        Ok(Parser {
            src,
            toks: lex(src)?,
            pos: 0,
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
            self.bump();
            let inner = self.select()?;
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
            (Tok::Ident(name), Tok::LParen)
                if matches!(
                    name.to_ascii_lowercase().as_str(),
                    "sum" | "count" | "min" | "max" | "avg"
                )
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
        let name = self.ident()?.to_ascii_lowercase();
        self.expect(Tok::LParen, "'('")?;
        let agg = if name == "count" {
            self.expect(Tok::Star, "'*' (COUNT takes '*')")?;
            AggCall::Count
        } else {
            let col = self.ident()?;
            match name.as_str() {
                "sum" => AggCall::Sum(col),
                "min" => AggCall::Min(col),
                "max" => AggCall::Max(col),
                "avg" => AggCall::Avg(col),
                _ => unreachable!("at_agg_call checked the name"),
            }
        };
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
        self.or_expr()
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        let mut e = self.and_expr()?;
        while self.eat_kw(Kw::Or) {
            e = Expr::Or(Box::new(e), Box::new(self.and_expr()?));
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        let mut e = self.not_expr()?;
        while self.eat_kw(Kw::And) {
            e = Expr::And(Box::new(e), Box::new(self.not_expr()?));
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> PResult<Expr> {
        if self.eat_kw(Kw::Not) {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> PResult<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            Tok::Eq => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::Cmp(op, Box::new(lhs), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> PResult<Expr> {
        let mut e = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => return Ok(e),
            };
            self.bump();
            e = Expr::Bin(op, Box::new(e), Box::new(self.mul_expr()?));
        }
    }

    fn mul_expr(&mut self) -> PResult<Expr> {
        let mut e = self.unary()?;
        while self.peek() == &Tok::Star {
            self.bump();
            e = Expr::Bin(BinOp::Mul, Box::new(e), Box::new(self.unary()?));
        }
        Ok(e)
    }

    fn unary(&mut self) -> PResult<Expr> {
        if self.peek() == &Tok::Minus {
            self.bump();
            // A minus directly before a numeric literal folds into the
            // literal (`-5` is a value, not `Neg(5)`), matching what the
            // plan pretty-printer emits for negative constants.
            match self.peek().clone() {
                Tok::Int(i) => {
                    self.bump();
                    return Ok(Expr::Lit(Value::Int(-i)));
                }
                Tok::Float(v) => {
                    self.bump();
                    return Ok(Expr::Lit(Value::Float(-v)));
                }
                _ => return Ok(Expr::Neg(Box::new(self.unary()?))),
            }
        }
        self.atom()
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
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(e)
            }
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
