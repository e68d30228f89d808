//! `audb::parse` on generated text.
//!
//! [`SqlText`] writes statements from the grammar's own pieces — keywords
//! and their misspellings, identifiers bare and quoted, string literals
//! closed and not, numbers of up to 25 digits (past `i64`) with fractions
//! and exponents, every operator and a few that are not, window items,
//! subqueries — then sometimes inserts, drops or swaps tokens, and
//! sometimes nests parentheses, `NOT`s, unary minuses or subqueries one
//! short of, at or one past [`MAX_DEPTH`]. On those, `parse` never panics,
//! every error's offset lies inside the input (or at its end), and every
//! statement it accepts that binds against a fixed two-table catalog is
//! printed by `Plan::to_sql` as text that parses and binds to the same
//! plan.

use audb::core::{AuRelation, AuTuple, Mult3, RangeValue};
use audb::engine::{Engine, Session};
use audb::rel::Schema;
use audb::sql::MAX_DEPTH;
use proptest::prelude::*;

// ------------------------------------------------------------ generators

fn pick<'a, T>(rng: &mut TestRng, xs: &'a [T]) -> &'a T {
    &xs[rng.uniform(xs.len() as u64) as usize]
}

fn one_in(rng: &mut TestRng, n: u64) -> bool {
    rng.uniform(n) == 0
}

/// The catalog's tables and their columns (`u`'s second column is a
/// keyword, so it is written quoted).
const TABLES: &[(&str, &[&str])] = &[("t", &["a", "b"]), ("u", &["x", "\"order\""])];

const KEYWORDS: &str = "SELECT FROM WHERE ORDER BY LIMIT AS AND OR NOT OVER PARTITION ROWS \
                        BETWEEN PRECEDING FOLLOWING CURRENT ROW TRUE FALSE NULL RANGE SUM \
                        COUNT MIN MAX AVG";

/// Identifiers, literals and operators, valid and not.
const TOKENS: &str = "a b x pos _z9 é \"a\" \"order\" \"a\"\"b\" \"\" \"open 's' '' 'it''s' \
                      '日本' 'open ( ) , ; * + - < <= > >= = <> != ! / % . || -- \u{0}";

/// One of the space-separated `words`.
fn word<'a>(rng: &mut TestRng, words: &'a str) -> &'a str {
    let words: Vec<&'a str> = words.split(' ').collect();
    words[rng.uniform(words.len() as u64) as usize]
}

/// A keyword, in any case, or one edit away from it.
fn keyword(rng: &mut TestRng) -> String {
    let kw = word(rng, KEYWORDS);
    let mut chars: Vec<char> = kw.chars().collect();
    match rng.uniform(6) {
        0 => chars = kw.to_ascii_lowercase().chars().collect(),
        1 => {
            chars.remove(rng.uniform(chars.len() as u64) as usize);
        }
        2 => {
            let i = rng.uniform(chars.len() as u64) as usize;
            chars.insert(i, chars[i]);
        }
        3 if chars.len() > 1 => {
            let i = rng.uniform(chars.len() as u64 - 1) as usize;
            chars.swap(i, i + 1);
        }
        _ => {}
    }
    chars.into_iter().collect()
}

/// 1 to `max` decimal digits.
fn digits(rng: &mut TestRng, max: u64, out: &mut String) {
    for _ in 0..=rng.uniform(max) {
        out.push(char::from(b'0' + rng.uniform(10) as u8));
    }
}

/// A number: 1–25 integer digits (`i64` ends at 19), sometimes a
/// fraction, sometimes an exponent of 1–3 digits.
fn number(rng: &mut TestRng) -> String {
    let mut out = String::new();
    let max = if one_in(rng, 4) { 25 } else { 3 };
    digits(rng, max, &mut out);
    if one_in(rng, 4) {
        out.push('.');
        if !one_in(rng, 4) {
            digits(rng, 4, &mut out);
        }
    }
    if one_in(rng, 6) {
        out.push_str(pick::<&str>(rng, &["e", "E", "e+", "e-"]));
        if !one_in(rng, 6) {
            digits(rng, 3, &mut out);
        }
    }
    out
}

/// A statement as tokens, built from the grammar with a budget of
/// `depth` nested expressions and subqueries.
struct Gen<'r> {
    rng: &'r mut TestRng,
    toks: Vec<String>,
}

impl Gen<'_> {
    fn push(&mut self, tok: impl Into<String>) {
        self.toks.push(tok.into());
    }

    fn one_of(&mut self, toks: &[&str]) {
        let tok = *pick(self.rng, toks);
        self.push(tok);
    }

    fn literal(&mut self) {
        match self.rng.uniform(6) {
            0 => self.one_of(&["NULL", "TRUE", "FALSE", "'s'"]),
            1 => {
                let [l, s, u] = [0; 3].map(|_| number(self.rng));
                self.toks
                    .extend(["RANGE(", &l, ",", &s, ",", &u, ")"].map(String::from));
            }
            _ => {
                let n = number(self.rng);
                self.push(n);
            }
        }
    }

    fn expr(&mut self, cols: &[&str], depth: u32) {
        if depth == 0 {
            return match self.rng.uniform(3) {
                0 => self.literal(),
                _ => self.one_of(cols),
            };
        }
        match self.rng.uniform(7) {
            0 => self.literal(),
            1 | 2 => self.one_of(cols),
            3 => {
                self.expr(cols, depth - 1);
                self.one_of(&["<", "<=", ">", ">=", "=", "<>", "!="]);
                self.expr(cols, depth - 1);
            }
            4 => {
                self.expr(cols, depth - 1);
                self.one_of(&["+", "-", "*", "AND", "OR"]);
                self.expr(cols, depth - 1);
            }
            5 => {
                self.one_of(&["NOT", "-"]);
                self.expr(cols, depth - 1);
            }
            _ => {
                self.push("(");
                self.expr(cols, depth - 1);
                self.push(")");
            }
        }
    }

    fn window_item(&mut self, cols: &[&str]) {
        let agg = *pick(self.rng, &["SUM", "COUNT", "MIN", "MAX", "AVG"]);
        let arg = if one_in(self.rng, 3) {
            "*"
        } else {
            *pick(self.rng, cols)
        };
        self.toks
            .extend([agg, "(", arg, ")", "OVER", "("].map(String::from));
        if one_in(self.rng, 3) {
            self.toks
                .extend(["PARTITION", "BY", *pick(self.rng, cols)].map(String::from));
        }
        if !one_in(self.rng, 4) {
            self.toks
                .extend(["ORDER", "BY", *pick(self.rng, cols)].map(String::from));
        }
        if !one_in(self.rng, 3) {
            self.toks.extend(["ROWS", "BETWEEN"].map(String::from));
            for end in ["AND", ")"] {
                match self.rng.uniform(3) {
                    0 => self.toks.extend(["CURRENT", "ROW"].map(String::from)),
                    _ => {
                        let n = self.rng.uniform(4).to_string();
                        let side = *pick(self.rng, &["PRECEDING", "FOLLOWING"]);
                        self.toks.extend([n.as_str(), side].map(String::from));
                    }
                }
                self.push(end);
            }
        } else {
            self.push(")");
        }
        self.toks.extend(["AS", "w"].map(String::from));
    }

    /// `SELECT … FROM …` over one of [`TABLES`], or over a subquery when
    /// `depth` allows.
    fn statement(&mut self, depth: u32) {
        let &(table, cols) = pick(self.rng, TABLES);
        self.push("SELECT");
        match self.rng.uniform(4) {
            0 => {
                self.push("*");
                self.push(",");
                self.window_item(cols);
            }
            1 => {
                for (i, &col) in cols.iter().enumerate() {
                    if i > 0 {
                        self.push(",");
                    }
                    self.push(col);
                }
                self.push(",");
                self.expr(cols, 2);
                self.toks.extend(["AS", "e"].map(String::from));
            }
            _ => self.push("*"),
        }
        self.push("FROM");
        if depth > 0 && one_in(self.rng, 4) {
            self.push("(");
            self.statement(depth - 1);
            self.push(")");
        } else {
            self.push(table);
        }
        if !one_in(self.rng, 3) {
            self.push("WHERE");
            self.expr(cols, depth.min(4));
        }
        if one_in(self.rng, 3) {
            self.toks
                .extend(["ORDER", "BY", *pick(self.rng, cols)].map(String::from));
            if one_in(self.rng, 2) {
                self.toks.extend(["AS", "rank"].map(String::from));
            }
            if one_in(self.rng, 2) {
                self.push("LIMIT");
                let n = number(self.rng);
                self.push(n);
            }
        }
    }

    /// A `WHERE` whose predicate sits under `n` levels of one kind, or is
    /// a chain `n` nodes high.
    fn nested(&mut self, n: usize) {
        self.toks
            .extend(["SELECT", "*", "FROM", "t", "WHERE"].map(String::from));
        match self.rng.uniform(4) {
            0 => {
                self.toks.extend((0..n).map(|_| "(".to_string()));
                self.toks.extend(["a", "<", "1"].map(String::from));
                self.toks.extend((0..n).map(|_| ")".to_string()));
            }
            1 => {
                self.toks.extend((0..n).map(|_| "NOT".to_string()));
                self.toks.extend(["a", "<", "1"].map(String::from));
            }
            2 => {
                self.push("a");
                self.push("<");
                self.toks.extend((0..n).map(|_| "-".to_string()));
                self.push("1");
            }
            _ => {
                self.push("a");
                self.toks
                    .extend((1..n).flat_map(|_| ["+", "a"]).map(String::from));
                self.toks.extend(["<", "1"].map(String::from));
            }
        }
    }

    /// Subqueries `n` deep around `t`.
    fn subqueries(&mut self, n: usize) {
        for _ in 0..n {
            self.toks
                .extend(["SELECT", "*", "FROM", "("].map(String::from));
        }
        self.toks
            .extend(["SELECT", "*", "FROM", "t"].map(String::from));
        self.toks.extend((0..n).map(|_| ")".to_string()));
    }

    /// Insert, drop or replace a token.
    fn mutate(&mut self) {
        let at = self.rng.uniform(self.toks.len() as u64 + 1) as usize;
        let tok = match self.rng.uniform(3) {
            0 => keyword(self.rng),
            1 => number(self.rng),
            _ => word(self.rng, TOKENS).to_string(),
        };
        match self.rng.uniform(3) {
            0 => self.toks.insert(at, tok),
            _ if at == self.toks.len() => self.toks.push(tok),
            1 => {
                self.toks.remove(at);
            }
            _ => self.toks[at] = tok,
        }
    }
}

/// Statements from the grammar, a third of them mutated, and one in
/// twelve nested around `MAX_DEPTH`; tokens joined by assorted white
/// space.
struct SqlText;

impl Strategy for SqlText {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut g = Gen {
            rng,
            toks: Vec::new(),
        };
        match g.rng.uniform(12) {
            0 => {
                let n = MAX_DEPTH - 1 + g.rng.uniform(3) as usize;
                g.nested(n);
            }
            1 => {
                let n = MAX_DEPTH - 2 + g.rng.uniform(3) as usize;
                g.subqueries(n);
            }
            _ => g.statement(2),
        }
        if one_in(g.rng, 3) {
            for _ in 0..=g.rng.uniform(3) {
                g.mutate();
            }
        }
        let mut out = String::new();
        for tok in &g.toks {
            out.push_str(tok);
            out.push_str(pick::<&str>(g.rng, &[" ", " ", " ", "\n", "\t", "  "]));
        }
        if one_in(g.rng, 4) {
            out.push(';');
        }
        out
    }
}

// ------------------------------------------------------------ properties

/// The fixed catalog: `t(a, b)` and `u(x, "order")`, two rows each.
fn session() -> Session {
    let session = Session::new(Engine::native());
    for &(name, cols) in TABLES {
        let cols: Vec<&str> = cols.iter().map(|c| c.trim_matches('"')).collect();
        let rows = [(1, 2), (3, 5)].map(|(p, q)| {
            let tuple = AuTuple::new([RangeValue::certain(p), RangeValue::new(p, p, q)]);
            (tuple, Mult3::ONE)
        });
        session.register(name, AuRelation::from_rows(Schema::new(cols), rows));
    }
    session
}

/// Parse `text`: an error points inside it (or at its end), and a
/// statement that binds is printed as text that binds to the same plan.
fn check(session: &Session, text: &str) {
    if let Err(e) = audb::parse(text) {
        assert!(
            e.span.offset <= text.len(),
            "offset {} past {} bytes: {e}\n{text:?}",
            e.span.offset,
            text.len()
        );
        return;
    }
    let Ok(prepared) = session.prepare(text) else {
        return;
    };
    let plan = prepared.plan();
    let catalog = session.catalog();
    let (table, _) = (catalog.iter())
        .find(|(_, t)| t.schema() == &plan.schemas()[0])
        .expect("the plan scans a table of the catalog");
    let printed = plan.to_sql(table);
    let back = session
        .prepare(&printed)
        .unwrap_or_else(|e| panic!("{text:?} printed as {printed:?}, which is refused: {e}"));
    assert!(
        plan.same_shape(back.plan()),
        "{text:?} printed as {printed:?}, which binds to another plan:\n{:?}\n{:?}",
        plan.ops(),
        back.plan().ops()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_statement_is_refused_in_bounds_or_round_trips(text in SqlText) {
        check(&session(), &text);
    }
}
