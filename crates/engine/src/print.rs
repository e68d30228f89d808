//! The plan pretty-printer: [`Plan`] → SQL text that reparses to the
//! *identical* plan.
//!
//! The printer is the inverse of the binder: it walks the resolved
//! operator chain and packs maximal runs matching the binder's canonical
//! clause order — `select? (window* | project?) (sort [limit])?` — into one
//! SELECT block each, nesting earlier blocks as parenthesized sub-selects.
//! Window and projection operators never share a block (the binder would
//! interleave them), each `Op::Select` gets its own WHERE, and every frame
//! and position-column name is printed explicitly, so
//! `compile(parse(plan_to_sql(p))) ≡ p` operator-for-operator — the
//! round-trip guarantee `tests/sql_roundtrip.rs` property-tests.
//!
//! Known print limitations (documented, not reachable from SQL-built
//! plans): float literals print via Rust's shortest-round-trip `{:?}`,
//! which produces unparseable text for NaN/infinite constants.

use crate::plan::{Op, Plan};
use audb_core::{AuWindowSpec, RangeExpr, RangeValue, WinAgg};
use audb_rel::{CmpOp, Schema, Value};

/// Quote an identifier when needed: keywords (case-insensitively) and
/// anything that is not `[A-Za-z_][A-Za-z0-9_]*` get double quotes.
fn sql_ident(name: &str) -> String {
    let bare = !name.is_empty()
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c == '_' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit()))
        && !audb_sql::is_keyword(name);
    if bare {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\"\""))
    }
}

fn value_sql(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Bool(true) => "TRUE".to_string(),
        Value::Bool(false) => "FALSE".to_string(),
        Value::Int(i) => i.to_string(),
        // Shortest representation that round-trips through f64 parsing.
        Value::Float(x) => format!("{x:?}"),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

fn range_value_sql(rv: &RangeValue) -> String {
    if rv.is_certain() {
        value_sql(&rv.sg)
    } else {
        format!(
            "RANGE({}, {}, {})",
            value_sql(&rv.lb),
            value_sql(&rv.sg),
            value_sql(&rv.ub)
        )
    }
}

fn cmp_sql(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "<>",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

/// Render a resolved expression with the parentheses the parser needs and
/// no others — the text nests no deeper than any statement that binds to
/// the same expression, so what parses under `audb_sql::MAX_DEPTH` prints
/// as text that parses too — and how tightly it binds, loosest first as
/// the parser's precedence climbs: `OR` < `AND` < `NOT` < comparison <
/// `+ -` < `*` < unary minus < atom.
fn expr_sql(e: &RangeExpr, schema: &Schema) -> (u8, String) {
    // An operand that binds looser than `min` goes in parentheses.
    let arg = |a: &RangeExpr, min: u8| match expr_sql(a, schema) {
        (prec, s) if prec < min => format!("({s})"),
        (_, s) => s,
    };
    match e {
        RangeExpr::Col(i) => (8, sql_ident(&schema.cols()[*i])),
        RangeExpr::Lit(rv) => (8, range_value_sql(rv)),
        // A minus directly before a number folds into the literal — `-5`
        // is a value, `-(5)` the negation of one — and `--` starts a
        // comment.
        RangeExpr::Neg(a) => match arg(a, 7) {
            s if s.starts_with(|c: char| c.is_ascii_digit()) => (7, format!("-({s})")),
            s if s.starts_with('-') => (7, format!("- {s}")),
            s => (7, format!("-{s}")),
        },
        RangeExpr::Not(a) => (3, format!("NOT {}", arg(a, 3))),
        RangeExpr::Add(a, b) => (5, format!("{} + {}", arg(a, 5), arg(b, 6))),
        RangeExpr::Sub(a, b) => (5, format!("{} - {}", arg(a, 5), arg(b, 6))),
        RangeExpr::Mul(a, b) => (6, format!("{} * {}", arg(a, 6), arg(b, 7))),
        RangeExpr::And(a, b) => (2, format!("{} AND {}", arg(a, 2), arg(b, 3))),
        RangeExpr::Or(a, b) => (1, format!("{} OR {}", arg(a, 1), arg(b, 2))),
        RangeExpr::Cmp(op, a, b) => (4, format!("{} {} {}", arg(a, 5), cmp_sql(*op), arg(b, 5))),
    }
}

fn col_list(cols: &[usize], schema: &Schema) -> String {
    cols.iter()
        .map(|&c| sql_ident(&schema.cols()[c]))
        .collect::<Vec<_>>()
        .join(", ")
}

fn frame_bound(offset: i64, following: bool) -> String {
    if offset == 0 {
        "CURRENT ROW".to_string()
    } else if following {
        format!("{offset} FOLLOWING")
    } else {
        format!("{} PRECEDING", -offset)
    }
}

fn window_sql(spec: &AuWindowSpec, agg: WinAgg, out_name: &str, schema: &Schema) -> String {
    let func = agg.name().to_ascii_uppercase();
    let arg = match agg.input_col() {
        Some(c) => sql_ident(&schema.cols()[c]),
        None => "*".to_string(),
    };
    let mut over = String::new();
    if !spec.partition.is_empty() {
        over.push_str(&format!(
            "PARTITION BY {} ",
            col_list(&spec.partition, schema)
        ));
    }
    if !spec.order.is_empty() {
        over.push_str(&format!("ORDER BY {} ", col_list(&spec.order, schema)));
    }
    over.push_str(&format!(
        "ROWS BETWEEN {} AND {}",
        frame_bound(spec.lower, false),
        frame_bound(spec.upper, true)
    ));
    format!("{func}({arg}) OVER ({over}) AS {}", sql_ident(out_name))
}

/// ` ORDER BY cols [AS pos_name]` — the `AS` is omitted for the default
/// name, which the parser fills back in.
fn order_by_sql(order: &[usize], pos_name: &str, schema: &Schema) -> String {
    let mut s = format!(" ORDER BY {}", col_list(order, schema));
    if pos_name != "pos" {
        s.push_str(&format!(" AS {}", sql_ident(pos_name)));
    }
    s
}

/// Print a plan as SQL over a named source relation. Reparsing (with that
/// name registered to the plan's source) reproduces the identical operator
/// chain and schemas — see [`Plan::same_shape`].
pub fn plan_to_sql(plan: &Plan, table: &str) -> String {
    let ops = plan.ops();
    let schemas = plan.schemas();
    if ops.is_empty() {
        return format!("SELECT * FROM {}", sql_ident(table));
    }
    let mut from = sql_ident(table);
    let mut from_is_atom = true;
    let mut i = 0;
    while i < ops.len() {
        let mut where_sql = String::new();
        let mut windows: Vec<String> = Vec::new();
        let mut list: Option<String> = None;
        let mut tail = String::new();

        if let Op::Select { pred } = &ops[i] {
            where_sql = format!(" WHERE {}", expr_sql(pred, &schemas[i]).1);
            i += 1;
        }
        while i < ops.len() {
            if let Op::Window {
                spec,
                agg,
                out_name,
            } = &ops[i]
            {
                windows.push(window_sql(spec, *agg, out_name, &schemas[i]));
                i += 1;
            } else {
                break;
            }
        }
        if let Some(Op::Project { exprs }) = ops.get(i).filter(|_| windows.is_empty()) {
            let s = &schemas[i];
            // A column under its own name prints bare; anything else
            // carries its alias. The binder maps both back to the same
            // `(expression, name)` pair.
            let item = |(e, n): &(RangeExpr, String)| match e {
                RangeExpr::Col(c) if &s.cols()[*c] == n => sql_ident(n),
                _ => format!("{} AS {}", expr_sql(e, s).1, sql_ident(n)),
            };
            list = Some(exprs.iter().map(item).collect::<Vec<_>>().join(", "));
            i += 1;
        }
        if let Some(Op::Sort {
            order,
            pos_name,
            limit,
        }) = ops.get(i)
        {
            tail = order_by_sql(order, pos_name, &schemas[i]);
            if let Some(k) = limit {
                tail.push_str(&format!(" LIMIT {k}"));
            }
            i += 1;
        }

        let select_list = match (list, windows.is_empty()) {
            (Some(l), _) => l,
            (None, true) => "*".to_string(),
            (None, false) => format!("*, {}", windows.join(", ")),
        };
        let from_part = if from_is_atom {
            from
        } else {
            format!("({from})")
        };
        from = format!("SELECT {select_list} FROM {from_part}{where_sql}{tail}");
        from_is_atom = false;
    }
    from
}

impl Plan {
    /// Print this plan as SQL over a source relation named `table` — the
    /// inverse of `Session::prepare` (round-trip exact; see
    /// [`plan_to_sql`]).
    pub fn to_sql(&self, table: &str) -> String {
        plan_to_sql(self, table)
    }
}

#[cfg(test)]
mod tests {
    use crate::plan::{Agg, Query, WindowSpec};
    use audb_core::{AuRelation, AuTuple, Mult3, RangeExpr, RangeValue};
    use audb_rel::Schema;

    fn rel() -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["a", "select"]),
            [(
                AuTuple::new([RangeValue::certain(1i64), RangeValue::new(1, 2, 3)]),
                Mult3::ONE,
            )],
        )
    }

    #[test]
    fn empty_chain_prints_bare_select() {
        let plan = Query::scan(rel()).build().unwrap();
        assert_eq!(plan.to_sql("t"), "SELECT * FROM t");
    }

    #[test]
    fn blocks_pack_the_canonical_clause_order() {
        let plan = Query::scan(rel())
            .select(RangeExpr::col(1).lt(RangeExpr::lit(5)))
            .sort_by_as(["select", "a"], "rank")
            .topk(2)
            .build()
            .unwrap();
        // Keyword-colliding column names are quoted; WHERE + ORDER BY +
        // LIMIT share one block.
        assert_eq!(
            plan.to_sql("t"),
            "SELECT * FROM t WHERE \"select\" < 5 ORDER BY \"select\", a AS rank LIMIT 2"
        );
    }

    #[test]
    fn windows_and_projections_get_their_own_blocks() {
        let plan = Query::scan(rel())
            .window(
                WindowSpec::rows(-1, 0)
                    .order_by(["select"])
                    .aggregate(Agg::sum("select"))
                    .output("s"),
            )
            .project(["a", "s"])
            .build()
            .unwrap();
        assert_eq!(
            plan.to_sql("t"),
            "SELECT a, s FROM (SELECT *, SUM(\"select\") OVER (ORDER BY \"select\" \
             ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS s FROM t)"
        );
    }

    #[test]
    fn uncertain_literals_print_as_range_calls() {
        let plan = Query::scan(rel())
            .select(RangeExpr::col(0).le(RangeExpr::Lit(RangeValue::new(1, 2, 4))))
            .build()
            .unwrap();
        assert_eq!(
            plan.to_sql("t"),
            "SELECT * FROM t WHERE a <= RANGE(1, 2, 4)"
        );
    }
}
