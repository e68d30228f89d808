//! The binder: `audb_sql` AST → validated [`Plan`], through the [`Query`]
//! builder.
//!
//! Binding follows one canonical clause order per SELECT block —
//!
//! ```text
//! FROM → WHERE → window items → select-list projection → ORDER BY → LIMIT
//! ```
//!
//! — so a statement compiles to the operator chain `scan → select? →
//! window* → project? → sort? → topk?` and nested sub-selects concatenate
//! chains. Because everything goes through [`Query`], the SQL frontend
//! inherits every [`crate::PlanError`] check (unknown columns, duplicate
//! output names, invalid frames, `LIMIT` without `ORDER BY`, ...) for
//! free.
//!
//! Binding rules:
//! * `WHERE` binds against the FROM schema; window items against the
//!   post-`WHERE` schema; `ORDER BY` against the post-projection schema
//!   (so it can reference window outputs and aliases).
//! * A window item's output column is its `AS` alias, defaulting to the
//!   aggregate's name (`sum`, `count`, ...).
//! * `SELECT *` keeps every column; `SELECT *, <windows>` appends the
//!   window outputs; an explicit list compiles to one projection of
//!   `(expression, name)` pairs — a bare column (or window item) is the
//!   column reference under its own name, and a compound expression
//!   requires an `AS` alias.
//! * `ORDER BY` is the AU-DB sort (Def. 2): it appends a position-range
//!   column named by its optional `AS` (default `pos`).

use crate::catalog::Catalog;
use crate::error::{PlanError, SessionError};
use crate::plan::{Plan, Query, WindowSpec};
use audb_core::{RangeExpr, RangeValue};
use audb_rel::Schema;
use audb_sql::ast;
use std::sync::Arc;

/// Compile one parsed statement against a catalog. The plan scans the
/// root table's catalog handle, so its segments and their statistics
/// (both built at publication) are the ones every other plan bound to
/// this version uses — the executor never rescans or re-transposes the
/// data per statement.
pub fn compile(stmt: &ast::Select, catalog: &Catalog) -> Result<Plan, SessionError> {
    let plan = compile_query(stmt, catalog)?.build()?;
    Ok(plan.with_sql(stmt.text.clone()))
}

fn compile_query(stmt: &ast::Select, catalog: &Catalog) -> Result<Query, SessionError> {
    let mut q = match &stmt.from {
        ast::TableRef::Name(name) => match catalog.get(name) {
            Some(table) => Query::scan_table(Arc::clone(table)),
            None => {
                return Err(SessionError::UnknownTable {
                    name: name.clone(),
                    known: catalog.names().map(String::from).collect(),
                })
            }
        },
        ast::TableRef::Subquery(inner) => compile_query(inner, catalog)?,
    };

    if let Some(pred) = &stmt.r#where {
        // A `None` schema means an earlier builder call already failed;
        // skip binding and let that first error surface from build().
        if let Some(schema) = q.schema().cloned() {
            q = q.select(bind_expr(pred, &schema)?);
        }
    }

    let items = match &stmt.items {
        ast::SelectList::Star { windows } => {
            for w in windows {
                q = q.window(window_spec(w));
            }
            None
        }
        ast::SelectList::Items(items) => {
            for item in items {
                if let ast::SelectItem::Window(w) = item {
                    q = q.window(window_spec(w));
                }
            }
            Some(items)
        }
    };
    if let Some(items) = items {
        q = project_items(q, items)?;
    }

    if let Some(ob) = &stmt.order_by {
        q = q.sort_by_as(
            ob.cols.iter().map(String::as_str),
            ob.pos_name.as_deref().unwrap_or("pos"),
        );
    }
    if let Some(k) = stmt.limit {
        // LIMIT without ORDER BY is PlanError::TopKWithoutSort at build().
        q = q.topk(k);
    }
    Ok(q)
}

/// A window item's output column name.
fn window_name(w: &ast::WindowItem) -> &str {
    w.alias.as_deref().unwrap_or(w.agg.name())
}

fn window_spec(w: &ast::WindowItem) -> WindowSpec {
    WindowSpec::rows(w.frame.0, w.frame.1)
        .order_by(w.order_by.iter().map(String::as_str))
        .partition_by(w.partition_by.iter().map(String::as_str))
        .aggregate(w.agg.clone())
        .output(window_name(w))
}

fn project_items(q: Query, items: &[ast::SelectItem]) -> Result<Query, SessionError> {
    let Some(schema) = q.schema().cloned() else {
        return Ok(q); // earlier error wins at build()
    };
    let mut exprs: Vec<(RangeExpr, String)> = Vec::with_capacity(items.len());
    for item in items {
        match item {
            ast::SelectItem::Expr { expr, alias } => {
                let name = match (alias, expr) {
                    (Some(a), _) => a.clone(),
                    (None, ast::Expr::Col(n)) => n.clone(),
                    (None, e) => {
                        return Err(SessionError::ExpressionNeedsAlias {
                            item: format!("{e:?}"),
                        })
                    }
                };
                exprs.push((bind_expr(expr, &schema)?, name));
            }
            ast::SelectItem::Window(w) => {
                let name = window_name(w);
                // The window output was appended to the schema above; the
                // projection just forwards it by reference.
                exprs.push((
                    bind_expr(&ast::Expr::Col(name.into()), &schema)?,
                    name.into(),
                ));
            }
        }
    }
    Ok(q.project_exprs(exprs))
}

/// Resolve an AST expression to a [`RangeExpr`] against a schema.
fn bind_expr(e: &ast::Expr, schema: &Schema) -> Result<RangeExpr, SessionError> {
    Ok(match e {
        ast::Expr::Col(name) => {
            RangeExpr::Col(
                schema
                    .index_of(name)
                    .ok_or_else(|| PlanError::UnknownColumn {
                        name: name.clone(),
                        schema: schema.to_string(),
                    })?,
            )
        }
        ast::Expr::Lit(v) => RangeExpr::Lit(RangeValue::certain(v.clone())),
        ast::Expr::Range(lb, sg, ub) => {
            if !(lb <= sg && sg <= ub) {
                return Err(SessionError::InvalidRangeLiteral {
                    lit: format!("RANGE({lb}, {sg}, {ub})"),
                });
            }
            RangeExpr::Lit(RangeValue::new(lb.clone(), sg.clone(), ub.clone()))
        }
        ast::Expr::Neg(a) => RangeExpr::Neg(Box::new(bind_expr(a, schema)?)),
        ast::Expr::Not(a) => RangeExpr::Not(Box::new(bind_expr(a, schema)?)),
        ast::Expr::Bin(op, a, b) => {
            let (a, b) = (
                Box::new(bind_expr(a, schema)?),
                Box::new(bind_expr(b, schema)?),
            );
            match op {
                ast::BinOp::Add => RangeExpr::Add(a, b),
                ast::BinOp::Sub => RangeExpr::Sub(a, b),
                ast::BinOp::Mul => RangeExpr::Mul(a, b),
            }
        }
        ast::Expr::Cmp(op, a, b) => RangeExpr::Cmp(
            *op,
            Box::new(bind_expr(a, schema)?),
            Box::new(bind_expr(b, schema)?),
        ),
        ast::Expr::And(a, b) => RangeExpr::And(
            Box::new(bind_expr(a, schema)?),
            Box::new(bind_expr(b, schema)?),
        ),
        ast::Expr::Or(a, b) => RangeExpr::Or(
            Box::new(bind_expr(a, schema)?),
            Box::new(bind_expr(b, schema)?),
        ),
    })
}
