//! The aggregate function [`AggFunc`] and grouping aggregation over bags.
//!
//! `AggFunc` is one type for Fig. 3 and Def. 3: the `f` of the
//! deterministic window operator and of its AU-DB lifting, from the SQL
//! parser (over column names) through the plan builder (over column
//! references) to every operator (over column indices).
//!
//! Multiplicities participate: a tuple with multiplicity `n` contributes `n`
//! rows to `count` and `n · A` to `sum(A)`. `Null` aggregation inputs are
//! skipped (SQL semantics); a global aggregate over the empty relation
//! yields one row with `count = 0` and `Null` for the other functions.

use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;

/// An aggregate function over an attribute `C`; `Count` is `count(*)`.
///
/// The one aggregate of the reproduction, from SQL to sweep: the parser's
/// (`C = String`), the plan builder's (`C` a column reference) and the
/// resolved one every operator runs (`C = usize`, the default) — the
/// deterministic `f(A)` of Fig. 3 and its AU-DB lifting in Def. 3 alike.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc<C = usize> {
    /// `count(*)` — total multiplicity.
    Count,
    /// `sum(A)`.
    Sum(C),
    /// `min(A)`.
    Min(C),
    /// `max(A)`.
    Max(C),
    /// `avg(A)` (always a float).
    Avg(C),
}

impl<C> AggFunc<C> {
    /// `count(*)`.
    pub fn count() -> Self {
        AggFunc::Count
    }
    /// `sum(col)`.
    pub fn sum(col: impl Into<C>) -> Self {
        AggFunc::Sum(col.into())
    }
    /// `min(col)`.
    pub fn min(col: impl Into<C>) -> Self {
        AggFunc::Min(col.into())
    }
    /// `max(col)`.
    pub fn max(col: impl Into<C>) -> Self {
        AggFunc::Max(col.into())
    }
    /// `avg(col)`.
    pub fn avg(col: impl Into<C>) -> Self {
        AggFunc::Avg(col.into())
    }

    /// The same function over `f` of its attribute.
    pub fn map<D>(self, f: impl FnOnce(C) -> D) -> AggFunc<D> {
        let Ok(agg) = self.try_map(|c| Ok::<D, std::convert::Infallible>(f(c)));
        agg
    }

    /// The same function over `f` of its attribute, or `f`'s error.
    pub fn try_map<D, E>(self, f: impl FnOnce(C) -> Result<D, E>) -> Result<AggFunc<D>, E> {
        Ok(match self {
            AggFunc::Count => AggFunc::Count,
            AggFunc::Sum(c) => AggFunc::Sum(f(c)?),
            AggFunc::Min(c) => AggFunc::Min(f(c)?),
            AggFunc::Max(c) => AggFunc::Max(f(c)?),
            AggFunc::Avg(c) => AggFunc::Avg(f(c)?),
        })
    }

    /// The SQL function name in lower case — the one name table: the
    /// parser looks names up in it ([`AggFunc::named`]), its default
    /// output column is it, and the plan printer writes it upper-cased.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum(_) => "sum",
            AggFunc::Min(_) => "min",
            AggFunc::Max(_) => "max",
            AggFunc::Avg(_) => "avg",
        }
    }

    /// The function whose [`AggFunc::name`] is `name` (in any case), over
    /// `col`; `count` drops it.
    pub fn named(name: &str, col: C) -> Option<Self> {
        let all = [
            AggFunc::Count,
            AggFunc::Sum(()),
            AggFunc::Min(()),
            AggFunc::Max(()),
            AggFunc::Avg(()),
        ];
        let f = all
            .into_iter()
            .find(|f| f.name().eq_ignore_ascii_case(name))?;
        Some(f.map(|()| col))
    }
}

impl<C: Copy> AggFunc<C> {
    /// The attribute the function reads, if any.
    pub fn input_col(&self) -> Option<C> {
        match *self {
            AggFunc::Count => None,
            AggFunc::Sum(c) | AggFunc::Min(c) | AggFunc::Max(c) | AggFunc::Avg(c) => Some(c),
        }
    }
}

/// Streaming accumulator shared by grouping and windowed aggregation.
#[derive(Clone, Debug, Default)]
pub struct Accumulator {
    count: u64,
    int_sum: i128,
    float_sum: f64,
    saw_float: bool,
    nonnull: u64,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator {
    /// Fold in `mult` copies of value `v` (`v` may be `Null`).
    pub fn add(&mut self, v: &Value, mult: u64) {
        self.count += mult;
        match v {
            Value::Null => {}
            Value::Int(i) => {
                self.nonnull += mult;
                self.int_sum += *i as i128 * mult as i128;
                self.update_minmax(v);
            }
            Value::Float(f) => {
                self.nonnull += mult;
                self.saw_float = true;
                self.float_sum += f * mult as f64;
                self.update_minmax(v);
            }
            other => {
                self.nonnull += mult;
                self.update_minmax(other);
            }
        }
    }

    fn update_minmax(&mut self, v: &Value) {
        match &self.min {
            Some(m) if m <= v => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if m >= v => {}
            _ => self.max = Some(v.clone()),
        }
    }

    /// Finish for the given aggregate function.
    pub fn finish(&self, f: AggFunc) -> Value {
        match f {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum(_) => {
                if self.nonnull == 0 {
                    Value::Null
                } else if self.saw_float {
                    Value::Float(self.float_sum + self.int_sum as f64)
                } else if let Ok(v) = i64::try_from(self.int_sum) {
                    Value::Int(v)
                } else {
                    Value::Float(self.int_sum as f64)
                }
            }
            AggFunc::Min(_) => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max(_) => self.max.clone().unwrap_or(Value::Null),
            AggFunc::Avg(_) => {
                if self.nonnull == 0 {
                    Value::Null
                } else {
                    let total = self.float_sum + self.int_sum as f64;
                    Value::Float(total / self.nonnull as f64)
                }
            }
        }
    }
}

/// `γ_{group; aggs}(rel)`: group by the listed columns and compute each
/// aggregate. Output schema: group columns followed by the aggregate names.
pub fn aggregate(rel: &Relation, group: &[usize], aggs: &[(AggFunc, &str)]) -> Relation {
    let mut schema_cols: Vec<String> = group
        .iter()
        .map(|&i| rel.schema.cols()[i].clone())
        .collect();
    schema_cols.extend(aggs.iter().map(|(_, n)| n.to_string()));
    let schema = Schema::new(schema_cols);

    // Group keys in first-seen order for reproducible output.
    let mut order: Vec<Tuple> = Vec::new();
    let mut groups: HashMap<Tuple, Vec<Accumulator>> = HashMap::new();
    for row in &rel.rows {
        if row.mult == 0 {
            continue;
        }
        let key = row.tuple.project(group);
        let accs = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            vec![Accumulator::default(); aggs.len()]
        });
        for (acc, (f, _)) in accs.iter_mut().zip(aggs) {
            match f.input_col() {
                Some(c) => acc.add(row.tuple.get(c), row.mult),
                None => acc.add(&Value::Null, row.mult),
            }
        }
    }

    // A global aggregate over an empty input still returns one row.
    if groups.is_empty() && group.is_empty() {
        let accs = vec![Accumulator::default(); aggs.len()];
        let vals = aggs.iter().zip(&accs).map(|((f, _), a)| a.finish(*f));
        return Relation::from_rows(schema, [(Tuple::new(vals), 1)]);
    }

    let rows = order.into_iter().map(|key| {
        let accs = &groups[&key];
        let mut vals = key.0.clone();
        vals.extend(aggs.iter().zip(accs).map(|((f, _), a)| a.finish(*f)));
        (Tuple(vals), 1)
    });
    Relation::from_rows(schema, rows.collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        // (g, v) with multiplicities.
        Relation::from_rows(
            Schema::new(["g", "v"]),
            [
                (Tuple::from([1i64, 10]), 2),
                (Tuple::from([1i64, 5]), 1),
                (Tuple::from([2i64, 7]), 1),
            ],
        )
    }

    #[test]
    fn grouped_sum_count() {
        let out = aggregate(
            &rel(),
            &[0],
            &[(AggFunc::Sum(1), "s"), (AggFunc::Count, "c")],
        );
        let n = out.clone().normalize();
        assert_eq!(n.mult_of(&Tuple::from([1i64, 25, 3])), 1);
        assert_eq!(n.mult_of(&Tuple::from([2i64, 7, 1])), 1);
    }

    #[test]
    fn min_max_avg() {
        let out = aggregate(
            &rel(),
            &[],
            &[
                (AggFunc::Min(1), "mn"),
                (AggFunc::Max(1), "mx"),
                (AggFunc::Avg(1), "av"),
            ],
        );
        assert_eq!(out.rows.len(), 1);
        let t = &out.rows[0].tuple;
        assert_eq!(t.get(0), &Value::Int(5));
        assert_eq!(t.get(1), &Value::Int(10));
        // (10*2 + 5 + 7) / 4 = 8.0
        assert_eq!(t.get(2), &Value::Float(8.0));
    }

    #[test]
    fn global_aggregate_on_empty_relation() {
        let empty = Relation::empty(Schema::new(["g", "v"]));
        let out = aggregate(
            &empty,
            &[],
            &[(AggFunc::Count, "c"), (AggFunc::Sum(1), "s")],
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].tuple.get(0), &Value::Int(0));
        assert!(out.rows[0].tuple.get(1).is_null());
    }

    #[test]
    fn grouped_aggregate_on_empty_relation_is_empty() {
        let empty = Relation::empty(Schema::new(["g", "v"]));
        let out = aggregate(&empty, &[0], &[(AggFunc::Count, "c")]);
        assert!(out.is_empty());
    }

    #[test]
    fn nulls_skipped_by_sum_counted_by_count() {
        let r = Relation::from_rows(
            Schema::new(["g", "v"]),
            [
                (Tuple::new([Value::Int(1), Value::Null]), 2),
                (Tuple::from([1i64, 4]), 1),
            ],
        );
        let out = aggregate(&r, &[0], &[(AggFunc::Sum(1), "s"), (AggFunc::Count, "c")]);
        assert_eq!(out.rows[0].tuple.get(1), &Value::Int(4));
        assert_eq!(out.rows[0].tuple.get(2), &Value::Int(3));
    }
}
