//! ℕ-relations: bags of tuples with explicit multiplicities.
//!
//! An ℕ-relation is a function from tuples to natural numbers with finite
//! support (paper Sec. 3). We store the support sparsely as `(tuple, mult)`
//! rows; [`Relation::normalize`] merges equal tuples by summing their
//! multiplicities, which is the canonical form used for bag equality.

use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// One row of the sparse encoding: a tuple plus its ℕ annotation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// The tuple.
    pub tuple: Tuple,
    /// Its multiplicity `R(t) ∈ ℕ`; rows with multiplicity 0 are dropped by
    /// [`Relation::normalize`].
    pub mult: u64,
}

/// A bag relation (ℕ-relation) with a schema.
#[derive(Clone, Debug)]
pub struct Relation {
    /// Attribute names.
    pub schema: Schema,
    /// Sparse support. Not necessarily normalized: the same tuple may appear
    /// in several rows.
    pub rows: Vec<Row>,
}

impl Relation {
    /// Empty relation over the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema,
            rows: Vec::new(),
        }
    }

    /// Build a relation from `(tuple, multiplicity)` pairs.
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = (Tuple, u64)>) -> Self {
        let rows = rows
            .into_iter()
            .map(|(tuple, mult)| Row { tuple, mult })
            .collect();
        Relation { schema, rows }
    }

    /// Build a relation of multiplicity-1 tuples from rows of values.
    pub fn from_values<V, const N: usize>(
        schema: Schema,
        rows: impl IntoIterator<Item = [V; N]>,
    ) -> Self
    where
        V: Into<Value>,
    {
        assert_eq!(schema.arity(), N, "schema arity does not match row width");
        Relation::from_rows(schema, rows.into_iter().map(|r| (Tuple::from(r), 1)))
    }

    /// Append one row.
    pub fn push(&mut self, tuple: Tuple, mult: u64) {
        debug_assert_eq!(tuple.arity(), self.schema.arity());
        self.rows.push(Row { tuple, mult });
    }

    /// Number of stored rows (not counting multiplicities).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff there are no stored rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total multiplicity `Σ_t R(t)` — the bag cardinality.
    pub fn total_mult(&self) -> u64 {
        self.rows.iter().map(|r| r.mult).sum()
    }

    /// The multiplicity `R(t)` of a specific tuple.
    pub fn mult_of(&self, t: &Tuple) -> u64 {
        self.rows
            .iter()
            .filter(|r| &r.tuple == t)
            .map(|r| r.mult)
            .sum()
    }

    /// Canonical form: merge duplicate tuples, drop multiplicity-0 rows and
    /// sort by tuple value. After `normalize`, bag equality is `==` on rows.
    pub fn normalize(mut self) -> Self {
        let mut map: HashMap<Tuple, u64> = HashMap::with_capacity(self.rows.len());
        for row in self.rows.drain(..) {
            if row.mult > 0 {
                *map.entry(row.tuple).or_insert(0) += row.mult;
            }
        }
        let mut rows: Vec<Row> = map
            .into_iter()
            .map(|(tuple, mult)| Row { tuple, mult })
            .collect();
        rows.sort_by(|a, b| a.tuple.cmp(&b.tuple));
        Relation {
            schema: self.schema,
            rows,
        }
    }

    /// Bag equality: same schema arity and same tuple → multiplicity map.
    pub fn bag_eq(&self, other: &Relation) -> bool {
        if self.schema.arity() != other.schema.arity() {
            return false;
        }
        let a = self.clone().normalize();
        let b = other.clone().normalize();
        a.rows == b.rows
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} rows]", self.schema, self.rows.len())?;
        for row in &self.rows {
            writeln!(f, "  {} ×{}", row.tuple, row.mult)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(rows: &[(i64, i64, u64)]) -> Relation {
        Relation::from_rows(
            Schema::new(["a", "b"]),
            rows.iter().map(|&(a, b, m)| (Tuple::from([a, b]), m)),
        )
    }

    #[test]
    fn normalize_merges_and_drops_zero() {
        let r = rel(&[(1, 2, 1), (1, 2, 2), (3, 4, 0)]).normalize();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].mult, 3);
        assert_eq!(r.total_mult(), 3);
    }

    #[test]
    fn bag_eq_ignores_row_ordering_and_splitting() {
        let a = rel(&[(1, 2, 3), (5, 6, 1)]);
        let b = rel(&[(5, 6, 1), (1, 2, 1), (1, 2, 2)]);
        assert!(a.bag_eq(&b));
        assert!(!a.bag_eq(&rel(&[(1, 2, 2), (5, 6, 1)])));
    }

    #[test]
    fn mult_of_sums_duplicates() {
        let r = rel(&[(1, 2, 1), (1, 2, 4)]);
        assert_eq!(r.mult_of(&Tuple::from([1i64, 2])), 5);
        assert_eq!(r.mult_of(&Tuple::from([9i64, 9])), 0);
    }
}
