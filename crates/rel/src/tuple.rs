//! Tuples: fixed-arity vectors of [`Value`]s.

use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// A tuple over the universal domain `D^n`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(pub Vec<Value>);

impl Tuple {
    /// Build a tuple from values.
    pub fn new(vals: impl IntoIterator<Item = Value>) -> Self {
        Tuple(vals.into_iter().collect())
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Value at attribute index `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Project onto the given attribute indices (`π_A t`).
    pub fn project(&self, idxs: &[usize]) -> Tuple {
        let mut vals = Vec::with_capacity(idxs.len());
        vals.extend(idxs.iter().map(|&i| self.0[i].clone()));
        Tuple(vals)
    }

    /// Extend with one more value. Pre-sized: `clone()` + `push` would
    /// reallocate on every call (clone capacity equals length).
    pub fn with(&self, v: Value) -> Tuple {
        let mut vals = Vec::with_capacity(self.0.len() + 1);
        vals.extend_from_slice(&self.0);
        vals.push(v);
        Tuple(vals)
    }

    /// Lexicographic comparison restricted to the given attribute indices.
    /// This is `<_O` of paper Sec. 4 when `idxs` lists the order-by
    /// attributes; callers realize `<total_O` by appending the remaining
    /// schema attributes to `idxs`.
    pub fn cmp_on(&self, other: &Tuple, idxs: &[usize]) -> Ordering {
        for &i in idxs {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl<V: Into<Value>, const N: usize> From<[V; N]> for Tuple {
    fn from(vals: [V; N]) -> Self {
        Tuple(vals.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)))
    }

    #[test]
    fn project_and_concat() {
        let a = t(&[1, 2, 3]);
        assert_eq!(a.project(&[2, 0]), t(&[3, 1]));
        assert_eq!(a.with(Value::Int(7)), t(&[1, 2, 3, 7]));
    }

    #[test]
    fn cmp_on_subset_is_lexicographic() {
        let a = t(&[1, 5, 0]);
        let b = t(&[1, 3, 9]);
        assert_eq!(a.cmp_on(&b, &[0]), Ordering::Equal);
        assert_eq!(a.cmp_on(&b, &[0, 1]), Ordering::Greater);
        assert_eq!(a.cmp_on(&b, &[2, 1]), Ordering::Less);
    }

    #[test]
    fn from_array_sugar() {
        let a: Tuple = [1i64, 2].into();
        assert_eq!(a, t(&[1, 2]));
    }
}
