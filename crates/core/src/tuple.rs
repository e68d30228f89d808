//! Range-annotated tuples: hypercubes in the attribute space.

use crate::range_value::{RangeValue, TruthRange};
use audb_rel::{Tuple, Value};
use std::cmp::Ordering;
use std::fmt;

/// A range-annotated tuple `t ∈ (D_I)^n` — a hypercube bounding zero or more
/// deterministic tuples (paper Sec. 3.2).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AuTuple(pub Vec<RangeValue>);

impl AuTuple {
    /// Build from range values.
    pub fn new(vals: impl IntoIterator<Item = RangeValue>) -> Self {
        AuTuple(vals.into_iter().collect())
    }

    /// A fully certain tuple mirroring a deterministic tuple.
    pub fn certain(t: &Tuple) -> Self {
        AuTuple(t.0.iter().cloned().map(RangeValue::certain).collect())
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Attribute at index `i`.
    pub fn get(&self, i: usize) -> &RangeValue {
        &self.0[i]
    }

    /// `t ⊑ self`: does the deterministic tuple fit inside the hypercube
    /// (every attribute within its range)? Paper Sec. 3.2.
    pub fn bounds(&self, t: &Tuple) -> bool {
        self.arity() == t.arity() && self.0.iter().zip(&t.0).all(|(r, v)| r.bounds(v))
    }

    /// Project onto attribute indices.
    pub fn project(&self, idxs: &[usize]) -> AuTuple {
        let mut vals = Vec::with_capacity(idxs.len());
        vals.extend(idxs.iter().map(|&i| self.0[i].clone()));
        AuTuple(vals)
    }

    /// Extend with one attribute. Pre-sized: `clone()` + `push` would
    /// reallocate on every call (clone capacity equals length).
    pub fn with(&self, v: RangeValue) -> AuTuple {
        let mut vals = Vec::with_capacity(self.0.len() + 1);
        vals.extend_from_slice(&self.0);
        vals.push(v);
        AuTuple(vals)
    }

    /// The lower-bound corner of the hypercube, as a deterministic tuple.
    pub fn lb_tuple(&self) -> Tuple {
        Tuple(self.0.iter().map(|r| r.lb.clone()).collect())
    }

    /// The selected-guess point.
    pub fn sg_tuple(&self) -> Tuple {
        Tuple(self.0.iter().map(|r| r.sg.clone()).collect())
    }

    /// The upper-bound corner.
    pub fn ub_tuple(&self) -> Tuple {
        Tuple(self.0.iter().map(|r| r.ub.clone()).collect())
    }

    /// True iff every attribute is certain.
    pub fn is_certain(&self) -> bool {
        self.0.iter().all(RangeValue::is_certain)
    }

    /// Lexicographic comparison of the *lower-bound corners* restricted to
    /// `idxs` (used as the physical input order of Algorithm 1).
    pub fn cmp_lb_on(&self, other: &AuTuple, idxs: &[usize]) -> Ordering {
        cmp_proj(idxs, |i| &self.0[i].lb, |i| &other.0[i].lb)
    }

    /// Lexicographic comparison of the upper-bound corners on `idxs`.
    pub fn cmp_ub_on(&self, other: &AuTuple, idxs: &[usize]) -> Ordering {
        cmp_proj(idxs, |i| &self.0[i].ub, |i| &other.0[i].ub)
    }

    /// Lexicographic comparison of the selected-guess points on `idxs`.
    pub fn cmp_sg_on(&self, other: &AuTuple, idxs: &[usize]) -> Ordering {
        cmp_proj(idxs, |i| &self.0[i].sg, |i| &other.0[i].sg)
    }

    /// Compare this tuple's *upper* corner against `other`'s *lower* corner
    /// on `idxs`: `Less` means `self` certainly precedes `other` under the
    /// exact interval-lex semantics.
    pub fn cmp_ub_vs_lb_on(&self, other: &AuTuple, idxs: &[usize]) -> Ordering {
        cmp_proj(idxs, |i| &self.0[i].ub, |i| &other.0[i].lb)
    }

    /// Compare this tuple's *lower* corner against `other`'s *upper* corner
    /// on `idxs`: `Less` means `self` possibly precedes `other`.
    pub fn cmp_lb_vs_ub_on(&self, other: &AuTuple, idxs: &[usize]) -> Ordering {
        cmp_proj(idxs, |i| &self.0[i].lb, |i| &other.0[i].ub)
    }

    /// `⟦self = other⟧` on `idxs`: whether the two certainly, in the
    /// selected guess and possibly agree there (a window's partition truth).
    pub fn eq_on(&self, other: &AuTuple, idxs: &[usize]) -> TruthRange {
        (idxs.iter()).fold(TruthRange::TRUE, |acc, &i| {
            acc.and(self.0[i].eq_range(&other.0[i]))
        })
    }
}

fn cmp_proj<'a>(
    idxs: &[usize],
    a: impl Fn(usize) -> &'a Value,
    b: impl Fn(usize) -> &'a Value,
) -> Ordering {
    for &i in idxs {
        match a(i).cmp(b(i)) {
            Ordering::Equal => continue,
            o => return o,
        }
    }
    Ordering::Equal
}

impl fmt::Display for AuTuple {
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

impl<R: Into<RangeValue>, const N: usize> From<[R; N]> for AuTuple {
    fn from(vals: [R; N]) -> Self {
        AuTuple(vals.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    #[test]
    fn bounding_deterministic_tuples() {
        let t = AuTuple::new([rv(1, 3, 5), RangeValue::certain(Value::str("a"))]);
        assert!(t.bounds(&Tuple::new([Value::Int(3), Value::str("a")])));
        assert!(t.bounds(&Tuple::new([Value::Int(1), Value::str("a")])));
        assert!(!t.bounds(&Tuple::new([Value::Int(6), Value::str("a")])));
        assert!(!t.bounds(&Tuple::new([Value::Int(3), Value::str("b")])));
    }

    #[test]
    fn corner_tuples() {
        let t = AuTuple::new([rv(1, 3, 5), rv(0, 0, 2)]);
        assert_eq!(t.lb_tuple(), Tuple::from([1i64, 0]));
        assert_eq!(t.sg_tuple(), Tuple::from([3i64, 0]));
        assert_eq!(t.ub_tuple(), Tuple::from([5i64, 2]));
    }

    #[test]
    fn interval_lex_corner_comparisons() {
        // Example 6 pair: ([1/1/2], 2) certainly precedes ([2/3/3], 15)
        // because its ub corner (2,2) <lex the other's lb corner (2,15).
        let t3 = AuTuple::new([rv(1, 1, 2), RangeValue::certain(2i64)]);
        let t2 = AuTuple::new([rv(2, 3, 3), RangeValue::certain(15i64)]);
        assert_eq!(t3.cmp_ub_vs_lb_on(&t2, &[0, 1]), Ordering::Less);
        // And possibly precedes, of course.
        assert_eq!(t3.cmp_lb_vs_ub_on(&t2, &[0, 1]), Ordering::Less);
        // The reverse is not even possible.
        assert_ne!(t2.cmp_lb_vs_ub_on(&t3, &[0, 1]), Ordering::Less);
    }

    #[test]
    fn certain_tuple_roundtrip() {
        let det = Tuple::from([4i64, 7]);
        let t = AuTuple::certain(&det);
        assert!(t.is_certain());
        assert!(t.bounds(&det));
        assert_eq!(t.sg_tuple(), det);
    }
}
