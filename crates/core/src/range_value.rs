//! Range-annotated values `[c↓ / c_sg / c↑]` (paper Sec. 3.2) and the
//! bound-preserving expression semantics of \[24\] (Sec. 3.2, "Expression
//! Evaluation").
//!
//! A range-annotated value bounds an unknown deterministic value from below
//! and above and carries a *selected-guess* — the value the distinguished
//! selected-guess world (SGW) assigns. The invariant `lb ≤ sg ≤ ub` holds by
//! construction. Arithmetic and comparisons evaluate component-wise so that
//! for every deterministic value `c` with `lb ≤ c ≤ ub`, the deterministic
//! result of an expression lies within the range result (bound preservation,
//! proven in \[24\] for arithmetic, boolean operators and comparisons).

use audb_rel::Value;
use std::fmt;

/// A value triple `[lb / sg / ub]` with `lb ≤ sg ≤ ub` under the total
/// value order.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RangeValue {
    /// Lower bound `c↓`.
    pub lb: Value,
    /// Selected guess `c_sg`.
    pub sg: Value,
    /// Upper bound `c↑`.
    pub ub: Value,
}

// A field or `Value` variant that regrows this must say why: one per cell.
const _: () = assert!(std::mem::size_of::<RangeValue>() == 48);

impl RangeValue {
    /// Build a range value, checking the ordering invariant.
    pub fn new(lb: impl Into<Value>, sg: impl Into<Value>, ub: impl Into<Value>) -> Self {
        let (lb, sg, ub) = (lb.into(), sg.into(), ub.into());
        assert!(
            lb <= sg && sg <= ub,
            "range value invariant violated: [{lb} / {sg} / {ub}]"
        );
        RangeValue { lb, sg, ub }
    }

    /// A certain value: `lb = sg = ub = v`.
    pub fn certain(v: impl Into<Value>) -> Self {
        let v = v.into();
        RangeValue {
            lb: v.clone(),
            sg: v.clone(),
            ub: v,
        }
    }

    /// True iff the value is certain (`lb = sg = ub`).
    pub fn is_certain(&self) -> bool {
        self.lb == self.sg && self.sg == self.ub
    }

    /// Does the deterministic value `v` fall inside this range (`v ⊑ c`)?
    pub fn bounds(&self, v: &Value) -> bool {
        &self.lb <= v && v <= &self.ub
    }

    /// Component-wise addition (monotone, hence bound preserving):
    /// `[a↓+b↓ / a_sg+b_sg / a↑+b↑]` (\[24\], Sec. 3.2).
    pub fn add(&self, other: &RangeValue) -> RangeValue {
        RangeValue {
            lb: self.lb.add(&other.lb),
            sg: self.sg.add(&other.sg),
            ub: self.ub.add(&other.ub),
        }
    }

    /// Subtraction is antitone in its right argument:
    /// `[a↓−b↑ / a_sg−b_sg / a↑−b↓]`.
    pub fn sub(&self, other: &RangeValue) -> RangeValue {
        RangeValue {
            lb: self.lb.sub(&other.ub),
            sg: self.sg.sub(&other.sg),
            ub: self.ub.sub(&other.lb),
        }
    }

    /// Multiplication takes the extrema over the four corner products.
    pub fn mul(&self, other: &RangeValue) -> RangeValue {
        let corners = [
            self.lb.mul(&other.lb),
            self.lb.mul(&other.ub),
            self.ub.mul(&other.lb),
            self.ub.mul(&other.ub),
        ];
        let lb = corners.iter().min().unwrap().clone();
        let ub = corners.iter().max().unwrap().clone();
        RangeValue {
            lb,
            sg: self.sg.mul(&other.sg),
            ub,
        }
    }

    /// Negation swaps the bounds.
    pub fn neg(&self) -> RangeValue {
        RangeValue {
            lb: self.ub.neg(),
            sg: self.sg.neg(),
            ub: self.lb.neg(),
        }
    }

    /// `⟦a < b⟧` as a truth triple: certainly less iff `a↑ < b↓`, possibly
    /// less iff `a↓ < b↑`, selected-guess on the sg components.
    pub fn lt(&self, other: &RangeValue) -> TruthRange {
        TruthRange {
            lb: self.ub < other.lb,
            sg: self.sg < other.sg,
            ub: self.lb < other.ub,
        }
    }

    /// `⟦a ≤ b⟧`.
    pub fn le(&self, other: &RangeValue) -> TruthRange {
        TruthRange {
            lb: self.ub <= other.lb,
            sg: self.sg <= other.sg,
            ub: self.lb <= other.ub,
        }
    }

    /// `⟦a = b⟧`: certainly equal iff both ranges are the same single point;
    /// possibly equal iff the ranges overlap.
    pub fn eq_range(&self, other: &RangeValue) -> TruthRange {
        TruthRange {
            lb: self.is_certain() && other.is_certain() && self.lb == other.lb,
            sg: self.sg == other.sg,
            ub: self.lb <= other.ub && other.lb <= self.ub,
        }
    }

    /// Smallest range containing both (range union / least upper bound in
    /// the bounding order).
    pub fn hull(&self, other: &RangeValue) -> RangeValue {
        RangeValue {
            lb: self.lb.clone().min(other.lb.clone()),
            sg: self.sg.clone(),
            ub: self.ub.clone().max(other.ub.clone()),
        }
    }

    /// Integer view of the three components (panics on non-integers; used
    /// for materialized sort positions).
    pub fn as_i64_triple(&self) -> (i64, i64, i64) {
        (
            self.lb.as_i64().expect("integer range value"),
            self.sg.as_i64().expect("integer range value"),
            self.ub.as_i64().expect("integer range value"),
        )
    }

    /// Integer triple constructor.
    pub fn from_i64s(lb: i64, sg: i64, ub: i64) -> Self {
        RangeValue::new(lb, sg, ub)
    }
}

impl fmt::Display for RangeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_certain() {
            write!(f, "{}", self.sg)
        } else {
            write!(f, "[{}/{}/{}]", self.lb, self.sg, self.ub)
        }
    }
}

impl<V: Into<Value>> From<V> for RangeValue {
    fn from(v: V) -> Self {
        RangeValue::certain(v)
    }
}

/// The result of evaluating a boolean expression over ranges: a triple
/// `[⊥..⊤]` with `certain ⇒ sg ⇒ possible` (using the order `⊥ < ⊤`,
/// paper Sec. 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TruthRange {
    /// Certainly true (true in *every* bounded world).
    pub lb: bool,
    /// True in the selected-guess world.
    pub sg: bool,
    /// Possibly true (true in *some* bounded world).
    pub ub: bool,
}

impl TruthRange {
    /// Constant truth.
    pub fn certain(b: bool) -> Self {
        TruthRange {
            lb: b,
            sg: b,
            ub: b,
        }
    }

    /// The always-false triple.
    pub const FALSE: TruthRange = TruthRange {
        lb: false,
        sg: false,
        ub: false,
    };

    /// The always-true triple.
    pub const TRUE: TruthRange = TruthRange {
        lb: true,
        sg: true,
        ub: true,
    };

    /// Conjunction (component-wise; monotone, hence bound preserving).
    pub fn and(self, other: TruthRange) -> TruthRange {
        TruthRange {
            lb: self.lb && other.lb,
            sg: self.sg && other.sg,
            ub: self.ub && other.ub,
        }
    }

    /// Disjunction.
    pub fn or(self, other: TruthRange) -> TruthRange {
        TruthRange {
            lb: self.lb || other.lb,
            sg: self.sg || other.sg,
            ub: self.ub || other.ub,
        }
    }

    /// Negation swaps the bounds: `¬[l/s/u] = [¬u/¬s/¬l]`.
    pub fn not(self) -> TruthRange {
        TruthRange {
            lb: !self.ub,
            sg: !self.sg,
            ub: !self.lb,
        }
    }

    /// Sanity: the triple is monotone (`lb ⇒ sg ⇒ ub`).
    pub fn is_wellformed(self) -> bool {
        (!self.lb || self.sg) && (!self.sg || self.ub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    #[test]
    fn invariant_enforced() {
        rv(1, 2, 3);
        let r = std::panic::catch_unwind(|| rv(3, 2, 1));
        assert!(r.is_err());
    }

    #[test]
    fn paper_comparison_example() {
        // ⟦[1/1/3] < [2/2/2]⟧ = [⊥/⊤/⊤] (paper Sec. 5).
        let t = rv(1, 1, 3).lt(&rv(2, 2, 2));
        assert_eq!(
            t,
            TruthRange {
                lb: false,
                sg: true,
                ub: true
            }
        );
        assert!(t.is_wellformed());
    }

    #[test]
    fn addition_matches_paper_rule() {
        // [a↓+b↓ / a_sg+b_sg / a↑+b↑]
        let s = rv(1, 2, 3).add(&rv(10, 20, 30));
        assert_eq!(s, rv(11, 22, 33));
    }

    #[test]
    fn subtraction_flips_bounds() {
        let s = rv(1, 2, 3).sub(&rv(10, 20, 30));
        assert_eq!(s, RangeValue::new(-29, -18, -7));
    }

    #[test]
    fn multiplication_corners() {
        let s = rv(-2, 1, 3).mul(&rv(-5, 2, 4));
        // corners: 10, -8, -15, 12 → [-15, 12]; sg = 2.
        assert_eq!(s, RangeValue::new(-15, 2, 12));
    }

    #[test]
    fn bound_preservation_smoke() {
        // For every deterministic pick inside the ranges, the deterministic
        // result must stay inside the range result.
        let a = rv(-3, 0, 4);
        let b = rv(-1, 2, 5);
        for x in -3..=4i64 {
            for y in -1..=5i64 {
                let add = Value::Int(x + y);
                let sub = Value::Int(x - y);
                let mul = Value::Int(x * y);
                assert!(a.add(&b).bounds(&add));
                assert!(a.sub(&b).bounds(&sub));
                assert!(a.mul(&b).bounds(&mul), "{x}*{y} outside {}", a.mul(&b));
                let lt = a.lt(&b);
                if lt.lb {
                    assert!(x < y);
                }
                if x < y {
                    assert!(lt.ub);
                }
            }
        }
    }

    #[test]
    fn equality_semantics() {
        assert_eq!(rv(1, 1, 1).eq_range(&rv(1, 1, 1)), TruthRange::TRUE);
        let t = rv(1, 2, 3).eq_range(&rv(2, 2, 2));
        assert!(!t.lb && t.sg && t.ub);
        assert_eq!(rv(1, 1, 2).eq_range(&rv(3, 3, 4)), TruthRange::FALSE);
    }

    #[test]
    fn truth_negation_swaps() {
        let t = TruthRange {
            lb: false,
            sg: true,
            ub: true,
        };
        let n = t.not();
        assert_eq!(
            n,
            TruthRange {
                lb: false,
                sg: false,
                ub: true
            }
        );
        assert!(n.is_wellformed());
    }

    #[test]
    fn hull_covers_both() {
        let h = rv(1, 2, 3).hull(&rv(-5, 0, 2));
        assert_eq!(h, RangeValue::new(-5, 2, 3));
    }
}
