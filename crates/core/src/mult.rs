//! The `ℕ³` multiplicity semiring annotating AU-DB tuples (paper Sec. 3.2).
//!
//! A triple `(k↓, k_sg, k↑)` encodes a lower bound on a tuple's certain
//! multiplicity, its multiplicity in the selected-guess world, and an upper
//! bound on its possible multiplicity. The semiring's operations act
//! component-wise, and the AU-DB query semantics of \[23, 24\] lift `RA+`
//! through them exactly as Fig. 2 lifts it through ℕ. The operators this
//! engine runs only ever add annotations, never multiply them, and a sum
//! is never wrapped: [`Mult3::checked_add`] refuses one past `u64`, and
//! [`Mult3::saturating_add`] stops there where only `min(·, k)` is read.

use crate::range_value::TruthRange;
use std::error::Error;
use std::fmt;

/// A multiplicity triple `(k↓, k_sg, k↑)` with `k↓ ≤ k_sg ≤ k↑`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Mult3 {
    /// Guaranteed (certain) multiplicity.
    pub lb: u64,
    /// Multiplicity in the selected-guess world.
    pub sg: u64,
    /// Largest possible multiplicity.
    pub ub: u64,
}

impl Mult3 {
    /// The semiring zero `0_ℕ³ = (0,0,0)` — the tuple certainly absent.
    pub const ZERO: Mult3 = Mult3 {
        lb: 0,
        sg: 0,
        ub: 0,
    };

    /// The semiring one `1_ℕ³ = (1,1,1)` — the tuple certainly present once.
    pub const ONE: Mult3 = Mult3 {
        lb: 1,
        sg: 1,
        ub: 1,
    };

    /// Build a triple, checking `lb ≤ sg ≤ ub`.
    pub fn new(lb: u64, sg: u64, ub: u64) -> Self {
        assert!(
            lb <= sg && sg <= ub,
            "multiplicity invariant: ({lb},{sg},{ub})"
        );
        Mult3 { lb, sg, ub }
    }

    /// A certain multiplicity `(n, n, n)`.
    pub fn certain(n: u64) -> Self {
        Mult3 {
            lb: n,
            sg: n,
            ub: n,
        }
    }

    /// True iff the tuple is certainly absent.
    pub fn is_zero(&self) -> bool {
        self.ub == 0
    }

    /// The annotation of copy `i` when a row so annotated is split into
    /// `k↑` rows of possible multiplicity 1 (`split`, Algorithm 2): the
    /// first `k↓` copies certain, up to `k_sg` in the selected-guess world.
    pub fn copy(&self, i: u64) -> Mult3 {
        Mult3 {
            lb: u64::from(i < self.lb),
            sg: u64::from(i < self.sg),
            ub: 1,
        }
    }

    /// Does a deterministic multiplicity fall inside the triple?
    pub fn bounds(&self, n: u64) -> bool {
        self.lb <= n && n <= self.ub
    }

    /// Component-wise `+`, `None` where a component leaves `u64`.
    pub fn checked_add(self, rhs: Mult3) -> Option<Mult3> {
        Some(Mult3 {
            lb: self.lb.checked_add(rhs.lb)?,
            sg: self.sg.checked_add(rhs.sg)?,
            ub: self.ub.checked_add(rhs.ub)?,
        })
    }

    /// Component-wise `+`, each component stopping at `u64::MAX`. Exact
    /// wherever a component is read through `min(·, k)`.
    pub fn saturating_add(self, rhs: Mult3) -> Mult3 {
        Mult3 {
            lb: self.lb.saturating_add(rhs.lb),
            sg: self.sg.saturating_add(rhs.sg),
            ub: self.ub.saturating_add(rhs.ub),
        }
    }

    /// Filter by a selection condition's truth triple (\[24\] selection
    /// semantics): the certain multiplicity survives only if the condition
    /// certainly holds, the possible multiplicity only if it possibly holds.
    pub fn filter(&self, cond: TruthRange) -> Mult3 {
        Mult3 {
            lb: if cond.lb { self.lb } else { 0 },
            sg: if cond.sg { self.sg } else { 0 },
            ub: if cond.ub { self.ub } else { 0 },
        }
    }
}

/// Identical hypercubes whose merged multiplicity would leave `u64`:
/// refused, neither wrapped nor saturated — either would understate `k↑`,
/// and with it the bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultOverflow;

impl fmt::Display for MultOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "identical rows add up to a multiplicity past {}",
            u64::MAX
        )
    }
}

impl Error for MultOverflow {}

impl fmt::Display for Mult3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.lb, self.sg, self.ub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semiring_laws_smoke() {
        let a = Mult3::new(1, 2, 3);
        let b = Mult3::new(0, 1, 4);
        let c = Mult3::new(2, 2, 2);
        let add = |x: Mult3, y: Mult3| x.checked_add(y).expect("small sums");
        assert_eq!(add(a, b), add(b, a));
        assert_eq!(add(add(a, b), c), add(a, add(b, c)));
        assert_eq!(add(a, Mult3::ZERO), a);
        assert_eq!(a.saturating_add(b), add(a, b));
    }

    /// The merge's check, at the edge of `u64` in each component.
    #[test]
    fn checked_add_refuses_past_u64() {
        let top = |m: Mult3| m.checked_add(Mult3::new(0, 0, 1));
        assert_eq!(
            top(Mult3::new(0, 0, u64::MAX - 1)),
            Some(Mult3::new(0, 0, u64::MAX))
        );
        assert_eq!(top(Mult3::new(0, 0, u64::MAX)), None);
        let all = Mult3::certain(u64::MAX);
        assert_eq!(
            Mult3::ONE.checked_add(Mult3::new(u64::MAX - 1, u64::MAX - 1, u64::MAX - 1)),
            Some(all)
        );
        assert_eq!(all.checked_add(Mult3::new(1, 1, 1)), None);
        assert_eq!(
            Mult3::new(0, u64::MAX, u64::MAX).checked_add(Mult3::new(0, 1, 1)),
            None
        );
        assert_eq!(Mult3::ZERO.checked_add(all), Some(all));
    }

    #[test]
    fn filter_by_truth() {
        let m = Mult3::new(1, 2, 3);
        let t = TruthRange {
            lb: false,
            sg: true,
            ub: true,
        };
        assert_eq!(m.filter(t), Mult3::new(0, 2, 3));
        assert_eq!(m.filter(TruthRange::FALSE), Mult3::ZERO);
        assert_eq!(m.filter(TruthRange::TRUE), m);
    }

    #[test]
    #[should_panic(expected = "multiplicity invariant")]
    fn invariant_checked() {
        Mult3::new(3, 2, 1);
    }
}
