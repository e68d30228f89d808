//! Scalar values with a total order.
//!
//! The sort and window operators of the paper assume "a total order < for
//! the domains of all attributes" (Sec. 4). We therefore equip [`Value`]
//! with a total order across *all* variants:
//!
//! ```text
//! Null  <  Bool(false) < Bool(true)  <  numbers (Int/Float, numerically)  <  strings
//! ```
//!
//! `Int` and `Float` compare numerically against each other, and `Eq`/`Hash`
//! are kept consistent with that comparison (an integral float hashes like
//! the corresponding integer). `NaN` sorts after every other number.
//!
//! The order is a genuine *total order* — transitive including the float
//! edge cases: all `NaN` payloads compare equal (and after every non-NaN
//! number, so int-vs-NaN and float-vs-NaN agree), and `-0.0 == 0.0 ==
//! Int(0)`. This matters beyond hygiene: `audb_core::sortkey` encodes
//! values into memcmp-comparable byte strings whose byte order must match
//! `Value::cmp` exactly, which is impossible if the comparison is
//! intransitive (as `f64::total_cmp` mixed with numeric int–float
//! comparison would be).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A scalar database value: 16 bytes, a tag beside an 8-byte payload, paid
/// three times per attribute in the row form (a cell is `[lb, sg, ub]`).
#[derive(Clone, Debug)]
pub enum Value {
    /// Absent / unknown value. Sorts before everything else.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float, totally ordered numerically (`-0.0 == 0.0`, every NaN
    /// equal and greater than all other numbers) with cross-type numeric
    /// comparison against `Int`.
    Float(f64),
    /// Immutable string behind a thin handle (one pointer, where an
    /// `Arc<str>` is two); clones are reference bumps, and a dictionary
    /// lane hands out its pool's handle rather than a copy. A new one
    /// costs two allocations (`Arc` block, `String` buffer), `Arc<str>` one.
    Str(Arc<String>),
}

// A variant that regrows this must say why: each row-form cell pays it thrice.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::new(s.as_ref().to_owned()))
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (`Int`/`Float` only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (`Int` only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Truthiness used by selection predicates: `Bool(true)` is true,
    /// everything else (including `Null`) is false.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    fn variant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// Addition with numeric promotion; `Null` is absorbing.
    pub fn add(&self, other: &Value) -> Value {
        numeric_binop(self, other, |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// Subtraction with numeric promotion; `Null` is absorbing.
    pub fn sub(&self, other: &Value) -> Value {
        numeric_binop(self, other, |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// Multiplication with numeric promotion; `Null` is absorbing.
    pub fn mul(&self, other: &Value) -> Value {
        numeric_binop(self, other, |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// Division. Integer division truncates; division by zero yields `Null`.
    pub fn div(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.wrapping_div(*b))
                }
            }
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a / b)
                    }
                }
                _ => Value::Null,
            },
        }
    }

    /// Numeric negation; `Null` otherwise.
    pub fn neg(&self) -> Value {
        match self {
            Value::Int(i) => Value::Int(i.wrapping_neg()),
            Value::Float(f) => Value::Float(-f),
            _ => Value::Null,
        }
    }

    /// Multiply by a (non-negative) multiplicity, used by aggregation over
    /// bags: a tuple with multiplicity `n` contributes `n * value` to a sum.
    pub fn scale(&self, n: u64) -> Value {
        match self {
            Value::Int(i) => Value::Int(i.wrapping_mul(n as i64)),
            Value::Float(f) => Value::Float(f * n as f64),
            _ => Value::Null,
        }
    }
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    float_op: impl Fn(f64, f64) -> f64,
) -> Value {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => match int_op(*x, *y) {
            Some(v) => Value::Int(v),
            None => Value::Float(float_op(*x as f64, *y as f64)),
        },
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => Value::Float(float_op(x, y)),
            _ => Value::Null,
        },
    }
}

/// Compare two `f64`s numerically and totally: `-0.0 == 0.0`, and every
/// NaN (any sign/payload) is equal to every other NaN and greater than
/// every non-NaN. Unlike `f64::total_cmp`, this is consistent with the
/// numeric int–float comparison below (which cannot observe NaN payloads),
/// keeping the whole `Value` order transitive.
///
/// Public because the typed (monomorphic) column kernels in `audb-core`
/// compare raw `f64` lanes and must reproduce `Value::cmp` bit for bit.
#[inline]
pub fn cmp_float_float(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("non-NaN floats compare"),
    }
}

/// Compare an `i64` against an `f64` numerically and totally (the other
/// monomorphic mirror of `Value::cmp`, see [`cmp_float_float`]).
#[inline]
pub fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() {
        // NaN sorts after all numbers.
        return Ordering::Less;
    }
    // i64 -> f64 may lose precision for |i| > 2^53; compare via partial_cmp
    // on the widened value and fall back to exact integer comparison.
    let fi = i as f64;
    match fi.partial_cmp(&f) {
        Some(Ordering::Equal) => {
            // f might be fractional or out of i64 range even when fi == f is
            // reported; re-check exactly when f is integral and in range.
            if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
                i.cmp(&(f as i64))
            } else {
                Ordering::Equal
            }
        }
        Some(o) => o,
        None => Ordering::Less,
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => cmp_float_float(*a, *b),
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.variant_rank().cmp(&other.variant_rank()),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            Value::Int(i) => {
                state.write_u8(2);
                i.hash(state);
            }
            Value::Float(f) => {
                // Keep Hash consistent with Eq: integral floats equal ints,
                // and all NaNs are equal (so they must hash alike).
                if f.is_nan() {
                    state.write_u8(3);
                    f64::NAN.to_bits().hash(state);
                } else if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                    state.write_u8(2);
                    (*f as i64).hash(state);
                } else {
                    state.write_u8(3);
                    f.to_bits().hash(state);
                }
            }
            Value::Str(s) => {
                state.write_u8(4);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(mut v: String) -> Self {
        v.shrink_to_fit(); // the handle keeps the buffer for good
        Value::Str(Arc::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_string_handle_keeps_no_spare_capacity() {
        let mut s = String::with_capacity(64);
        s.push_str("héllo");
        let Value::Str(h) = Value::from(s) else {
            panic!("not a string");
        };
        assert_eq!((h.as_str(), h.capacity()), ("héllo", 6));
    }

    #[test]
    fn total_order_across_variants() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Float(2.5),
            Value::Int(3),
            Value::str("a"),
            Value::str("b"),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{:?} < {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn int_float_cross_comparison() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.9) < Value::Int(2));
        assert!(Value::Int(2) < Value::Float(f64::NAN));
    }

    #[test]
    fn hash_consistent_with_eq() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
        assert_eq!(Value::Int(7), Value::Float(7.0));
    }

    #[test]
    fn arithmetic_promotion_and_null() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)), Value::Int(5));
        assert_eq!(Value::Int(2).add(&Value::Float(0.5)), Value::Float(2.5));
        assert!(Value::Int(2).add(&Value::Null).is_null());
        assert!(Value::Int(2).div(&Value::Int(0)).is_null());
        assert_eq!(Value::Int(7).div(&Value::Int(2)), Value::Int(3));
    }

    #[test]
    fn overflow_promotes_to_float() {
        let big = Value::Int(i64::MAX);
        match big.add(&Value::Int(1)) {
            Value::Float(f) => assert!(f >= i64::MAX as f64),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn scale_by_multiplicity() {
        assert_eq!(Value::Int(4).scale(3), Value::Int(12));
        assert_eq!(Value::Float(1.5).scale(2), Value::Float(3.0));
    }

    #[test]
    fn nan_sorts_last_among_floats() {
        assert!(Value::Float(f64::INFINITY) < Value::Float(f64::NAN));
        assert!(Value::Float(f64::NAN) < Value::str(""));
    }

    #[test]
    fn float_edge_cases_are_totally_ordered() {
        // All NaNs are one equivalence class after every number, regardless
        // of sign or payload, and they hash alike.
        assert_eq!(Value::Float(f64::NAN), Value::Float(-f64::NAN));
        assert_eq!(
            hash_of(&Value::Float(f64::NAN)),
            hash_of(&Value::Float(-f64::NAN))
        );
        assert!(Value::Float(-f64::NAN) > Value::Float(f64::INFINITY));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
        // Signed zeros are numerically equal to each other and to Int(0).
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(Value::Float(-0.0), Value::Int(0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Int(0)));
    }
}
