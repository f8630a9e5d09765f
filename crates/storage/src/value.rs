//! Dynamically typed scalar values with a first-class `NULL` (`⊥`).
//!
//! The GPIVOT paper leans heavily on `⊥` semantics: pivoted cells that have
//! no source tuple are `⊥`, "null-intolerant" predicates evaluate to false on
//! `⊥`, and a maintained view row is deleted once *all* of its pivoted cells
//! become `⊥`. [`Value::Null`] is that `⊥`.
//!
//! Values implement **total** `Eq`/`Ord`/`Hash` so that rows can be used as
//! hash-map keys (grouping, pivoting, join build sides). `Null` compares
//! less than everything else and equals itself under this total order; SQL
//! three-valued comparison is provided separately by [`Value::sql_eq`] and
//! [`Value::compare`], which return `None` on `NULL` operands — that is what
//! predicate evaluation uses, keeping "null-intolerant" semantics honest.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A scalar runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL / the paper's `⊥` (also rendered `⊥` by `Display`).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float with total ordering (NaNs normalized to a single bit
    /// pattern so hashing is consistent).
    Float(f64),
    /// Interned UTF-8 string; `Arc` keeps row cloning cheap.
    Str(Arc<str>),
    /// Calendar date as days since 1970-01-01 (TPC-H style dates).
    Date(i32),
}

impl Value {
    /// Create a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// True iff this value is `NULL`/`⊥`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A rank used to order values of different types under the total order.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // ints and floats compare numerically
            Value::Str(_) => 3,
            Value::Date(_) => 4,
        }
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view, if the value is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view, if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL three-valued equality: `None` if either side is `NULL`.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            None
        } else {
            Some(self.total_cmp(other) == Ordering::Equal)
        }
    }

    /// SQL three-valued comparison: `None` if either side is `NULL`.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            None
        } else {
            Some(self.total_cmp(other))
        }
    }

    /// Total comparison used for hashing-compatible equality and sorting.
    ///
    /// `Null < Bool < numeric < Str < Date`; `Int` and `Float` compare
    /// numerically so `Int(1) == Float(1.0)`. The mixed Int/Float arms
    /// compare *exactly* — an `i64` is never rounded through `f64`, so
    /// distinct values beyond ±2⁵³ stay distinct.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => norm_f64(*a).total_cmp(&norm_f64(*b)),
            (Int(a), Float(b)) => cmp_i64_f64(*a, *b),
            (Float(a), Int(b)) => cmp_i64_f64(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    /// Add two numeric values (`NULL` absorbs). Used by SUM maintenance.
    pub fn numeric_add(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Value::Null,
            (Value::Int(a), Value::Int(b)) => Value::Int(a + b),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Value::Float(x + y),
                _ => Value::Null,
            },
        }
    }

    /// Subtract two numeric values (`NULL` absorbs). Used by SUM maintenance.
    pub fn numeric_sub(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Value::Null,
            (Value::Int(a), Value::Int(b)) => Value::Int(a - b),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Value::Float(x - y),
                _ => Value::Null,
            },
        }
    }
}

/// Exact comparison of an `i64` against an `f64` under the total order.
///
/// `i as f64` is lossy for |i| > 2⁵³, so the naive cast makes distinct
/// values compare equal (e.g. `2⁵³ + 1` vs `2⁵³.0`), corrupting sorted
/// dedup and hash-group keys. Instead the float side is truncated — exact
/// for every finite `f64` in the `i64` range — and the fractional part
/// breaks integer-part ties. NaN is normalized first, which makes it the
/// positive quiet NaN: above every finite value under `f64::total_cmp`,
/// hence above every integer.
fn cmp_i64_f64(i: i64, f: f64) -> Ordering {
    let f = norm_f64(f);
    if f.is_nan() {
        return Ordering::Less; // int < normalized (positive) NaN
    }
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0; // 2^63, exact
    if f >= TWO_POW_63 {
        return Ordering::Less; // f > i64::MAX >= i
    }
    if f < -TWO_POW_63 {
        return Ordering::Greater; // f < i64::MIN <= i
    }
    // Finite and within [-2^63, 2^63): trunc() is exact and fits in i64.
    let t = f.trunc();
    match i.cmp(&(t as i64)) {
        Ordering::Equal if f > t => Ordering::Less,
        Ordering::Equal if f < t => Ordering::Greater,
        ord => ord,
    }
}

/// Normalize a float so every NaN has one representation and `-0.0 == 0.0`.
fn norm_f64(f: f64) -> f64 {
    if f.is_nan() {
        f64::NAN
    } else if f == 0.0 {
        0.0
    } else {
        f
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float must hash identically when numerically equal,
            // because they compare equal. Hash every numeric via the float
            // bit pattern of its normalized value when it is representable,
            // otherwise via the integer.
            Value::Int(i) => {
                let f = *i as f64;
                if f as i64 == *i {
                    2u8.hash(state);
                    norm_f64(f).to_bits().hash(state);
                } else {
                    3u8.hash(state);
                    i.hash(state);
                }
            }
            Value::Float(f) => {
                let nf = norm_f64(*f);
                2u8.hash(state);
                nf.to_bits().hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                5u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "⊥"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => {
                let (y, m, day) = date_from_days(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
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
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

/// Convert days-since-epoch into `(year, month, day)` (proleptic Gregorian).
///
/// Implemented here so the crate stays dependency-free; only used by
/// `Display` and the TPC-H generator's date arithmetic.
pub fn date_from_days(days: i32) -> (i32, u32, u32) {
    // Civil-from-days algorithm (Howard Hinnant).
    let z = days as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    let year = if m <= 2 { y + 1 } else { y } as i32;
    (year, m, d)
}

/// Convert `(year, month, day)` into days since 1970-01-01.
pub fn days_from_date(year: i32, month: u32, day: u32) -> i32 {
    let y = if month <= 2 {
        year as i64 - 1
    } else {
        year as i64
    };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64; // [0, 399]
    let mp = if month > 2 { month - 3 } else { month + 9 } as u64;
    let doy = (153 * mp + 2) / 5 + day as u64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    (era * 146_097 + doe as i64 - 719_468) as i32
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
    fn null_equals_itself_totally() {
        assert_eq!(Value::Null, Value::Null);
        assert!(Value::Null < Value::Int(0));
    }

    #[test]
    fn sql_eq_is_three_valued() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn int_float_numeric_equality_and_hash_agree() {
        let a = Value::Int(42);
        let b = Value::Float(42.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn nan_is_self_consistent() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn negative_zero_equals_zero() {
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
    }

    #[test]
    fn numeric_add_null_absorbs() {
        assert!(Value::Null.numeric_add(&Value::Int(3)).is_null());
        assert_eq!(Value::Int(2).numeric_add(&Value::Int(3)), Value::Int(5));
        assert_eq!(
            Value::Float(1.5).numeric_add(&Value::Int(1)),
            Value::Float(2.5)
        );
    }

    #[test]
    fn numeric_sub_mixed_types() {
        assert_eq!(Value::Int(5).numeric_sub(&Value::Int(2)), Value::Int(3));
        assert_eq!(
            Value::Float(5.0).numeric_sub(&Value::Int(2)),
            Value::Float(3.0)
        );
    }

    #[test]
    fn display_renders_bottom_for_null() {
        assert_eq!(Value::Null.to_string(), "⊥");
        assert_eq!(Value::str("x").to_string(), "x");
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[(1970, 1, 1), (1992, 2, 29), (1998, 12, 1), (2026, 7, 7)] {
            let days = days_from_date(y, m, d);
            assert_eq!(date_from_days(days), (y, m, d));
        }
        assert_eq!(days_from_date(1970, 1, 1), 0);
        assert_eq!(days_from_date(1970, 1, 2), 1);
    }

    #[test]
    fn date_display() {
        let v = Value::Date(days_from_date(1995, 3, 15));
        assert_eq!(v.to_string(), "1995-03-15");
    }

    #[test]
    fn cross_type_ordering_is_stable() {
        let mut vals = [
            Value::str("a"),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
            Value::Date(10),
        ];
        vals.sort();
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Int(1));
        assert_eq!(vals[3], Value::str("a"));
        assert_eq!(vals[4], Value::Date(10));
    }

    #[test]
    fn compare_returns_none_on_null() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).compare(&Value::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn int_float_comparison_is_exact_beyond_2_53() {
        // Pre-fix, `Int(2^53 + 1) as f64` rounded down to 2^53 and the two
        // distinct values compared Equal.
        let p53 = 1i64 << 53;
        assert_eq!(
            Value::Int(p53 + 1).total_cmp(&Value::Float(p53 as f64)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Float(p53 as f64).total_cmp(&Value::Int(p53 + 1)),
            Ordering::Less
        );
        // Exactly representable ints still compare (and hash) equal.
        assert_eq!(Value::Int(p53), Value::Float(p53 as f64));
        assert_eq!(
            hash_of(&Value::Int(p53)),
            hash_of(&Value::Float(p53 as f64))
        );
        // Pre-fix, `i64::MAX as f64` rounded up to 2^63 and compared Equal
        // to Float(2^63) even though i64::MAX < 2^63.
        assert_eq!(
            Value::Int(i64::MAX).total_cmp(&Value::Float(9_223_372_036_854_775_808.0)),
            Ordering::Less
        );
        assert_eq!(
            Value::Int(i64::MIN).total_cmp(&Value::Float(-9_223_372_036_854_775_808.0)),
            Ordering::Equal,
            "-2^63 is exactly representable"
        );
        // Fractional parts break integer-part ties in both signs.
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(
            Value::Int(-2).total_cmp(&Value::Float(-2.5)),
            Ordering::Greater
        );
        // NaN sits above every integer (it normalizes to the positive
        // quiet NaN, which f64::total_cmp places above +inf).
        assert_eq!(
            Value::Int(i64::MAX).total_cmp(&Value::Float(f64::NAN)),
            Ordering::Less
        );
        assert_eq!(
            Value::Float(f64::NEG_INFINITY).total_cmp(&Value::Int(i64::MIN)),
            Ordering::Less
        );
    }

    #[test]
    fn int_float_order_antisymmetric_and_transitive_near_2_53() {
        // Deterministic sweep around the representability boundary: every
        // pair must be antisymmetric, every sorted triple transitive, and
        // equality must imply hash agreement.
        let p53 = 1i64 << 53;
        let mut vals = Vec::new();
        for d in -3i64..=3 {
            vals.push(Value::Int(p53 + d));
            vals.push(Value::Int(-p53 + d));
            vals.push(Value::Float((p53 + d) as f64));
            vals.push(Value::Float(-((p53 + d) as f64)));
        }
        vals.push(Value::Int(i64::MAX));
        vals.push(Value::Int(i64::MIN));
        vals.push(Value::Float(9_223_372_036_854_775_808.0));
        vals.push(Value::Float(f64::NAN));
        for a in &vals {
            assert_eq!(a.total_cmp(a), Ordering::Equal);
            for b in &vals {
                assert_eq!(
                    a.total_cmp(b),
                    b.total_cmp(a).reverse(),
                    "antisymmetry failed for {a:?} vs {b:?}"
                );
                if a.total_cmp(b) == Ordering::Equal {
                    assert_eq!(hash_of(a), hash_of(b), "Eq/Hash split for {a:?} vs {b:?}");
                }
                for c in &vals {
                    if a.total_cmp(b) != Ordering::Greater && b.total_cmp(c) != Ordering::Greater {
                        assert_ne!(
                            a.total_cmp(c),
                            Ordering::Greater,
                            "transitivity failed for {a:?} <= {b:?} <= {c:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn large_int_hash_does_not_collapse() {
        // Ints not exactly representable as f64 still hash/compare fine.
        let big = Value::Int(i64::MAX - 1);
        let big2 = Value::Int(i64::MAX - 1);
        assert_eq!(big, big2);
        assert_eq!(hash_of(&big), hash_of(&big2));
    }
}
