//! Rows: immutable tuples of [`Value`]s.
//!
//! Rows are stored behind an `Arc<[Value]>` so that the executor and the
//! maintenance engine can copy rows between operators, deltas, hash tables
//! and materialized views without deep-cloning the values. Mutation goes
//! through [`Row::to_vec`] + rebuild, which keeps sharing safe.

use crate::value::Value;
use std::borrow::Borrow;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// An immutable tuple of values.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Row(Arc<[Value]>);

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row(Arc::from(values))
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// True if the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrow the values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Value at `idx`; panics if out of range (plans are schema-checked
    /// before execution, so an out-of-range index is a planner bug).
    pub fn get(&self, idx: usize) -> &Value {
        &self.0[idx]
    }

    /// Copy the values out for modification.
    pub fn to_vec(&self) -> Vec<Value> {
        self.0.to_vec()
    }

    /// Project the row onto the given column indices.
    pub fn project(&self, indices: &[usize]) -> Row {
        // Collected straight into the `Arc<[Value]>` (the iterator's length
        // is exact): one allocation per row, not a `Vec` and then a copy.
        Row(indices.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Concatenate two rows (used by joins).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Row::new(v)
    }

    /// Append `n` NULL columns (used by outer joins).
    pub fn pad_nulls(&self, n: usize) -> Row {
        let mut v = self.to_vec();
        v.extend(std::iter::repeat_n(Value::Null, n));
        Row::new(v)
    }

    /// True iff every value at the given indices is NULL.
    pub fn all_null_at(&self, indices: &[usize]) -> bool {
        indices.iter().all(|&i| self.0[i].is_null())
    }

    /// Iterate over the values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }
}

/// Collects straight into the row's `Arc<[Value]>`: one allocation when
/// the iterator's length is exact (a `map` over a slice), not a `Vec` and
/// then a copy.
impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Self {
        Row(values.into_iter().collect())
    }
}

impl Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

impl fmt::Debug for Row {
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

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A row-keyed map or set can be probed with a borrowed slice of values
/// (`map.get(&values[..])`), building no row: `Row`'s derived `Hash`, `Eq`
/// and `Ord` are those of its `[Value]`, as `Borrow` requires.
impl Borrow<[Value]> for Row {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Self {
        Row::new(v)
    }
}

/// Convenience macro for building rows in tests and examples:
/// `row![1, "a", Value::Null]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_and_concat() {
        let r = Row::new(vec![Value::Int(1), Value::str("x"), Value::Int(3)]);
        assert_eq!(
            r.project(&[2, 0]),
            Row::new(vec![Value::Int(3), Value::Int(1)])
        );
        let s = Row::new(vec![Value::Bool(true)]);
        assert_eq!(r.concat(&s).arity(), 4);
        assert_eq!(r.concat(&s)[3], Value::Bool(true));
    }

    #[test]
    fn pad_nulls_appends() {
        let r = Row::new(vec![Value::Int(1)]);
        let padded = r.pad_nulls(2);
        assert_eq!(padded.arity(), 3);
        assert!(padded[1].is_null() && padded[2].is_null());
    }

    #[test]
    fn all_null_at_checks_subset() {
        let r = Row::new(vec![Value::Null, Value::Int(1), Value::Null]);
        assert!(r.all_null_at(&[0, 2]));
        assert!(!r.all_null_at(&[0, 1]));
        assert!(r.all_null_at(&[]));
    }

    #[test]
    fn row_macro_mixes_types() {
        let r = row![1, "a", 2.5, true];
        assert_eq!(r.arity(), 4);
        assert_eq!(r[0], Value::Int(1));
        assert_eq!(r[1], Value::str("a"));
    }

    #[test]
    fn rows_hash_as_map_keys() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(row![1, "a"], 10);
        assert_eq!(m.get(&row![1, "a"]), Some(&10));
        assert_eq!(m.get(&row![1, "b"]), None);
    }

    #[test]
    fn a_row_map_probes_by_borrowed_values() {
        use crate::hash::RowMap;
        let mut m: RowMap<Row, i32> = RowMap::default();
        m.insert(row![1, "a"], 10);
        m.insert(row![2.0], 20);
        let (one, a) = (Value::Int(1), Value::str("a"));
        assert_eq!(m.get(&[one, a][..]), Some(&10));
        // Equal values hash equal across types, as in the row itself.
        assert_eq!(m.get(std::slice::from_ref(&Value::Int(2))), Some(&20));
        assert_eq!(m.get(&[Value::Int(1)][..]), None);
    }

    #[test]
    fn debug_format_uses_bottom() {
        let r = row![1];
        assert_eq!(format!("{r:?}"), "(1)");
        let r2 = Row::new(vec![Value::Null]);
        assert_eq!(format!("{r2:?}"), "(⊥)");
    }
}
