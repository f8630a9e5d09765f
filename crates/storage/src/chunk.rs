//! Columnar chunks: the execution-time image of a [`Table`]'s rows.
//!
//! A [`Chunk`] holds one typed vector per column — `Int64`/`Float64`/
//! `Bool`/`Date` primitives, dictionary-encoded strings for pivot and
//! dimension columns, and a `Mixed` fallback of boxed [`Value`]s for
//! heterogeneous columns — plus a validity bitmap per column marking the
//! paper's `⊥` cells. The row representation stays the system of record
//! (deltas, the WAL, and the keyed mutators all speak rows); a chunk is
//! built lazily from the rows on first use and cached on the table, so
//! scan-heavy paths (join build/probe, group-by keys, GPIVOT dispatch) pay
//! enum dispatch and per-row hashing once at conversion instead of once
//! per probe.
//!
//! Two invariants make the vectorized kernels in `gpivot-exec` safe to
//! substitute for the row kernels:
//!
//! 1. **Hash fidelity** — [`Column::hash_into`] feeds a [`Hasher`] the
//!    byte-identical write sequence of [`Value`]'s `Hash` impl, so partition
//!    assignment (and therefore parallel output order) cannot change when
//!    the columnar path computes the hashes.
//! 2. **Equality fidelity** — [`Column::value_eq`] agrees exactly with
//!    `Value::eq` (the total order), including exact Int↔Float comparison
//!    beyond 2⁵³, NaN normalization, and `-0.0 == 0.0`.
//!
//! [`Table`]: crate::Table

use crate::row::Row;
use crate::value::{cmp_i64_f64, norm_f64, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;

/// The typed storage behind one column of a [`Chunk`].
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// All non-null values are `Value::Int`.
    Int64(Vec<i64>),
    /// All non-null values are `Value::Float`.
    Float64(Vec<f64>),
    /// All non-null values are `Value::Bool`.
    Bool(Vec<bool>),
    /// All non-null values are `Value::Date`.
    Date(Vec<i32>),
    /// All non-null values are `Value::Str`: dictionary-encoded, with
    /// codes assigned in first-seen order. Pivot tag columns and TPC-H
    /// dimension columns land here, which is what lets GPIVOT dispatch on
    /// a code instead of hashing a `Value`.
    Dict {
        /// Per-row dictionary code; `0` (never read) for null slots.
        codes: Vec<u32>,
        /// Distinct strings in first-seen order.
        dict: Vec<Arc<str>>,
    },
    /// Heterogeneous column (e.g. Int and Float mixed, as UNPIVOT output
    /// can produce): stored as the values themselves so no precision or
    /// type information is lost. Null slots store `Value::Null`.
    Mixed(Vec<Value>),
}

/// One column: typed data plus an optional validity bitmap.
///
/// `validity == None` means every slot is valid (non-null). Otherwise bit
/// `i` (word `i / 64`, bit `i % 64`) is **set** iff slot `i` is valid.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    validity: Option<Vec<u64>>,
}

/// A columnar image of a bag of rows.
#[derive(Debug, Clone)]
pub struct Chunk {
    len: usize,
    columns: Vec<Column>,
}

fn bit_set(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 == 1
}

impl Column {
    /// Build one column from slot `col` of `rows`.
    fn from_rows(rows: &[Row], col: usize) -> Column {
        #[derive(PartialEq, Clone, Copy)]
        enum Kind {
            Int,
            Float,
            Bool,
            Date,
            Str,
            Mixed,
        }
        let mut kind: Option<Kind> = None;
        let mut has_null = false;
        for r in rows {
            let k = match &r.values()[col] {
                Value::Null => {
                    has_null = true;
                    continue;
                }
                Value::Int(_) => Kind::Int,
                Value::Float(_) => Kind::Float,
                Value::Bool(_) => Kind::Bool,
                Value::Date(_) => Kind::Date,
                Value::Str(_) => Kind::Str,
            };
            match kind {
                None => kind = Some(k),
                Some(prev) if prev == k => {}
                Some(_) => {
                    kind = Some(Kind::Mixed);
                    break;
                }
            }
        }
        let n = rows.len();
        let mut validity = if has_null {
            Some(vec![0u64; n.div_ceil(64)])
        } else {
            None
        };
        let mark_valid = |v: &mut Option<Vec<u64>>, i: usize| {
            if let Some(words) = v {
                words[i >> 6] |= 1u64 << (i & 63);
            }
        };
        let data = match kind {
            // All-null (or empty) columns carry no type information.
            None => ColumnData::Mixed(vec![Value::Null; n]),
            Some(Kind::Mixed) => {
                // Heterogeneous: keep the values; validity still tracks ⊥
                // so kernels can branch on the bitmap uniformly. The type
                // scan above may have stopped early (at the second kind),
                // so recompute nullability over the whole column.
                let mut validity = if rows.iter().any(|r| r.values()[col].is_null()) {
                    Some(vec![0u64; n.div_ceil(64)])
                } else {
                    None
                };
                for (i, r) in rows.iter().enumerate() {
                    if !r.values()[col].is_null() {
                        mark_valid(&mut validity, i);
                    }
                }
                return Column {
                    data: ColumnData::Mixed(rows.iter().map(|r| r.values()[col].clone()).collect()),
                    validity,
                };
            }
            Some(Kind::Int) => {
                let mut v = Vec::with_capacity(n);
                for (i, r) in rows.iter().enumerate() {
                    match &r.values()[col] {
                        Value::Int(x) => {
                            mark_valid(&mut validity, i);
                            v.push(*x);
                        }
                        _ => v.push(0),
                    }
                }
                ColumnData::Int64(v)
            }
            Some(Kind::Float) => {
                let mut v = Vec::with_capacity(n);
                for (i, r) in rows.iter().enumerate() {
                    match &r.values()[col] {
                        Value::Float(x) => {
                            mark_valid(&mut validity, i);
                            v.push(*x);
                        }
                        _ => v.push(0.0),
                    }
                }
                ColumnData::Float64(v)
            }
            Some(Kind::Bool) => {
                let mut v = Vec::with_capacity(n);
                for (i, r) in rows.iter().enumerate() {
                    match &r.values()[col] {
                        Value::Bool(x) => {
                            mark_valid(&mut validity, i);
                            v.push(*x);
                        }
                        _ => v.push(false),
                    }
                }
                ColumnData::Bool(v)
            }
            Some(Kind::Date) => {
                let mut v = Vec::with_capacity(n);
                for (i, r) in rows.iter().enumerate() {
                    match &r.values()[col] {
                        Value::Date(x) => {
                            mark_valid(&mut validity, i);
                            v.push(*x);
                        }
                        _ => v.push(0),
                    }
                }
                ColumnData::Date(v)
            }
            Some(Kind::Str) => {
                let mut codes = Vec::with_capacity(n);
                let mut dict: Vec<Arc<str>> = Vec::new();
                let mut intern: HashMap<Arc<str>, u32> = HashMap::new();
                for (i, r) in rows.iter().enumerate() {
                    match &r.values()[col] {
                        Value::Str(s) => {
                            mark_valid(&mut validity, i);
                            let code = *intern.entry(Arc::clone(s)).or_insert_with(|| {
                                dict.push(Arc::clone(s));
                                (dict.len() - 1) as u32
                            });
                            codes.push(code);
                        }
                        _ => codes.push(0),
                    }
                }
                ColumnData::Dict { codes, dict }
            }
        };
        Column { data, validity }
    }

    /// The typed storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The dictionary view, if this column is dictionary-encoded.
    pub fn dict(&self) -> Option<(&[u32], &[Arc<str>])> {
        match &self.data {
            ColumnData::Dict { codes, dict } => Some((codes, dict)),
            _ => None,
        }
    }

    /// True iff slot `i` is `⊥`.
    pub fn is_null(&self, i: usize) -> bool {
        match &self.validity {
            Some(words) => !bit_set(words, i),
            None => false,
        }
    }

    /// Materialize slot `i` as a [`Value`].
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int64(v) => Value::Int(v[i]),
            ColumnData::Float64(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Dict { codes, dict } => Value::Str(Arc::clone(&dict[codes[i] as usize])),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// Feed each slot's hash into its per-row hasher state, replicating
    /// the exact byte sequence of [`Value`]'s `Hash` impl. `states.len()` must
    /// equal the chunk length.
    ///
    /// This is the load-bearing guarantee for the parallel kernels: the
    /// morsel partitioner assigns a row to a partition by hashing its key
    /// values into a `DefaultHasher`, and partition assignment decides
    /// output order. Byte-identical writes here mean the columnar path
    /// partitions exactly like the row path.
    pub fn hash_into<H: Hasher>(&self, states: &mut [H]) {
        match &self.data {
            ColumnData::Int64(v) => {
                for (i, s) in states.iter_mut().enumerate() {
                    if self.is_null(i) {
                        s.write_u8(0);
                        continue;
                    }
                    // Mirror Value::hash's Int branch: numerics that
                    // round-trip through f64 hash as their float bits so
                    // Int(42) and Float(42.0) collide as required by Eq.
                    let x = v[i];
                    let f = x as f64;
                    if f as i64 == x {
                        s.write_u8(2);
                        s.write_u64(norm_f64(f).to_bits());
                    } else {
                        s.write_u8(3);
                        s.write_i64(x);
                    }
                }
            }
            ColumnData::Float64(v) => {
                for (i, s) in states.iter_mut().enumerate() {
                    if self.is_null(i) {
                        s.write_u8(0);
                        continue;
                    }
                    s.write_u8(2);
                    s.write_u64(norm_f64(v[i]).to_bits());
                }
            }
            ColumnData::Bool(v) => {
                for (i, s) in states.iter_mut().enumerate() {
                    if self.is_null(i) {
                        s.write_u8(0);
                        continue;
                    }
                    s.write_u8(1);
                    s.write_u8(u8::from(v[i]));
                }
            }
            ColumnData::Date(v) => {
                for (i, s) in states.iter_mut().enumerate() {
                    if self.is_null(i) {
                        s.write_u8(0);
                        continue;
                    }
                    s.write_u8(5);
                    s.write_i32(v[i]);
                }
            }
            ColumnData::Dict { codes, dict } => {
                for (i, s) in states.iter_mut().enumerate() {
                    if self.is_null(i) {
                        s.write_u8(0);
                        continue;
                    }
                    s.write_u8(4);
                    // str::hash: the bytes, then a 0xff terminator.
                    s.write(dict[codes[i] as usize].as_bytes());
                    s.write_u8(0xff);
                }
            }
            ColumnData::Mixed(v) => {
                for (i, s) in states.iter_mut().enumerate() {
                    use std::hash::Hash;
                    v[i].hash(s);
                }
            }
        }
    }

    /// Total-order equality between slot `i` of this column and slot `j`
    /// of `other`, agreeing exactly with `Value::eq` (so `⊥ == ⊥`, NaNs
    /// are equal after normalization, and Int↔Float compares exactly).
    pub fn value_eq(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self.is_null(i), other.is_null(j)) {
            (true, true) => return true,
            (false, false) => {}
            _ => return false,
        }
        use ColumnData::*;
        match (&self.data, &other.data) {
            (Int64(a), Int64(b)) => a[i] == b[j],
            (Float64(a), Float64(b)) => norm_f64(a[i]).to_bits() == norm_f64(b[j]).to_bits(),
            (Int64(a), Float64(b)) => cmp_i64_f64(a[i], b[j]) == Ordering::Equal,
            (Float64(a), Int64(b)) => cmp_i64_f64(b[j], a[i]) == Ordering::Equal,
            (Bool(a), Bool(b)) => a[i] == b[j],
            (Date(a), Date(b)) => a[i] == b[j],
            (
                Dict {
                    codes: ca,
                    dict: da,
                },
                Dict {
                    codes: cb,
                    dict: db,
                },
            ) => {
                let (sa, sb) = (&da[ca[i] as usize], &db[cb[j] as usize]);
                Arc::ptr_eq(sa, sb) || sa == sb
            }
            // Cross-type slots (typed vs Mixed, Str vs Date, ...) defer to
            // the Value total order itself.
            _ => self.value(i) == other.value(j),
        }
    }
}

impl Chunk {
    /// Build the columnar image of `rows`. Every row must have `arity`
    /// columns (callers hold tables, which enforce this).
    pub fn from_rows(rows: &[Row], arity: usize) -> Chunk {
        Chunk {
            len: rows.len(),
            columns: (0..arity).map(|c| Column::from_rows(rows, c)).collect(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column `j`.
    pub fn column(&self, j: usize) -> &Column {
        &self.columns[j]
    }

    /// Materialize cell `(i, j)`.
    pub fn value(&self, i: usize, j: usize) -> Value {
        self.columns[j].value(i)
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value(i)).collect::<Vec<_>>())
    }

    /// Materialize row `i` restricted to `idx` (a columnar `Row::project`).
    pub fn project_row(&self, i: usize, idx: &[usize]) -> Row {
        Row::new(
            idx.iter()
                .map(|&j| self.columns[j].value(i))
                .collect::<Vec<_>>(),
        )
    }

    /// Materialize every row — the lazy-shim path back to row land.
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Per-row hash of the key columns `key_idx`, using hasher states
    /// produced by `mk` (one per row, finished in row order). With
    /// `DefaultHasher::new` this computes exactly what the row-at-a-time
    /// partitioner computes from `row[k].hash(&mut h)` per key column.
    pub fn hash_rows<H: Hasher>(&self, key_idx: &[usize], mk: impl Fn() -> H) -> Vec<u64> {
        let mut states: Vec<H> = (0..self.len).map(|_| mk()).collect();
        for &k in key_idx {
            self.columns[k].hash_into(&mut states);
        }
        states.into_iter().map(|s| s.finish()).collect()
    }

    /// True iff every column in `idx` is `⊥` at row `i` (GPIVOT's
    /// all-measures-null skip).
    pub fn all_null(&self, i: usize, idx: &[usize]) -> bool {
        idx.iter().all(|&j| self.columns[j].is_null(i))
    }

    /// True iff any column in `idx` is `⊥` at row `i` (join null-key skip).
    pub fn any_null(&self, i: usize, idx: &[usize]) -> bool {
        idx.iter().any(|&j| self.columns[j].is_null(i))
    }

    /// Row-vs-row equality on projections: row `i` of `self` under
    /// `self_idx` against row `j` of `other` under `other_idx`.
    pub fn rows_eq(
        &self,
        i: usize,
        self_idx: &[usize],
        other: &Chunk,
        j: usize,
        other_idx: &[usize],
    ) -> bool {
        debug_assert_eq!(self_idx.len(), other_idx.len());
        self_idx
            .iter()
            .zip(other_idx)
            .all(|(&a, &b)| self.columns[a].value_eq(i, &other.columns[b], j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hash;

    fn value_hash(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    fn column_hashes(c: &Column, n: usize) -> Vec<u64> {
        let mut states: Vec<DefaultHasher> = (0..n).map(|_| DefaultHasher::new()).collect();
        c.hash_into(&mut states);
        states.into_iter().map(|s| s.finish()).collect()
    }

    /// One row per interesting value, exercising every column kind.
    fn menagerie() -> Vec<Row> {
        vec![
            row![1, 1.5, true, Value::Date(10), "ny", Value::Null],
            row![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                7
            ],
            row![
                (1i64 << 53) + 1,
                f64::NAN,
                false,
                Value::Date(-3),
                "sf",
                "mixed"
            ],
            row![i64::MIN, -0.0, true, Value::Date(0), "ny", 2.5],
            row![42, 42.0, false, Value::Date(10), "la", Value::Bool(false)],
        ]
    }

    #[test]
    fn typed_encodings_are_chosen_per_column() {
        let rows = menagerie();
        let c = Chunk::from_rows(&rows, 6);
        assert!(matches!(c.column(0).data(), ColumnData::Int64(_)));
        assert!(matches!(c.column(1).data(), ColumnData::Float64(_)));
        assert!(matches!(c.column(2).data(), ColumnData::Bool(_)));
        assert!(matches!(c.column(3).data(), ColumnData::Date(_)));
        assert!(matches!(c.column(4).data(), ColumnData::Dict { .. }));
        assert!(matches!(c.column(5).data(), ColumnData::Mixed(_)));
    }

    #[test]
    fn dictionary_codes_are_first_seen_order() {
        let rows = menagerie();
        let c = Chunk::from_rows(&rows, 6);
        let (codes, dict) = c.column(4).dict().unwrap();
        let strs: Vec<&str> = dict.iter().map(|s| s.as_ref()).collect();
        assert_eq!(strs, ["ny", "sf", "la"]);
        assert_eq!(codes[0], 0);
        assert_eq!(codes[2], 1);
        assert_eq!(codes[3], 0, "repeat reuses the code");
        assert_eq!(codes[4], 2);
        assert!(c.column(4).is_null(1));
    }

    #[test]
    fn roundtrip_reproduces_rows_exactly() {
        let rows = menagerie();
        let c = Chunk::from_rows(&rows, 6);
        assert_eq!(c.to_rows(), rows);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(&c.row(i), r);
            assert_eq!(c.project_row(i, &[4, 0]), r.project(&[4, 0]));
        }
    }

    #[test]
    fn validity_bitmap_tracks_bottom() {
        let rows = menagerie();
        let c = Chunk::from_rows(&rows, 6);
        for (i, r) in rows.iter().enumerate() {
            for j in 0..6 {
                assert_eq!(c.column(j).is_null(i), r.values()[j].is_null());
            }
        }
        assert!(c.all_null(1, &[0, 1, 2]));
        assert!(!c.all_null(1, &[0, 5]));
        assert!(c.any_null(0, &[0, 5]));
        assert!(!c.any_null(0, &[0, 1]));
    }

    #[test]
    fn hash_into_replicates_value_hash_bytes() {
        // The vectorized partitioner is only allowed to exist because this
        // holds for every variant, including the Int/Float unification
        // cases and ⊥.
        let rows = menagerie();
        let c = Chunk::from_rows(&rows, 6);
        for j in 0..6 {
            let got = column_hashes(c.column(j), rows.len());
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(
                    got[i],
                    value_hash(&r.values()[j]),
                    "column {j} row {i}: {:?}",
                    r.values()[j]
                );
            }
        }
    }

    #[test]
    fn hash_rows_matches_row_at_a_time_key_hash() {
        let rows = menagerie();
        let c = Chunk::from_rows(&rows, 6);
        let key_idx = [4usize, 0, 1];
        let got = c.hash_rows(&key_idx, DefaultHasher::new);
        for (i, r) in rows.iter().enumerate() {
            let mut h = DefaultHasher::new();
            for &k in &key_idx {
                r.values()[k].hash(&mut h);
            }
            assert_eq!(got[i], h.finish(), "row {i}");
        }
    }

    #[test]
    fn value_eq_agrees_with_total_order_across_encodings() {
        // Columns of different encodings holding numerically related
        // values: Int64 vs Float64 vs Mixed.
        let left = vec![
            row![42, (1i64 << 53) + 1, Value::Null, "a"],
            row![0, 1i64 << 53, 5, "b"],
        ];
        let right = vec![
            row![42.0, (1i64 << 53) as f64, Value::Null, Value::Null],
            row![-0.0, (1i64 << 53) as f64, 5.0, "b"],
        ];
        let lc = Chunk::from_rows(&left, 4);
        let rc = Chunk::from_rows(&right, 4);
        for (i, lrow) in left.iter().enumerate() {
            for (j, rrow) in right.iter().enumerate() {
                for col in 0..4 {
                    let expect = lrow.values()[col] == rrow.values()[col];
                    assert_eq!(
                        lc.column(col).value_eq(i, rc.column(col), j),
                        expect,
                        "col {col}: {:?} vs {:?}",
                        lrow.values()[col],
                        rrow.values()[col]
                    );
                }
            }
        }
        // The 2^53 + 1 regression specifically: Int64 slot vs Float64 slot.
        assert!(!lc.column(1).value_eq(0, rc.column(1), 0));
        assert!(lc.column(1).value_eq(1, rc.column(1), 1));
    }

    #[test]
    fn all_null_column_is_mixed_and_empty_chunk_works() {
        let rows = vec![row![Value::Null], row![Value::Null]];
        let c = Chunk::from_rows(&rows, 1);
        assert!(matches!(c.column(0).data(), ColumnData::Mixed(_)));
        assert!(c.column(0).is_null(0) && c.column(0).is_null(1));
        assert_eq!(c.to_rows(), rows);

        let empty = Chunk::from_rows(&[], 3);
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        assert_eq!(empty.arity(), 3);
        assert!(empty.to_rows().is_empty());
    }
}
