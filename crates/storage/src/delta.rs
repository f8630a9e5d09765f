//! Deltas: signed multisets of rows.
//!
//! The paper presents change propagation in terms of an insert bag `ΔV` and
//! a delete bag `∇V`. For *mixed* batches under bag semantics the algebra is
//! cleanest over **signed multisets** (`Row → i64` multiplicity, negative =
//! delete): union becomes addition, difference becomes subtraction, and the
//! Griffin/Libkin join delta terms come out exactly. [`Delta`] is that
//! object; [`DeltaSplit`] is the paper-facing `(ΔV, ∇V)` view of it.

use crate::row::Row;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// A signed multiset of rows: each row maps to a non-zero multiplicity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    counts: HashMap<Row, i64>,
}

impl Delta {
    /// The empty delta.
    pub fn new() -> Self {
        Delta::default()
    }

    /// Delta representing a batch of inserted rows (each multiplicity +1).
    pub fn from_inserts<I: IntoIterator<Item = Row>>(rows: I) -> Self {
        let mut d = Delta::new();
        for r in rows {
            d.add(r, 1);
        }
        d
    }

    /// Delta representing a batch of deleted rows (each multiplicity -1).
    pub fn from_deletes<I: IntoIterator<Item = Row>>(rows: I) -> Self {
        let mut d = Delta::new();
        for r in rows {
            d.add(r, -1);
        }
        d
    }

    /// Build from an explicit insert/delete split.
    pub fn from_split(split: &DeltaSplit) -> Self {
        let mut d = Delta::from_inserts(split.inserts.iter().cloned());
        for r in &split.deletes {
            d.add(r.clone(), -1);
        }
        d
    }

    /// Add a row with a (possibly negative) multiplicity. Zero-count entries
    /// are removed eagerly so emptiness checks stay exact.
    pub fn add(&mut self, row: Row, weight: i64) {
        if weight == 0 {
            return;
        }
        match self.counts.entry(row) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let c = o.get_mut();
                *c += weight;
                if *c == 0 {
                    o.remove();
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(weight);
            }
        }
    }

    /// Merge another delta into this one (bag union of signed multisets).
    pub fn merge(&mut self, other: &Delta) {
        for (r, &w) in other.iter() {
            self.add(r.clone(), w);
        }
    }

    /// Merge by consuming `other` — same result as [`Delta::merge`] but
    /// moves the rows instead of cloning them. When `self` is empty the
    /// whole map is taken over wholesale, so coalescing a stream of
    /// batches into an accumulator is allocation-free on the first batch.
    pub fn absorb(&mut self, other: Delta) {
        if self.counts.is_empty() {
            self.counts = other.counts;
            return;
        }
        for (r, w) in other.counts {
            self.add(r, w);
        }
    }

    /// The additive inverse: every multiplicity negated.
    pub fn negated(&self) -> Delta {
        Delta {
            counts: self.counts.iter().map(|(r, &w)| (r.clone(), -w)).collect(),
        }
    }

    /// Number of distinct rows carried.
    pub fn distinct_len(&self) -> usize {
        self.counts.len()
    }

    /// Total absolute multiplicity (number of row *changes*).
    pub fn total_multiplicity(&self) -> u64 {
        self.counts.values().map(|w| w.unsigned_abs()).sum()
    }

    /// True iff the delta carries no change.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Rough in-memory footprint estimate in bytes (hash-map entry plus
    /// per-row value payload) — the service layer's ingestion watermark
    /// accounting. An estimate, not an exact measurement.
    pub fn estimate_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(Row, i64)>() + std::mem::size_of::<u64>();
        let values: usize = self
            .counts
            .keys()
            .map(|r| r.arity() * std::mem::size_of::<Value>())
            .sum();
        self.counts.len() * entry + values
    }

    /// Iterate over `(row, signed multiplicity)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Row, &i64)> {
        self.counts.iter()
    }

    /// Consume into owned `(row, signed multiplicity)` pairs.
    pub fn into_counts(self) -> impl Iterator<Item = (Row, i64)> {
        self.counts.into_iter()
    }

    /// Multiplicity of a specific row (0 if absent).
    pub fn multiplicity(&self, row: &Row) -> i64 {
        self.counts.get(row).copied().unwrap_or(0)
    }

    /// Split into the paper-facing insert/delete bags.
    pub fn split(&self) -> DeltaSplit {
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        for (r, &w) in &self.counts {
            if w > 0 {
                for _ in 0..w {
                    inserts.push(r.clone());
                }
            } else {
                for _ in 0..(-w) {
                    deletes.push(r.clone());
                }
            }
        }
        DeltaSplit { inserts, deletes }
    }

    /// Keep only rows where `pred` holds, keeping multiplicities (selection).
    pub fn filter_rows<F: Fn(&Row) -> bool>(&self, pred: F) -> Delta {
        let mut d = Delta::new();
        for (r, &w) in &self.counts {
            if pred(r) {
                d.add(r.clone(), w);
            }
        }
        d
    }

    /// Collect the distinct values of `row[idx]` across all carried rows
    /// (used e.g. to collect affected keys / group values).
    pub fn distinct_values_at(&self, indices: &[usize]) -> Vec<Row> {
        let mut set = std::collections::HashSet::new();
        for r in self.counts.keys() {
            set.insert(r.project(indices));
        }
        set.into_iter().collect()
    }

    /// Split this delta into `shards + 1` disjoint deltas by hashing the
    /// key column at `col_idx`: bucket `i < shards` receives the rows
    /// whose key hashes to shard `i` ([`shard_of`]), and the final bucket
    /// receives the rows whose key `is_heavy` reports hot (heavy keys are
    /// routed to a dedicated shard regardless of their hash). Every
    /// carried row lands in exactly one bucket with its multiplicity
    /// intact, so merging the buckets reproduces `self` exactly.
    pub fn partition_by_key<F>(&self, col_idx: usize, shards: usize, is_heavy: F) -> Vec<Delta>
    where
        F: Fn(&Value) -> bool,
    {
        let mut out = vec![Delta::new(); shards + 1];
        for (r, &w) in &self.counts {
            let key = &r[col_idx];
            let bucket = if is_heavy(key) {
                shards
            } else {
                shard_of(key, shards)
            };
            out[bucket].add(r.clone(), w);
        }
        out
    }
}

/// The shard a key value routes to: a deterministic hash of the value,
/// reduced modulo `shards`. Uses the standard library's `DefaultHasher`
/// with its fixed default keys, so the assignment is stable for the life
/// of a process — every component of one service (delta router, table
/// partitioner, heavy-key tracker) agrees on the placement of a value.
pub fn shard_of(value: &Value, shards: usize) -> usize {
    use std::hash::{Hash, Hasher};
    debug_assert!(shards > 0, "shard_of needs at least one shard");
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    (h.finish() % shards.max(1) as u64) as usize
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Delta({} distinct rows):", self.counts.len())?;
        let mut entries: Vec<_> = self.counts.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        for (r, w) in entries {
            writeln!(f, "  {w:+} × {r:?}")?;
        }
        Ok(())
    }
}

impl FromIterator<(Row, i64)> for Delta {
    fn from_iter<T: IntoIterator<Item = (Row, i64)>>(iter: T) -> Self {
        let mut d = Delta::new();
        for (r, w) in iter {
            d.add(r, w);
        }
        d
    }
}

/// The paper-facing `(ΔV, ∇V)` split of a delta.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSplit {
    /// Inserted rows (`ΔV`).
    pub inserts: Vec<Row>,
    /// Deleted rows (`∇V`).
    pub deletes: Vec<Row>,
}

impl DeltaSplit {
    /// True iff no change is carried.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// Helper used across the maintenance engine: a row of all-NULLs.
pub fn null_row(arity: usize) -> Row {
    Row::new(vec![Value::Null; arity])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn partition_by_key_conserves_multiplicities() {
        let mut d = Delta::new();
        for i in 0..100i64 {
            d.add(row![i % 7, i], if i % 3 == 0 { -2 } else { 1 });
        }
        let parts = d.partition_by_key(0, 4, |v| *v == Value::Int(3));
        assert_eq!(parts.len(), 5);
        // Heavy bucket holds exactly the key-3 rows.
        for (r, _) in parts[4].iter() {
            assert_eq!(r[0], Value::Int(3));
        }
        // Hash buckets are disjoint from the heavy key and each other,
        // and merging all buckets reproduces the original delta.
        let mut merged = Delta::new();
        for (i, p) in parts.iter().enumerate() {
            for (r, &w) in p.iter() {
                if i < 4 {
                    assert_ne!(r[0], Value::Int(3), "heavy key leaked to bucket {i}");
                    assert_eq!(shard_of(&r[0], 4), i);
                }
                merged.add(r.clone(), w);
            }
        }
        assert_eq!(merged, d);
    }

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        for i in 0..1000i64 {
            let v = Value::Int(i);
            let s = shard_of(&v, 5);
            assert!(s < 5);
            assert_eq!(s, shard_of(&v, 5));
        }
        // All shards get some keys (sanity against a degenerate hash).
        let hit: std::collections::HashSet<usize> =
            (0..1000).map(|i| shard_of(&Value::Int(i), 5)).collect();
        assert_eq!(hit.len(), 5);
    }

    #[test]
    fn add_cancels_to_empty() {
        let mut d = Delta::new();
        d.add(row![1, "a"], 1);
        d.add(row![1, "a"], -1);
        assert!(d.is_empty());
    }

    #[test]
    fn merge_accumulates() {
        let a = Delta::from_inserts(vec![row![1], row![1], row![2]]);
        let mut b = Delta::from_deletes(vec![row![1]]);
        b.merge(&a);
        assert_eq!(b.multiplicity(&row![1]), 1);
        assert_eq!(b.multiplicity(&row![2]), 1);
    }

    #[test]
    fn split_roundtrip() {
        let mut d = Delta::new();
        d.add(row![1], 2);
        d.add(row![2], -1);
        let s = d.split();
        assert_eq!(s.inserts.len(), 2);
        assert_eq!(s.deletes, vec![row![2]]);
        assert_eq!(Delta::from_split(&s), d);
    }

    #[test]
    fn negated_inverts() {
        let d = Delta::from_inserts(vec![row![1]]);
        let mut n = d.negated();
        n.merge(&d);
        assert!(n.is_empty());
    }

    #[test]
    fn filter_rows_keeps_weights() {
        let mut d = Delta::new();
        d.add(row![1], -3);
        d.add(row![2], 1);
        let f = d.filter_rows(|r| r[0] == Value::Int(1));
        assert_eq!(f.multiplicity(&row![1]), -3);
        assert_eq!(f.distinct_len(), 1);
    }

    #[test]
    fn distinct_values_at_projects() {
        let d = Delta::from_inserts(vec![row![1, "a"], row![1, "b"], row![2, "c"]]);
        let mut keys = d.distinct_values_at(&[0]);
        keys.sort();
        assert_eq!(keys, vec![row![1], row![2]]);
    }

    #[test]
    fn total_multiplicity_counts_changes() {
        let mut d = Delta::new();
        d.add(row![1], 2);
        d.add(row![2], -3);
        assert_eq!(d.total_multiplicity(), 5);
        assert_eq!(d.distinct_len(), 2);
    }

    #[test]
    fn from_iterator_cancels() {
        let d: Delta = vec![(row![1], 1), (row![1], -1), (row![2], 1)]
            .into_iter()
            .collect();
        assert_eq!(d.distinct_len(), 1);
    }
}
