//! Secondary hash indexes over arbitrary column sets of a [`Table`].
//!
//! The paper's propagate phase (§6.2, §7) assumes the host DBMS answers
//! `Δ ⋈ base` by index lookup on the join columns; [`Table::index_on`] is
//! that index. The layout is three flat `u32` vectors — bucket heads plus a
//! doubly linked per-row chain — rather than a map from key to positions,
//! so cloning an index for a copy-on-write table is three `memcpy`s,
//! linking and unlinking a row are O(1), and no key is stored twice:
//! candidates are verified against the rows themselves on probe.
//!
//! [`Table`]: crate::table::Table
//! [`Table::index_on`]: crate::table::Table::index_on

use crate::hash::{RowMap, RowState};
use crate::row::Row;
use crate::value::Value;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// "No position": end of a chain / empty bucket.
const NIL: u32 = u32::MAX;

/// A row position as stored in the chains.
fn pos32(pos: usize) -> u32 {
    // Stored data depends on this: a wrapped position would silently link
    // the wrong row. Unreachable in practice (2³² rows of `Arc` pointers).
    assert!(pos < NIL as usize, "table too large for a hash index");
    pos as u32
}

/// Hash index over the projection of a table's rows onto `cols`.
///
/// Invariant (kept by [`HashIndex::link`] / [`HashIndex::unlink`] /
/// [`HashIndex::relocate`], which the table's mutators call): `next` and
/// `prev` have one entry per row, and every row position is on exactly the
/// chain of the bucket its projection hashes to.
#[derive(Debug, Clone)]
pub(crate) struct HashIndex {
    cols: Vec<usize>,
    /// Keyed per index with fresh random keys, like every row hash table
    /// ([`RowState`]): key values come from outside the program. Clones
    /// keep the keys, so a cloned index (a copy-on-write table's) hashes
    /// — and probes — like its source.
    hasher: RowState,
    /// Bucket → first row position on its chain. Length is a power of two.
    heads: Vec<u32>,
    /// Row position → next / previous position on the same chain.
    next: Vec<u32>,
    prev: Vec<u32>,
}

impl HashIndex {
    /// Index `rows` on `cols`.
    pub(crate) fn build(cols: &[usize], rows: &[Row]) -> Self {
        let mut ix = HashIndex {
            cols: cols.to_vec(),
            hasher: RowState::default(),
            heads: Vec::new(),
            next: Vec::new(),
            prev: Vec::new(),
        };
        ix.rehash(rows);
        ix
    }

    pub(crate) fn cols(&self) -> &[usize] {
        &self.cols
    }

    fn bucket_of<'v>(&self, values: impl Iterator<Item = &'v Value>) -> usize {
        let mut h = self.hasher.build_hasher();
        for v in values {
            v.hash(&mut h);
        }
        (h.finish() as usize) & (self.heads.len() - 1)
    }

    fn bucket_of_row(&self, row: &Row) -> usize {
        self.bucket_of(self.cols.iter().map(|&c| &row[c]))
    }

    /// Rebuild every chain for `rows`, sizing the bucket array to them.
    fn rehash(&mut self, rows: &[Row]) {
        let buckets = rows.len().max(8).next_power_of_two();
        self.heads.clear();
        self.heads.resize(buckets, NIL);
        self.next.clear();
        self.prev.clear();
        for (pos, row) in rows.iter().enumerate() {
            self.push_front(row, pos32(pos));
        }
    }

    fn push_front(&mut self, row: &Row, pos: u32) {
        let b = self.bucket_of_row(row);
        let old = self.heads[b];
        self.next.push(old);
        self.prev.push(NIL);
        if old != NIL {
            self.prev[old as usize] = pos;
        }
        self.heads[b] = pos;
    }

    /// `rows` just grew by one row (its last): put it on its chain.
    pub(crate) fn link(&mut self, rows: &[Row]) {
        if rows.len() > self.heads.len() {
            // Load factor passed 1: double the buckets (amortized O(1)).
            return self.rehash(rows);
        }
        let pos = rows.len() - 1;
        self.push_front(&rows[pos], pos32(pos));
    }

    /// Take position `pos`, currently holding `row`, off its chain. The
    /// slot stays allocated: the caller re-links it ([`HashIndex::relink`])
    /// or fills it from the last row ([`HashIndex::relocate`]).
    pub(crate) fn unlink(&mut self, row: &Row, pos: usize) {
        let (p, n) = (self.prev[pos], self.next[pos]);
        if p == NIL {
            let b = self.bucket_of_row(row);
            self.heads[b] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
    }

    /// Put the unlinked position `pos` back on the chain of `row`, the row
    /// now stored there (`update_by_key`).
    pub(crate) fn relink(&mut self, row: &Row, pos: usize) {
        let b = self.bucket_of_row(row);
        let old = self.heads[b];
        self.next[pos] = old;
        self.prev[pos] = NIL;
        if old != NIL {
            self.prev[old as usize] = pos32(pos);
        }
        self.heads[b] = pos32(pos);
    }

    /// Mirror `Vec::swap_remove(pos)` on the row storage: position `pos`
    /// was unlinked, and `moved` — the row that was last — now lives at
    /// `pos` (`None` when `pos` itself was last). Drops the last slot.
    pub(crate) fn relocate(&mut self, moved: Option<&Row>, pos: usize) {
        let last = self.next.len() - 1;
        if let Some(row) = moved {
            let (p, n) = (self.prev[last], self.next[last]);
            self.prev[pos] = p;
            self.next[pos] = n;
            if p == NIL {
                let b = self.bucket_of_row(row);
                self.heads[b] = pos32(pos);
            } else {
                self.next[p as usize] = pos32(pos);
            }
            if n != NIL {
                self.prev[n as usize] = pos32(pos);
            }
        }
        self.next.pop();
        self.prev.pop();
    }
}

/// A probe handle returned by [`Table::index_on`]: look up the rows whose
/// projection onto the indexed columns equals a key.
///
/// Keys match by [`Value`]'s own `Hash`/`Eq` — `NULL` equals `NULL`,
/// `Int(1)` equals `Float(1.0)`, every NaN is one value — exactly as a
/// set of projections would. Callers wanting SQL join semantics
/// strip `NULL`-bearing keys before probing.
///
/// [`Table::index_on`]: crate::table::Table::index_on
pub struct TableIndex<'a> {
    rows: &'a [Row],
    kind: Kind<'a>,
}

enum Kind<'a> {
    /// The probed columns are exactly the schema key: reuse the key index.
    Key(&'a RowMap<Row, usize>),
    Hash(Arc<HashIndex>),
}

impl<'a> TableIndex<'a> {
    pub(crate) fn key(rows: &'a [Row], index: &'a RowMap<Row, usize>) -> Self {
        TableIndex {
            rows,
            kind: Kind::Key(index),
        }
    }

    pub(crate) fn hash(rows: &'a [Row], index: Arc<HashIndex>) -> Self {
        TableIndex {
            rows,
            kind: Kind::Hash(index),
        }
    }

    /// The rows whose indexed columns equal `key` (one value per indexed
    /// column, in `index_on`'s column order), in unspecified order.
    pub fn get<'s>(&'s self, key: &'s Row) -> Matches<'s> {
        match &self.kind {
            Kind::Key(index) => Matches {
                rows: self.rows,
                chain: None,
                pos: index.get(key).map_or(NIL, |&p| pos32(p)),
                key,
            },
            Kind::Hash(ix) => Matches {
                rows: self.rows,
                chain: Some(ix),
                pos: if key.arity() == ix.cols.len() {
                    ix.heads[ix.bucket_of(key.iter())]
                } else {
                    NIL
                },
                key,
            },
        }
    }
}

/// Iterator over the rows matching one probed key.
pub struct Matches<'s> {
    rows: &'s [Row],
    /// The chain to follow; `None` for a key-index hit (at most one row).
    chain: Option<&'s HashIndex>,
    pos: u32,
    key: &'s Row,
}

impl<'s> Iterator for Matches<'s> {
    type Item = &'s Row;

    fn next(&mut self) -> Option<&'s Row> {
        while self.pos != NIL {
            let row = &self.rows[self.pos as usize];
            match self.chain {
                None => {
                    self.pos = NIL;
                    return Some(row);
                }
                Some(ix) => {
                    self.pos = ix.next[self.pos as usize];
                    // A bucket holds every key that hashes to it.
                    if ix
                        .cols
                        .iter()
                        .zip(self.key.iter())
                        .all(|(&c, k)| row[c] == *k)
                    {
                        return Some(row);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn probe(rows: &[Row], ix: HashIndex, key: &Row) -> Vec<Row> {
        let index = TableIndex::hash(rows, Arc::new(ix));
        let mut hits: Vec<Row> = index.get(key).cloned().collect();
        hits.sort();
        hits
    }

    #[test]
    fn a_cloned_index_probes_like_its_source() {
        let mut rows: Vec<Row> = (0..100i64).map(|i| row![i % 10, i]).collect();
        let source = HashIndex::build(&[0], &rows);
        let mut copy = source.clone();
        for k in 0..12i64 {
            let key = row![k];
            let want = probe(&rows, source.clone(), &key);
            assert_eq!(probe(&rows, copy.clone(), &key), want, "key {k}");
            assert_eq!(want.len(), if k < 10 { 10 } else { 0 });
        }
        // The copy keeps the source's keys, so it keeps linking rows onto
        // the chains its inherited buckets describe.
        rows.push(row![3, 1000]);
        copy.link(&rows);
        let hits = probe(&rows, copy, &row![3]);
        assert_eq!(hits.len(), 11);
        assert!(hits.contains(&row![3, 1000]));
    }
}
