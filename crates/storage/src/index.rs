//! Hash indexes over column sets of a [`Table`]: its key index and the
//! secondary indexes [`Table::index_on`] builds.
//!
//! The paper's propagate phase (§6.2, §7) assumes the host DBMS answers
//! `Δ ⋈ base` by index lookup on the join columns, and its apply phase
//! resolves the view key of every MERGE row (§7.1). Both are a
//! `HashIndex`: three flat `u32` vectors — bucket heads plus a doubly
//! linked per-row chain — rather than a map from key to positions, so
//! cloning an index for a copy-on-write table is three `memcpy`s, linking
//! and unlinking a row are O(1), and no key is stored at all: a probe
//! hashes the key values where they sit (in the probing row, or in a
//! borrowed slice) and verifies candidates against the rows themselves.
//!
//! [`Table`]: crate::table::Table
//! [`Table::index_on`]: crate::table::Table::index_on

use crate::hash::RowState;
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
    fn empty(cols: &[usize]) -> Self {
        HashIndex {
            cols: cols.to_vec(),
            hasher: RowState::default(),
            heads: Vec::new(),
            next: Vec::new(),
            prev: Vec::new(),
        }
    }

    /// Index `rows` on `cols`.
    pub(crate) fn build(cols: &[usize], rows: &[Row]) -> Self {
        let mut ix = HashIndex::empty(cols);
        ix.rehash(rows);
        ix
    }

    /// Index `rows` on `cols`, whose projections must be distinct (a key
    /// index): one pass sizes the buckets, links every row and checks it
    /// against the rows already on its chain. `Err` holds the position of
    /// the first row whose key an earlier row holds.
    pub(crate) fn build_unique(cols: &[usize], rows: &[Row]) -> Result<Self, usize> {
        let mut ix = HashIndex::empty(cols);
        ix.size_for(rows.len());
        for (pos, row) in rows.iter().enumerate() {
            let hash = ix.hash_row(row);
            if ix.find(rows, hash, |held| ix.same_key(held, row)).is_some() {
                return Err(pos);
            }
            ix.push_front(ix.bucket(hash), pos32(pos));
        }
        Ok(ix)
    }

    pub(crate) fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The hash of a key given as its values, in `cols` order.
    pub(crate) fn hash_key<'v>(&self, values: impl Iterator<Item = &'v Value>) -> u64 {
        let mut h = self.hasher.build_hasher();
        for v in values {
            v.hash(&mut h);
        }
        h.finish()
    }

    /// The hash of `row`'s key: its values at `cols`, read in place.
    pub(crate) fn hash_row(&self, row: &Row) -> u64 {
        self.hash_key(self.cols.iter().map(|&c| &row[c]))
    }

    fn bucket(&self, hash: u64) -> usize {
        (hash as usize) & (self.heads.len() - 1)
    }

    /// Do the stored row `held` and the row `row` agree on `cols`?
    pub(crate) fn same_key(&self, held: &Row, row: &Row) -> bool {
        self.cols.iter().all(|&c| held[c] == row[c])
    }

    /// Does `held` carry exactly the key `key` (values in `cols` order)?
    fn has_key<'v>(&self, held: &Row, mut key: impl Iterator<Item = &'v Value>) -> bool {
        self.cols.iter().all(|&c| key.next() == Some(&held[c])) && key.next().is_none()
    }

    /// The first position on the chain `hash` picks whose row passes
    /// `hit` (a bucket holds every key that hashes to it).
    pub(crate) fn find(
        &self,
        rows: &[Row],
        hash: u64,
        hit: impl Fn(&Row) -> bool,
    ) -> Option<usize> {
        let mut pos = self.heads[self.bucket(hash)];
        while pos != NIL {
            let p = pos as usize;
            if hit(&rows[p]) {
                return Some(p);
            }
            pos = self.next[p];
        }
        None
    }

    /// The position of the first row whose key is `key`, given as values
    /// in `cols` order; cloned once per candidate compared.
    pub(crate) fn position<'v, K>(&self, rows: &[Row], key: K) -> Option<usize>
    where
        K: Iterator<Item = &'v Value> + Clone,
    {
        let hash = self.hash_key(key.clone());
        self.find(rows, hash, |held| self.has_key(held, key.clone()))
    }

    /// The position of the first row agreeing with `row` on `cols`.
    pub(crate) fn position_of(&self, rows: &[Row], row: &Row) -> Option<usize> {
        self.find(rows, self.hash_row(row), |held| self.same_key(held, row))
    }

    /// Size the bucket array for `rows` rows, emptying every chain.
    fn size_for(&mut self, rows: usize) {
        let buckets = rows.max(8).next_power_of_two();
        self.heads.clear();
        self.heads.resize(buckets, NIL);
        self.next.clear();
        self.prev.clear();
        self.next.reserve(rows);
        self.prev.reserve(rows);
    }

    /// Rebuild every chain for `rows`, sizing the bucket array to them.
    fn rehash(&mut self, rows: &[Row]) {
        self.size_for(rows.len());
        for (pos, row) in rows.iter().enumerate() {
            self.push_front(self.bucket(self.hash_row(row)), pos32(pos));
        }
    }

    /// Put the new last position `pos` at the front of bucket `b`.
    fn push_front(&mut self, b: usize, pos: u32) {
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
        if let Some(row) = rows.last() {
            self.link_hashed(rows, self.hash_row(row));
        }
    }

    /// [`HashIndex::link`] for a row whose key hash the caller already
    /// took ([`HashIndex::hash_row`]), e.g. for its duplicate check.
    pub(crate) fn link_hashed(&mut self, rows: &[Row], hash: u64) {
        if rows.len() > self.heads.len() {
            // Load factor passed 1: double the buckets (amortized O(1)).
            return self.rehash(rows);
        }
        self.push_front(self.bucket(hash), pos32(rows.len() - 1));
    }

    /// Take position `pos`, currently holding `row`, off its chain. The
    /// slot stays allocated: the caller re-links it ([`HashIndex::relink`])
    /// or fills it from the last row ([`HashIndex::relocate`]).
    pub(crate) fn unlink(&mut self, row: &Row, pos: usize) {
        let (p, n) = (self.prev[pos], self.next[pos]);
        if p == NIL {
            let b = self.bucket(self.hash_row(row));
            self.heads[b] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
    }

    /// Put the unlinked position `pos` back on the chain of `row`, the row
    /// now stored there (`update_by_key_of` on a secondary index).
    pub(crate) fn relink(&mut self, row: &Row, pos: usize) {
        let b = self.bucket(self.hash_row(row));
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
                let b = self.bucket(self.hash_row(row));
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
    index: Arc<HashIndex>,
    /// The index is the table's key index: a key matches at most one row.
    unique: bool,
}

impl<'a> TableIndex<'a> {
    pub(crate) fn new(rows: &'a [Row], index: Arc<HashIndex>, unique: bool) -> Self {
        TableIndex {
            rows,
            index,
            unique,
        }
    }

    /// The rows whose indexed columns equal `key` (one value per indexed
    /// column, in `index_on`'s column order), in unspecified order.
    pub fn get<'s>(&'s self, key: &'s Row) -> Matches<'a, 's, std::slice::Iter<'s, Value>> {
        self.get_values(key.iter())
    }

    /// [`TableIndex::get`] for a key given as borrowed values, in
    /// `index_on`'s column order, read where they sit: no key row is built.
    pub fn get_values<'s, 'k, K>(&'s self, key: K) -> Matches<'a, 's, K>
    where
        K: Iterator<Item = &'k Value> + Clone,
    {
        let ix = &*self.index;
        Matches {
            rows: self.rows,
            pos: ix.heads[ix.bucket(ix.hash_key(key.clone()))],
            index: ix,
            key,
            unique: self.unique,
        }
    }

    /// [`TableIndex::get`] for the key `row` carries at `cols` (one
    /// position per indexed column, in order), read in place.
    pub fn get_of<'s>(
        &'s self,
        row: &'s Row,
        cols: &'s [usize],
    ) -> Matches<'a, 's, impl Iterator<Item = &'s Value> + Clone> {
        self.get_values(cols.iter().map(move |&c| &row[c]))
    }
}

/// Iterator over the rows matching one probed key. The rows borrow the
/// table, not the probe handle.
pub struct Matches<'a, 's, K> {
    rows: &'a [Row],
    index: &'s HashIndex,
    pos: u32,
    key: K,
    unique: bool,
}

impl<'a, 'k, K> Iterator for Matches<'a, '_, K>
where
    K: Iterator<Item = &'k Value> + Clone,
{
    type Item = &'a Row;

    fn next(&mut self) -> Option<&'a Row> {
        while self.pos != NIL {
            let row = &self.rows[self.pos as usize];
            self.pos = self.index.next[self.pos as usize];
            // A bucket holds every key that hashes to it.
            if self.index.has_key(row, self.key.clone()) {
                if self.unique {
                    self.pos = NIL;
                }
                return Some(row);
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
        let index = TableIndex::new(rows, Arc::new(ix), false);
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
