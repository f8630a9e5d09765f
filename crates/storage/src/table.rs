//! Tables: row bags with an optional enforced key and a hash index over it.
//!
//! Two kinds of tables appear in the system:
//!
//! * **Base tables** (e.g. TPC-H `lineitem`) — declared with a key; the key
//!   index makes delta-vs-base joins and point deletions cheap.
//! * **Materialized views** — also keyed (the paper assumes a key in the
//!   view, §6.1); the apply phase of maintenance uses the keyed update
//!   primitives here ([`Table::upsert`], [`Table::update_by_key_of`],
//!   [`Table::delete_by_key_of`]) to realize the SQL `MERGE` the paper
//!   relies on in its experiments (§7.1).
//!
//! Un-keyed tables degrade gracefully to plain bags.
//!
//! The key index is a `HashIndex` over the key columns: position chains
//! that store no key. Every keyed operation reads the key where it already
//! sits — in the row being inserted, deleted or updated
//! ([`Table::get_by_key_of`]), or in borrowed values
//! ([`Table::get_by_key_values`]) — so none builds a key row.
//!
//! Any table can additionally be probed on an arbitrary column set through
//! [`Table::index_on`] — the "index on the join columns" the paper's
//! propagate phase assumes of its host DBMS (§6.2). Those indexes are
//! built on first probe and then maintained by the mutators.

use crate::delta::Delta;
use crate::error::{Result, StorageError};
use crate::hash::{ColsKey, RowSet};
use crate::index::{HashIndex, TableIndex};
use crate::row::Row;
use crate::schema::SchemaRef;
use crate::value::Value;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// A bag of rows conforming to a schema, optionally indexed by the schema key.
///
/// Rows are held behind an [`Arc`] with copy-on-write semantics: cloning a
/// table (or re-wrapping a base table's rows via [`Table::bag_shared`] /
/// [`Table::shared_rows`], as `Plan::Scan` does) shares the row storage.
/// A mutator writes **in place** when the table is the only holder of its
/// rows — the normal case for the epoch commit, which touches O(|Δ|) rows
/// of a live table and copies nothing — and detaches onto a private copy
/// first ([`Arc::make_mut`]) when a reader still shares them, so a result
/// handed out earlier never changes under its holder. The key index is
/// shared and detached the same way.
#[derive(Debug, Clone)]
pub struct Table {
    schema: SchemaRef,
    rows: Arc<Vec<Row>>,
    /// Chains over the schema key's columns; present iff the schema has a
    /// key. Holds no key: probes verify against `rows`.
    key_index: Option<Arc<HashIndex>>,
    /// Secondary hash indexes, one per probed column set
    /// ([`Table::index_on`]). Built on first probe into a cell shared with
    /// clones and [`Table::as_bag`] views. They survive mutation: a
    /// mutator first takes a private copy of the cell if it is shared (so
    /// readers of the old rows keep indexes that describe the old rows),
    /// then updates every index in step with the rows. Never persisted —
    /// after recovery the first probe rebuilds.
    indexes: Arc<IndexCell>,
}

type IndexCell = Mutex<Vec<Arc<HashIndex>>>;

/// A table does not know the name it is registered under: the catalog
/// (or view) that owns it fills that in ([`StorageError::in_table`]). The
/// key is named by the offending row's key columns — the one place a key
/// row is built.
fn key_violation(row: &Row, key_cols: &[usize]) -> StorageError {
    StorageError::KeyViolation {
        table: "<table>".to_string(),
        key: format!("{:?}", row.project(key_cols)),
    }
}

/// A fresh cell holding no secondary index.
fn empty_index_cell() -> Arc<IndexCell> {
    Arc::new(Mutex::new(Vec::new()))
}

impl Table {
    /// Create an empty table. A key index is built iff the schema has a key.
    pub fn new(schema: SchemaRef) -> Self {
        let key_index = schema.key().map(|k| Arc::new(HashIndex::build(k, &[])));
        Table {
            schema,
            rows: Arc::new(Vec::new()),
            key_index,
            indexes: empty_index_cell(),
        }
    }

    /// Create a table and bulk-load rows: arity is checked per row and key
    /// uniqueness enforced, as [`Table::insert`] would one row at a time,
    /// but the key index is sized and built once.
    pub fn from_rows(schema: SchemaRef, rows: Vec<Row>) -> Result<Self> {
        Table::bag(schema.clone(), rows).into_keyed(schema)
    }

    /// Create an un-keyed, un-checked bag (intermediate results).
    pub fn bag(schema: SchemaRef, rows: Vec<Row>) -> Self {
        Table {
            schema,
            rows: Arc::new(rows),
            key_index: None,
            indexes: empty_index_cell(),
        }
    }

    /// Create an un-keyed bag that shares already-shared row storage
    /// without copying. `Plan::Scan` uses this to hand a base table's rows
    /// to the executor by reference count rather than by O(|base|) clone.
    pub fn bag_shared(schema: SchemaRef, rows: Arc<Vec<Row>>) -> Self {
        Table {
            schema,
            rows,
            key_index: None,
            indexes: empty_index_cell(),
        }
    }

    /// The shared row storage. Cheap (one refcount bump); the returned
    /// `Arc` points at the same allocation until this table next mutates.
    pub fn shared_rows(&self) -> Arc<Vec<Row>> {
        Arc::clone(&self.rows)
    }

    /// Rebind this table to `schema` and build its key index in place,
    /// without copying rows: arity is checked per row and key uniqueness
    /// enforced exactly as [`Table::insert`] would, but the row storage
    /// (and its `Arc` sharing) is reused, and one pass sizes, builds and
    /// checks the key index. This is how a materialized bag from the
    /// executor becomes a keyed view table.
    pub fn into_keyed(self, schema: SchemaRef) -> Result<Self> {
        let arity = schema.arity();
        if let Some(row) = self.rows.iter().find(|row| row.arity() != arity) {
            return Err(StorageError::ArityMismatch {
                expected: arity,
                actual: row.arity(),
            });
        }
        let key_index = match schema.key() {
            None => None,
            Some(key_cols) => match HashIndex::build_unique(key_cols, &self.rows) {
                Ok(ix) => Some(Arc::new(ix)),
                Err(pos) => return Err(key_violation(&self.rows[pos], key_cols)),
            },
        };
        Ok(Table {
            schema,
            rows: self.rows,
            key_index,
            // Rows are unchanged, so any secondary index already built
            // for them stays valid.
            indexes: self.indexes,
        })
    }

    /// The table schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, in storage order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Iterate over rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows.iter()
    }

    /// An un-keyed view of this table sharing the row storage *and* the
    /// secondary-index cache. This is what `Plan::Scan` hands to the
    /// executor: the key index is dropped (execution never uses it).
    pub fn as_bag(&self) -> Table {
        Table {
            schema: self.schema.clone(),
            rows: Arc::clone(&self.rows),
            key_index: None,
            indexes: Arc::clone(&self.indexes),
        }
    }

    /// A hash index over the projection of this table's rows onto `cols`
    /// (column positions), for probing by key: the delta joins of view
    /// maintenance look up `Δ ⋈ base` matches here instead of scanning.
    ///
    /// Nothing is declared up front. Probing exactly the schema key reuses
    /// the key index; any other column set gets a secondary index built on
    /// its first probe (O(|rows|), once) and from then on maintained in
    /// step with the rows by every mutator (and carried through `clone()`),
    /// so the epoch commit's in-place writes never trigger a rebuild.
    pub fn index_on(&self, cols: &[usize]) -> TableIndex<'_> {
        if let Some(index) = self.key_index.as_ref().filter(|ix| ix.cols() == cols) {
            return TableIndex::new(&self.rows, Arc::clone(index), true);
        }
        // A poisoned cell is still valid: the only write under the lock is
        // the push of a finished index.
        let mut built = self.indexes.lock().unwrap_or_else(PoisonError::into_inner);
        let index = match built.iter().find(|ix| ix.cols() == cols) {
            Some(ix) => Arc::clone(ix),
            None => {
                // Build under the lock: concurrent probers of a cold
                // table wait for one build instead of each doing their own.
                let ix = Arc::new(HashIndex::build(cols, &self.rows));
                built.push(Arc::clone(&ix));
                ix
            }
        };
        TableIndex::new(&self.rows, index, false)
    }

    /// Run `f` on every secondary index, for a mutator to mirror its row
    /// change. Takes a private copy of a shared cell (and, through
    /// [`Arc::make_mut`], of each shared index) first, so clones that
    /// still see the old rows keep indexes describing them.
    fn update_indexes(&mut self, mut f: impl FnMut(&mut HashIndex, &[Row])) {
        if Arc::strong_count(&self.indexes) > 1 {
            let snapshot = self
                .indexes
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            self.indexes = Arc::new(Mutex::new(snapshot));
        }
        match Arc::get_mut(&mut self.indexes) {
            Some(cell) => {
                let built = cell.get_mut().unwrap_or_else(PoisonError::into_inner);
                for ix in built {
                    f(Arc::make_mut(ix), &self.rows);
                }
            }
            // Not reachable (`&mut self` and the count above make the cell
            // unique); dropping the indexes is always sound — the next
            // probe rebuilds them.
            None => self.indexes = empty_index_cell(),
        }
    }

    /// `swap_remove` the row at `pos`, keeping the key index and every
    /// secondary index in step.
    fn remove_at(&mut self, pos: usize) -> Row {
        let removed = Arc::make_mut(&mut self.rows).swap_remove(pos);
        let mirror = |ix: &mut HashIndex, rows: &[Row]| {
            ix.unlink(&removed, pos);
            ix.relocate(rows.get(pos), pos);
        };
        if let Some(ix) = self.key_index.as_mut() {
            mirror(Arc::make_mut(ix), &self.rows);
        }
        self.update_indexes(mirror);
        removed
    }

    /// The position of the row whose key `row` carries at the key columns
    /// (`row` has this table's shape), if the table holds one.
    fn key_position_of(&self, row: &Row) -> Option<usize> {
        let ix = self.key_index.as_ref()?;
        if row.arity() != self.schema.arity() {
            return None;
        }
        ix.position_of(&self.rows, row)
    }

    /// Insert a row, enforcing arity and (if declared) key uniqueness.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        if row.arity() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.arity(),
                actual: row.arity(),
            });
        }
        // One hash of the row's key, shared by the duplicate check and the
        // link.
        let hash = match &self.key_index {
            Some(ix) => {
                let hash = ix.hash_row(&row);
                if ix
                    .find(&self.rows, hash, |held| ix.same_key(held, &row))
                    .is_some()
                {
                    return Err(key_violation(&row, ix.cols()));
                }
                Some(hash)
            }
            None => None,
        };
        Arc::make_mut(&mut self.rows).push(row);
        if let (Some(ix), Some(hash)) = (self.key_index.as_mut(), hash) {
            Arc::make_mut(ix).link_hashed(&self.rows, hash);
        }
        self.update_indexes(|ix, rows| ix.link(rows));
        Ok(())
    }

    /// Look up the full row for a key value (key-projected row).
    pub fn get_by_key(&self, key: &Row) -> Option<&Row> {
        self.get_by_key_values(key.iter())
    }

    /// Look up the full row for a key given as borrowed values, in the
    /// order of the schema key's columns. Builds nothing.
    pub fn get_by_key_values<'v>(
        &self,
        key: impl Iterator<Item = &'v Value> + Clone,
    ) -> Option<&Row> {
        let pos = self.key_index.as_ref()?.position(&self.rows, key)?;
        Some(&self.rows[pos])
    }

    /// The stored row under the key `row` carries, where `row` has this
    /// table's shape (e.g. a post-state or deleted row). Builds nothing.
    pub fn get_by_key_of(&self, row: &Row) -> Option<&Row> {
        self.key_position_of(row).map(|pos| &self.rows[pos])
    }

    /// Remove the row stored under the key `row` carries (`row` has this
    /// table's shape; only its key columns are read); returns it, and the
    /// position it was `swap_remove`d from (for a caller keeping a vector
    /// parallel to [`Table::rows`]), if present.
    pub fn delete_by_key_of(&mut self, row: &Row) -> Option<(usize, Row)> {
        let pos = self.key_position_of(row)?;
        Some((pos, self.remove_at(pos)))
    }

    /// Replace the row stored under the key `new_row` carries with
    /// `new_row`. Returns the old row and its position, or `None` if the
    /// key was absent (nothing is inserted in that case).
    pub fn update_by_key_of(&mut self, new_row: Row) -> Option<(usize, Row)> {
        let pos = self.key_position_of(&new_row)?;
        Some((pos, self.replace_at(pos, new_row)))
    }

    /// Overwrite the row at `pos` with one of the same key. The key index
    /// is untouched — the key, and so the chain, is the same — and every
    /// secondary index re-links the position.
    fn replace_at(&mut self, pos: usize, new_row: Row) -> Row {
        debug_assert!(
            self.key_index
                .as_ref()
                .is_none_or(|ix| ix.same_key(&self.rows[pos], &new_row)),
            "update_by_key_of: new row's key must match"
        );
        let old = std::mem::replace(&mut Arc::make_mut(&mut self.rows)[pos], new_row);
        self.update_indexes(|ix, rows| {
            ix.unlink(&old, pos);
            ix.relink(&rows[pos], pos);
        });
        old
    }

    /// Insert-or-replace by key. Returns the displaced row, if any.
    pub fn upsert(&mut self, row: Row) -> Result<Option<Row>> {
        match self.key_position_of(&row) {
            Some(pos) => Ok(Some(self.replace_at(pos, row))),
            None => {
                self.insert(row)?;
                Ok(None)
            }
        }
    }

    /// Delete the first row equal to `row` (bag deletion for un-keyed
    /// tables). Returns true if a row was removed.
    pub fn delete_row(&mut self, row: &Row) -> bool {
        if row.arity() != self.schema.arity() {
            return false; // cannot equal any stored row
        }
        let pos = if self.key_index.is_some() {
            // Keyed fast path: only delete when the stored row matches fully.
            self.key_position_of(row)
                .filter(|&pos| self.rows[pos] == *row)
        } else {
            self.rows.iter().position(|r| r == row)
        };
        pos.map(|pos| self.remove_at(pos)).is_some()
    }

    /// Would [`Table::apply_delta`] succeed? Answers in O(|Δ|) without
    /// touching the table, with the error `apply_delta` would raise: every
    /// inserted row must have the schema's arity, and on a keyed table an
    /// inserted key must be absent — or removed by a *fully matching*
    /// delete in the same delta — and inserted only once.
    pub fn check_delta(&self, delta: &Delta) -> Result<()> {
        let key_cols = self.key_index.as_ref().map_or(&[][..], |ix| ix.cols());
        // The inserted rows, grouped by key in place: a second row on a
        // key is a second insert of it.
        let mut keys: RowSet<ColsKey> = RowSet::default();
        for (row, &w) in delta.iter() {
            if w <= 0 {
                continue;
            }
            if row.arity() != self.schema.arity() {
                return Err(StorageError::ArityMismatch {
                    expected: self.schema.arity(),
                    actual: row.arity(),
                });
            }
            if self.key_index.is_none() {
                continue;
            }
            let survives_deletes = self
                .get_by_key_of(row)
                .is_some_and(|stored| delta.multiplicity(stored) >= 0);
            if survives_deletes || w > 1 || !keys.insert(ColsKey::new(row, key_cols)) {
                return Err(key_violation(row, key_cols));
            }
        }
        Ok(())
    }

    /// Apply a signed delta to this table: positive multiplicities insert,
    /// negative multiplicities delete (bag semantics). For keyed tables the
    /// paper's convention holds: a batch never inserts a duplicate key.
    ///
    /// A failure partway leaves the earlier rows applied; callers that
    /// need all-or-nothing ask [`Table::check_delta`] first.
    pub fn apply_delta(&mut self, delta: &Delta) -> Result<()> {
        // Deletes first so that delete+insert of the same key in one batch
        // (the insert/delete propagation rules do exactly this) succeeds.
        for (row, &w) in delta.iter() {
            if w < 0 {
                for _ in 0..(-w) {
                    self.delete_row(row);
                }
            }
        }
        for (row, &w) in delta.iter() {
            if w > 0 {
                for _ in 0..w {
                    self.insert(row.clone())?;
                }
            }
        }
        Ok(())
    }

    /// Rows sorted (for order-insensitive comparison in tests).
    pub fn sorted_rows(&self) -> Vec<Row> {
        let mut v = (*self.rows).clone();
        v.sort();
        v
    }

    /// Bag equality with another table (ignores row order and index state).
    pub fn bag_eq(&self, other: &Table) -> bool {
        self.schema.fields() == other.schema.fields() && self.sorted_rows() == other.sorted_rows()
    }

    /// Render the table as an aligned text grid (examples / debugging).
    pub fn to_pretty_string(&self) -> String {
        let names = self.schema.column_names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.chars().count()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (n, w) in names.iter().zip(&widths) {
            out.push_str(&format!(" {n:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        let mut sorted = rendered;
        sorted.sort();
        for row in sorted {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_pretty_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{DataType, Schema};
    use std::sync::Arc;

    fn keyed_schema() -> SchemaRef {
        Arc::new(
            Schema::from_pairs_keyed(&[("id", DataType::Int), ("name", DataType::Str)], &["id"])
                .unwrap(),
        )
    }

    #[test]
    fn insert_and_lookup_by_key() {
        let mut t = Table::new(keyed_schema());
        t.insert(row![1, "a"]).unwrap();
        t.insert(row![2, "b"]).unwrap();
        assert_eq!(t.get_by_key(&row![1]), Some(&row![1, "a"]));
        assert_eq!(t.get_by_key(&row![3]), None);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = Table::new(keyed_schema());
        t.insert(row![1, "a"]).unwrap();
        assert!(matches!(
            t.insert(row![1, "b"]),
            Err(StorageError::KeyViolation { .. })
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = Table::new(keyed_schema());
        assert!(matches!(
            t.insert(row![1]),
            Err(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn delete_by_key_fixes_index_of_moved_row() {
        let mut t = Table::new(keyed_schema());
        for i in 0..5 {
            t.insert(row![i, "x"]).unwrap();
        }
        assert_eq!(t.delete_by_key_of(&row![0, "?"]), Some((0, row![0, "x"])));
        // Row 4 was swap-moved into slot 0; lookup must still find it.
        assert_eq!(t.get_by_key(&row![4]), Some(&row![4, "x"]));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn update_by_key_replaces_in_place() {
        let mut t = Table::new(keyed_schema());
        t.insert(row![1, "a"]).unwrap();
        let old = t.update_by_key_of(row![1, "z"]);
        assert_eq!(old, Some((0, row![1, "a"])));
        assert_eq!(t.get_by_key(&row![1]), Some(&row![1, "z"]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn upsert_inserts_then_replaces() {
        let mut t = Table::new(keyed_schema());
        assert_eq!(t.upsert(row![1, "a"]).unwrap(), None);
        assert_eq!(t.upsert(row![1, "b"]).unwrap(), Some(row![1, "a"]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn apply_delta_deletes_then_inserts() {
        let mut t = Table::new(keyed_schema());
        t.insert(row![1, "a"]).unwrap();
        let mut d = Delta::new();
        d.add(row![1, "a"], -1);
        d.add(row![1, "b"], 1); // same key re-inserted: must not violate
        t.apply_delta(&d).unwrap();
        assert_eq!(t.get_by_key(&row![1]), Some(&row![1, "b"]));
    }

    #[test]
    fn bag_table_allows_duplicates() {
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]).unwrap());
        let mut t = Table::new(schema);
        t.insert(row![1]).unwrap();
        t.insert(row![1]).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.delete_row(&row![1]));
        assert_eq!(t.len(), 1);
        assert!(!t.delete_row(&row![9]));
    }

    #[test]
    fn bag_eq_ignores_order() {
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]).unwrap());
        let a = Table::bag(schema.clone(), vec![row![1], row![2]]);
        let b = Table::bag(schema, vec![row![2], row![1]]);
        assert!(a.bag_eq(&b));
    }

    #[test]
    fn pretty_print_contains_headers() {
        let mut t = Table::new(keyed_schema());
        t.insert(row![1, "alpha"]).unwrap();
        let s = t.to_pretty_string();
        assert!(s.contains("id"));
        assert!(s.contains("alpha"));
    }

    #[test]
    fn bag_shared_and_clone_share_storage_until_write() {
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]).unwrap());
        let base = Table::bag(schema.clone(), vec![row![1], row![2]]);
        let shared = Table::bag_shared(schema, base.shared_rows());
        assert!(Arc::ptr_eq(&base.shared_rows(), &shared.shared_rows()));
        // Clone shares too; mutation detaches only the writer.
        let mut copy = base.clone();
        assert!(Arc::ptr_eq(&base.shared_rows(), &copy.shared_rows()));
        copy.insert(row![3]).unwrap();
        assert!(!Arc::ptr_eq(&base.shared_rows(), &copy.shared_rows()));
        assert_eq!(base.len(), 2);
        assert_eq!(copy.len(), 3);
        // The un-mutated reader still points at the original allocation.
        assert!(Arc::ptr_eq(&base.shared_rows(), &shared.shared_rows()));
    }

    #[test]
    fn into_keyed_builds_index_without_copying_rows() {
        let bag = Table::bag(
            Arc::new(
                Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Str)]).unwrap(),
            ),
            vec![row![1, "a"], row![2, "b"]],
        );
        let before = bag.shared_rows();
        let keyed = bag.into_keyed(keyed_schema()).unwrap();
        assert!(Arc::ptr_eq(&before, &keyed.shared_rows()));
        assert_eq!(keyed.get_by_key(&row![2]), Some(&row![2, "b"]));
    }

    #[test]
    fn into_keyed_rejects_duplicate_keys_and_bad_arity() {
        let schema = Arc::new(
            Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Str)]).unwrap(),
        );
        let dup = Table::bag(schema.clone(), vec![row![1, "a"], row![1, "b"]]);
        assert!(matches!(
            dup.into_keyed(keyed_schema()),
            Err(StorageError::KeyViolation { .. })
        ));
        let narrow = Table::bag(schema, vec![row![1]]);
        assert!(matches!(
            narrow.into_keyed(keyed_schema()),
            Err(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn delete_row_on_keyed_requires_full_match() {
        let mut t = Table::new(keyed_schema());
        t.insert(row![1, "a"]).unwrap();
        assert!(!t.delete_row(&row![1, "zzz"]));
        assert!(t.delete_row(&row![1, "a"]));
        assert!(t.is_empty());
    }
}
