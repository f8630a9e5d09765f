//! Incremental view maintenance (§3, §6 of the paper).
//!
//! The framework is the paper's two-phase compile/refresh pipeline:
//!
//! 1. **Compile** (once per view): normalize the view tree with the rewrite
//!    driver (pivots pulled to the top and combined), choose a maintenance
//!    [`Strategy`] from the resulting [`crate::rewrite::TopShape`], and
//!    materialize the view.
//! 2. **Refresh** (per batch of source deltas): the *propagate phase* runs
//!    the view's [`DeltaProgram`], compiled at registration, over the
//!    deltas ([`delta_prop`]); the *apply phase*
//!    folds the final delta into the materialized table — for the
//!    update-rule strategies with one MERGE ([`apply`]) over the view's
//!    compiled [`apply::MergeLayout`], whose Fig. 27 folds
//!    [`group_pivot`] compiles and whose Fig. 29 candidates
//!    [`select_pivot`] recomputes; for the fallback strategies with plain
//!    insert/delete application.

pub mod apply;
pub mod delta_prop;
pub mod group_pivot;
pub mod select_pivot;
pub mod strategy;
pub mod view;

pub use apply::{ApplyStats, RowOp};
pub use delta_prop::{
    consolidate, post_state_table, DeltaProgram, PropagationCtx, Restriction, SignedRows,
};
pub use strategy::{MaintenanceOutcome, MaintenancePlan, Strategy};
pub use view::{
    EpochPlan, MaterializedView, RefreshGroup, RefreshPlan, ViewManager, ViewOptions, ViewPatch,
};

use gpivot_storage::{Catalog, ColsKey, Delta, Row, RowMap};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// A batch of pending changes to base tables, by table name.
#[derive(Debug, Clone, Default)]
pub struct SourceDeltas {
    map: HashMap<String, Delta>,
}

impl SourceDeltas {
    /// An empty batch.
    pub fn new() -> Self {
        SourceDeltas::default()
    }

    /// Record inserted rows for a table.
    pub fn insert_rows(&mut self, table: impl Into<String>, rows: Vec<Row>) {
        let d = self.map.entry(table.into()).or_default();
        for r in rows {
            d.add(r, 1);
        }
    }

    /// Record deleted rows for a table.
    pub fn delete_rows(&mut self, table: impl Into<String>, rows: Vec<Row>) {
        let d = self.map.entry(table.into()).or_default();
        for r in rows {
            d.add(r, -1);
        }
    }

    /// Record an in-place row update.
    ///
    /// The paper (§9) lists "maintenance of source updates in order to avoid
    /// always to decompose them into inserts and deletes" as future work; in
    /// the signed-multiset model the decomposition is lossless (a delete and
    /// an insert of the same key cancel per-cell during the apply phase's
    /// MERGE), so updates are sugar here.
    pub fn update_row(&mut self, table: impl Into<String>, old: Row, new: Row) {
        let d = self.map.entry(table.into()).or_default();
        d.add(old, -1);
        d.add(new, 1);
    }

    /// Merge a signed delta for a table.
    pub fn add_delta(&mut self, table: impl Into<String>, delta: Delta) {
        self.map.entry(table.into()).or_default().merge(&delta);
    }

    /// Move a signed delta into the batch without cloning its rows.
    pub fn absorb_delta(&mut self, table: impl Into<String>, delta: Delta) {
        self.map.entry(table.into()).or_default().absorb(delta);
    }

    /// The pending delta for a table, if any.
    pub fn delta(&self, table: &str) -> Option<&Delta> {
        self.map.get(table)
    }

    /// Names of tables with pending changes.
    pub fn tables(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    /// Every table with pending changes, with its delta.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Delta)> {
        self.map.iter().map(|(t, d)| (t.as_str(), d))
    }

    /// True iff no change is pending.
    pub fn is_empty(&self) -> bool {
        self.map.values().all(Delta::is_empty)
    }

    /// Total number of row changes across all tables.
    pub fn total_changes(&self) -> u64 {
        self.map.values().map(Delta::total_multiplicity).sum()
    }

    /// This batch without the rows `catalog` cannot take, and what was
    /// taken out. Every refresh path — the serve epoch,
    /// [`ViewManager::plan_epoch`] and durable replay — admits its batch
    /// before propagating, so one bad row is refused alone instead of
    /// failing its epoch, and every later one, for the rows queued beside
    /// it.
    ///
    /// * **Deletes** a table does not hold are dropped. A table skips a
    ///   delete of a row it does not hold
    ///   ([`gpivot_storage::Table::apply_delta`]), so propagating one
    ///   would take from the views a row their definitions never held. On
    ///   a keyed table the row stored under the deleted row's key must
    ///   equal it; on a bag, deletes beyond the copies held are dropped
    ///   (one scan of the table counts them, as `apply_delta` scans a bag
    ///   per delete).
    /// * **Inserts** into a keyed table are refused when their key is held
    ///   and the batch does not delete the fully matching held row, and
    ///   when the batch inserts the key more than once. Of those, the
    ///   least row (rows order by value) is kept, so replay refuses the
    ///   same rows. This is [`gpivot_storage::Table::check_delta`]'s rule:
    ///   after admission its `KeyViolation` means a bug.
    ///
    /// Borrows the batch unchanged when nothing is refused. A table the
    /// catalog lacks is left for validation to refuse.
    pub fn admit(&self, catalog: &Catalog) -> (Cow<'_, SourceDeltas>, Refused) {
        let mut admitted = Cow::Borrowed(self);
        let mut refused = Refused::default();
        let mut take_out = |table: &str, row: &Row, weight: i64| {
            if let Some(d) = admitted.to_mut().map.get_mut(table) {
                d.add(row.clone(), -weight);
            }
        };
        for (name, delta) in &self.map {
            let Ok(table) = catalog.table(name) else {
                continue;
            };
            let deletes = || delta.iter().filter(|(_, &w)| w < 0);
            let bag_copies =
                (table.schema().key().is_none() && deletes().next().is_some()).then(|| {
                    let mut copies: RowMap<&Row, i64> = deletes().map(|(r, _)| (r, 0)).collect();
                    for row in table.rows() {
                        if let Some(n) = copies.get_mut(row) {
                            *n += 1;
                        }
                    }
                    copies
                });
            for (row, &w) in deletes() {
                let held = match &bag_copies {
                    Some(copies) => copies[row],
                    None => i64::from(table.get_by_key_of(row) == Some(row)),
                };
                let excess = (-w - held).max(0);
                if excess > 0 {
                    take_out(name, row, -excess);
                    refused.deletes += excess as u64;
                }
            }

            let Some(key) = table.schema().key() else {
                continue;
            };
            let mut refuse = |row: &Row, n: i64| {
                take_out(name, row, n);
                refused.inserts += n as u64;
                let key = row.project(key);
                let last = refused
                    .insert_keys
                    .entry(name.clone())
                    .or_insert_with(|| key.clone());
                if key > *last {
                    *last = key;
                }
            };
            // The least admitted insert on each key.
            let mut least: RowMap<ColsKey<'_>, &Row> = RowMap::default();
            for (row, &w) in delta.iter().filter(|(_, &w)| w > 0) {
                let stored = table.get_by_key_of(row);
                if stored.is_some_and(|stored| delta.multiplicity(stored) >= 0) {
                    refuse(row, w);
                    continue;
                }
                if w > 1 {
                    refuse(row, w - 1);
                }
                match least.entry(ColsKey::new(row, key)) {
                    Entry::Vacant(e) => {
                        e.insert(row);
                    }
                    Entry::Occupied(mut e) if row < *e.get() => refuse(e.insert(row), 1),
                    Entry::Occupied(_) => refuse(row, 1),
                }
            }
        }
        (admitted, refused)
    }
}

/// What [`SourceDeltas::admit`] took out of a batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Refused {
    /// Deleted rows dropped because their table does not hold them.
    pub deletes: u64,
    /// Inserted rows refused because their key was taken.
    pub inserts: u64,
    /// Per table, the greatest key among the refused inserts.
    pub insert_keys: BTreeMap<String, Row>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_storage::row;

    #[test]
    fn update_row_is_delete_plus_insert() {
        let mut d = SourceDeltas::new();
        d.update_row("t", row![1, "old"], row![1, "new"]);
        let delta = d.delta("t").unwrap();
        assert_eq!(delta.multiplicity(&row![1, "old"]), -1);
        assert_eq!(delta.multiplicity(&row![1, "new"]), 1);
        // Updating back cancels entirely.
        d.update_row("t", row![1, "new"], row![1, "old"]);
        assert!(d.is_empty());
    }

    fn admit_catalog() -> Catalog {
        use gpivot_storage::{DataType, Schema, Table};
        use std::sync::Arc;
        let keyed =
            Schema::from_pairs_keyed(&[("id", DataType::Int), ("v", DataType::Int)], &["id"])
                .unwrap();
        let bag = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let mut c = Catalog::new();
        let t = Table::from_rows(Arc::new(keyed), vec![row![1, 10], row![2, 20]]);
        c.register("t", t.unwrap()).unwrap();
        let b = Table::from_rows(Arc::new(bag), vec![row![7], row![7]]);
        c.register("b", b.unwrap()).unwrap();
        c
    }

    #[test]
    fn admit_drops_only_deletes_the_table_cannot_cover() {
        let c = admit_catalog();
        let mut held = SourceDeltas::new();
        held.delete_rows("t", vec![row![1, 10]]);
        held.update_row("t", row![2, 20], row![2, 21]);
        held.delete_rows("b", vec![row![7], row![7]]);
        let (admitted, refused) = held.admit(&c);
        assert!(matches!(admitted, Cow::Borrowed(_)));
        assert_eq!(refused, Refused::default());

        let mut d = SourceDeltas::new();
        // A key held with other values, a key not held, a third copy.
        d.delete_rows("t", vec![row![1, 11], row![9, 90]]);
        d.insert_rows("t", vec![row![3, 30]]);
        d.delete_rows("b", vec![row![7], row![7], row![7], row![8]]);
        d.delete_rows("missing", vec![row![1]]);
        let (admitted, refused) = d.admit(&c);
        assert_eq!((refused.deletes, refused.inserts), (4, 0));
        let t = admitted.delta("t").unwrap();
        assert_eq!((t.distinct_len(), t.multiplicity(&row![3, 30])), (1, 1));
        let b = admitted.delta("b").unwrap();
        assert_eq!((b.distinct_len(), b.multiplicity(&row![7])), (1, -2));
        assert_eq!(admitted.delta("missing"), d.delta("missing"));
    }

    #[test]
    fn admit_refuses_inserts_of_taken_keys_and_keeps_the_least_duplicate() {
        let c = admit_catalog();
        let mut d = SourceDeltas::new();
        // Key 1 is held and not deleted; key 2's held row is deleted, so
        // one new row may take it; key 4 is inserted twice, and 5 is
        // inserted as two copies of one row.
        d.insert_rows("t", vec![row![1, 99], row![2, 22], row![2, 23]]);
        d.delete_rows("t", vec![row![2, 20]]);
        d.insert_rows(
            "t",
            vec![row![4, 41], row![4, 40], row![5, 50], row![5, 50]],
        );
        d.insert_rows("b", vec![row![7]]);
        let (admitted, refused) = d.admit(&c);
        assert_eq!((refused.deletes, refused.inserts), (0, 4));
        assert_eq!(refused.insert_keys.get("t"), Some(&row![5]));
        let t = admitted.delta("t").unwrap();
        let kept = [row![2, 22], row![4, 40], row![5, 50]];
        assert!(kept.iter().all(|r| t.multiplicity(r) == 1), "{t:?}");
        assert_eq!(t.multiplicity(&row![2, 20]), -1);
        assert_eq!(t.distinct_len(), 4);
        assert_eq!(admitted.delta("b"), d.delta("b"), "a bag takes any insert");
        let t = c.table("t").unwrap();
        assert!(t.check_delta(admitted.delta("t").unwrap()).is_ok());
    }

    #[test]
    fn source_deltas_accumulate() {
        let mut d = SourceDeltas::new();
        d.insert_rows("t", vec![row![1], row![2]]);
        d.delete_rows("t", vec![row![1]]);
        assert_eq!(d.delta("t").unwrap().multiplicity(&row![1]), 0);
        assert_eq!(d.delta("t").unwrap().multiplicity(&row![2]), 1);
        assert_eq!(d.total_changes(), 1);
        assert!(!d.is_empty());
        assert!(SourceDeltas::new().is_empty());
    }
}
