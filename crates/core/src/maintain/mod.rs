//! Incremental view maintenance (§3, §6 of the paper).
//!
//! The framework is the paper's two-phase compile/refresh pipeline:
//!
//! 1. **Compile** (once per view): normalize the view tree with the rewrite
//!    driver (pivots pulled to the top and combined), choose a maintenance
//!    [`Strategy`] from the resulting [`crate::rewrite::TopShape`], and
//!    materialize the view.
//! 2. **Refresh** (per batch of source deltas): the *propagate phase* pushes
//!    deltas through the relational core ([`delta_prop`]); the *apply phase*
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
pub use delta_prop::{post_state_table, propagate, PropagationCtx};
pub use strategy::{MaintenanceOutcome, MaintenancePlan, Strategy};
pub use view::{
    EpochPlan, MaterializedView, RefreshGroup, RefreshPlan, ViewManager, ViewOptions, ViewPatch,
};

use gpivot_storage::{Delta, Row};
use std::collections::HashMap;

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
