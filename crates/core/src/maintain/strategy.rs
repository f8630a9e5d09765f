//! Maintenance strategies: which propagation/apply rules refresh a view.
//!
//! These are exactly the methods compared in the paper's evaluation (§7):
//! full recomputation, the insert/delete rules (Fig. 22 / \[18\]), the GPIVOT
//! update rules after pullup (Fig. 23), the SELECT-pushdown variant
//! (Eq. 7 + Fig. 23), and the two combined update rules (Fig. 27, Fig. 29).

use crate::maintain::apply::ApplyStats;
use std::fmt;

/// A maintenance strategy for one materialized view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Re-execute the view query over the post-update state (§7's baseline).
    Recompute,
    /// Propagate insert/delete deltas through the *original* tree —
    /// intermediate pivots use Fig. 22, GROUPBYs recompute affected groups
    /// — and apply the final delta as deletes + re-inserts.
    InsertDelete,
    /// Pull the pivot to the top (Fig. 4), propagate relational deltas
    /// through the core, and MERGE with the Fig. 23 update rules.
    PivotUpdate,
    /// For `σ(GPivot(...))` views: push the SELECT below the pivot with the
    /// Eq. 7 self-joins, then maintain like [`Strategy::PivotUpdate`]
    /// (the "select pushdown" comparison method of §7.2.2).
    SelectPushdownUpdate,
    /// For `σ(GPivot(...))` views: keep the pair on top and use the
    /// combined SELECT/GPIVOT update rules of Fig. 29.
    SelectPivotUpdate,
    /// For `GPivot(GroupBy(...))` views: update rules for the pivot but
    /// insert/delete rules (affected-group recomputation, \[18\]) for the
    /// GROUPBY — the middle method of §7.3.
    GroupByInsDel,
    /// For `GPivot(GroupBy(...))` views: the combined GPIVOT/GROUPBY update
    /// rules of Fig. 27.
    GroupPivotUpdate,
}

impl Strategy {
    /// All strategies, for exhaustive iteration in tests/benches.
    pub const ALL: [Strategy; 7] = [
        Strategy::Recompute,
        Strategy::InsertDelete,
        Strategy::PivotUpdate,
        Strategy::SelectPushdownUpdate,
        Strategy::SelectPivotUpdate,
        Strategy::GroupByInsDel,
        Strategy::GroupPivotUpdate,
    ];

    /// Short stable identifier (bench labels, reports).
    pub fn id(&self) -> &'static str {
        match self {
            Strategy::Recompute => "recompute",
            Strategy::InsertDelete => "insert-delete",
            Strategy::PivotUpdate => "pivot-update",
            Strategy::SelectPushdownUpdate => "select-pushdown-update",
            Strategy::SelectPivotUpdate => "select-pivot-update",
            Strategy::GroupByInsDel => "groupby-insdel",
            Strategy::GroupPivotUpdate => "group-pivot-update",
        }
    }

    /// Inverse of [`Strategy::id`]. The durability layer persists strategies
    /// by id in WAL records and checkpoints; recovery parses them back.
    pub fn from_id(id: &str) -> Option<Strategy> {
        Strategy::ALL.into_iter().find(|s| s.id() == id)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// The compiled maintenance plan for a view (the output of the paper's
/// compile phase, Fig. 4): strategy + the rewriting trail that justified it.
#[derive(Debug, Clone)]
pub struct MaintenancePlan {
    pub strategy: Strategy,
    /// Rewrite rules applied during normalization, in order.
    pub rewrite_log: Vec<String>,
    /// Human-readable explanation of the normalized tree.
    pub normalized_explain: String,
    /// The σ-parent whose patch each epoch re-tests to refresh this view
    /// instead of running `strategy`, while both reflect the same catalog
    /// state (set by `ViewManager::maintenance_plan`).
    pub derived_from: Option<String>,
}

impl fmt::Display for MaintenancePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "strategy: {}", self.strategy)?;
        if let Some(parent) = &self.derived_from {
            writeln!(f, "derived from {parent} (σ re-test of its patch)")?;
        }
        if !self.rewrite_log.is_empty() {
            writeln!(f, "rewrites applied:")?;
            for r in &self.rewrite_log {
                writeln!(f, "  - {r}")?;
            }
        }
        writeln!(f, "normalized plan:")?;
        for line in self.normalized_explain.lines() {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// Result of one maintenance cycle on one view.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceOutcome {
    /// Row-level effects on the materialized table.
    pub stats: ApplyStats,
    /// Number of signed delta rows that reached the apply phase, before
    /// any consolidation (equal rows from different join terms count once
    /// each).
    pub delta_rows: usize,
    /// Operator-output rows evaluated during the propagate phase (the sum
    /// of `ExecTrace::total_rows` over every pre/post subplan evaluation) —
    /// the work proxy the service layer's metrics report.
    pub rows_propagated: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let ids: std::collections::HashSet<_> = Strategy::ALL.iter().map(|s| s.id()).collect();
        assert_eq!(ids.len(), Strategy::ALL.len());
    }

    #[test]
    fn plan_display_lists_rewrites() {
        let p = MaintenancePlan {
            strategy: Strategy::PivotUpdate,
            rewrite_log: vec!["pullup-join (§5.1.3)".into()],
            normalized_explain: "GPIVOT\n  Scan t".into(),
            derived_from: None,
        };
        let s = p.to_string();
        assert!(s.contains("pivot-update"));
        assert!(s.contains("pullup-join"));
    }
}
