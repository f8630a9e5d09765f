//! A coarse cost model for maintenance plans.
//!
//! §3 of the paper: "the result of this compile phase is a maintenance
//! query plan. Thus it is optimizable by a query optimizer … Such decision
//! can be made by a cost-based optimizer." This module supplies that hook:
//! cardinality estimation over plan trees ([`estimate_rows`]), per-strategy
//! refresh-cost estimation ([`estimate_refresh_cost`]) in abstract
//! row-operation units, and [`cheapest_strategy`], which compares every
//! strategy applicable to a view shape at an expected delta size.
//!
//! The model is deliberately simple — linear row-operation counts with
//! standard selectivity defaults — but it reproduces the evaluation's
//! qualitative behaviour: update-rule strategies win at small deltas and
//! every incremental strategy converges toward (and eventually crosses)
//! recomputation as the delta fraction grows.

use crate::rewrite::{normalize_view, TopShape};
use gpivot_algebra::plan::{JoinKind, Plan};
use gpivot_algebra::SchemaProvider;
use gpivot_storage::Catalog;
use std::collections::BTreeMap;

/// Per-table row counts used for estimation.
#[derive(Debug, Clone, Default)]
pub struct CatalogStats {
    rows: BTreeMap<String, f64>,
}

impl CatalogStats {
    /// Collect row counts from a catalog.
    pub fn from_catalog(catalog: &Catalog) -> Self {
        let mut rows = BTreeMap::new();
        for name in catalog.table_names() {
            if let Ok(t) = catalog.table(name) {
                rows.insert(name.to_string(), t.len() as f64);
            }
        }
        CatalogStats { rows }
    }

    /// Set a table's row count explicitly.
    pub fn with_table(mut self, name: impl Into<String>, rows: f64) -> Self {
        self.rows.insert(name.into(), rows);
        self
    }

    /// Row count of a base table (1 if unknown — avoids zero-division).
    pub fn table_rows(&self, name: &str) -> f64 {
        self.rows.get(name).copied().unwrap_or(1.0).max(1.0)
    }
}

/// Default selectivity of a selection predicate.
const SELECTIVITY: f64 = 0.33;
/// Default group-count shrinkage of a GROUP BY.
const GROUP_SHRINK: f64 = 0.25;

/// Estimate the output cardinality of a plan.
pub fn estimate_rows(plan: &Plan, stats: &CatalogStats) -> f64 {
    match plan {
        Plan::Scan { table } => stats.table_rows(table),
        Plan::Select { input, .. } => estimate_rows(input, stats) * SELECTIVITY,
        Plan::Project { input, .. } => estimate_rows(input, stats),
        Plan::Join { left, right, .. } => {
            // Key/FK joins dominate this workload: output ≈ the larger side.
            let l = estimate_rows(left, stats);
            let r = estimate_rows(right, stats);
            l.max(r)
        }
        Plan::GroupBy { input, .. } => (estimate_rows(input, stats) * GROUP_SHRINK).max(1.0),
        Plan::Union { left, right } => estimate_rows(left, stats) + estimate_rows(right, stats),
        Plan::Diff { left, .. } => estimate_rows(left, stats),
        Plan::GPivot { input, spec } => {
            (estimate_rows(input, stats) / spec.groups.len().max(1) as f64).max(1.0)
        }
        Plan::GUnpivot { input, spec } => {
            estimate_rows(input, stats) * spec.groups.len().max(1) as f64
        }
    }
}

/// Estimate the cost (row operations) of evaluating a plan from scratch.
pub fn estimate_eval_cost(plan: &Plan, stats: &CatalogStats) -> f64 {
    let own = match plan {
        Plan::Scan { table } => stats.table_rows(table),
        // Each operator touches its input(s) once; joins build + probe.
        Plan::Join { left, right, .. } => estimate_rows(left, stats) + estimate_rows(right, stats),
        other => other
            .children()
            .iter()
            .map(|c| estimate_rows(c, stats))
            .sum(),
    };
    own + plan
        .children()
        .iter()
        .map(|c| estimate_eval_cost(c, stats))
        .sum::<f64>()
}

/// Cost of propagating a delta of `delta_rows` through a relational core.
///
/// A join term looks the delta's join keys up in the partner side's hash
/// indexes (the probe paths of the view's `DeltaProgram`), so it costs
/// the delta times the join's fan-out — not a pass over the partner. The
/// partner is charged in full only for the shapes no key restriction
/// crosses ([`fallback_scan_cost`]).
fn propagate_cost(core: &Plan, stats: &CatalogStats, delta_rows: f64) -> f64 {
    match core {
        Plan::Scan { .. } => delta_rows,
        Plan::Join { left, right, .. } => {
            // One side carries the delta (we cannot know which; assume the
            // larger subtree is the delta'd fact side, which holds for the
            // paper's star joins).
            let (l, r) = (estimate_rows(left, stats), estimate_rows(right, stats));
            let (delta_side, partner) = if l >= r { (left, right) } else { (right, left) };
            let fan_out = (estimate_rows(core, stats) / l.max(r)).max(1.0);
            propagate_cost(delta_side, stats, delta_rows)
                + fallback_scan_cost(partner, stats)
                + delta_rows * fan_out
        }
        other => {
            delta_rows
                + other
                    .children()
                    .iter()
                    .map(|c| propagate_cost(c, stats, delta_rows))
                    .sum::<f64>()
        }
    }
}

/// What fetching the pre-state rows of `plan` that match a key set costs
/// beyond the per-key probes: nothing where the restriction reaches
/// base-table index probes, a full evaluation for the shapes a delta
/// program evaluates in full and filters (outer joins, `Union`, `Diff`,
/// `GUnpivot`).
fn fallback_scan_cost(plan: &Plan, stats: &CatalogStats) -> f64 {
    match plan {
        Plan::Scan { .. } => 0.0,
        Plan::Select { input, .. }
        | Plan::Project { input, .. }
        | Plan::GroupBy { input, .. }
        | Plan::GPivot { input, .. } => fallback_scan_cost(input, stats),
        Plan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            ..
        } => fallback_scan_cost(left, stats) + fallback_scan_cost(right, stats),
        _ => estimate_eval_cost(plan, stats),
    }
}

/// Cost of the insert/delete rule of an intermediate GROUPBY / GPIVOT
/// `node` over `input`: fetch the affected groups' input rows by probe,
/// then aggregate / pivot them once from the pre and once from the post
/// state.
fn affected_groups_cost(node: &Plan, input: &Plan, stats: &CatalogStats, delta_rows: f64) -> f64 {
    let input_rows = estimate_rows(input, stats);
    let rows_per_group = input_rows / estimate_rows(node, stats);
    fallback_scan_cost(input, stats) + 2.0 * (delta_rows * rows_per_group).min(input_rows)
}

/// Estimated refresh cost of one strategy at an expected delta size, in
/// abstract row operations. Returns `None` when the strategy does not apply
/// to this view shape.
pub fn estimate_refresh_cost<P: SchemaProvider>(
    view: &Plan,
    strategy: crate::maintain::Strategy,
    stats: &CatalogStats,
    provider: &P,
    delta_rows: f64,
) -> Option<f64> {
    use crate::maintain::Strategy::*;
    let nv = normalize_view(view, provider).ok()?;
    let view_rows = estimate_rows(view, stats);
    match strategy {
        Recompute => Some(estimate_eval_cost(view, stats) + view_rows),
        InsertDelete => {
            // Propagation through the original tree; an intermediate pivot
            // or group-by re-derives its affected groups from pre AND post
            // states.
            let mut cost = propagate_cost(view, stats, delta_rows);
            fn regroup(plan: &Plan, stats: &CatalogStats, delta_rows: f64) -> f64 {
                let own = match plan {
                    Plan::GPivot { input, .. } | Plan::GroupBy { input, .. } => {
                        affected_groups_cost(plan, input, stats, delta_rows)
                    }
                    _ => 0.0,
                };
                own + plan
                    .children()
                    .iter()
                    .map(|c| regroup(c, stats, delta_rows))
                    .sum::<f64>()
            }
            cost += regroup(view, stats, delta_rows);
            // Apply: delete + re-insert every affected view row.
            cost += 2.0 * delta_rows;
            Some(cost)
        }
        PivotUpdate => match &nv.shape {
            TopShape::PivotTop { .. } => {
                let Plan::GPivot { input: core, .. } = &nv.plan else {
                    return None;
                };
                Some(propagate_cost(core, stats, delta_rows) + delta_rows)
            }
            _ => None,
        },
        SelectPivotUpdate => match &nv.shape {
            TopShape::SelectOverPivot { .. } => {
                let Plan::Select { input, .. } = &nv.plan else {
                    return None;
                };
                let Plan::GPivot { input: core, .. } = input.as_ref() else {
                    return None;
                };
                // Propagation + in-place merge + candidate-key recompute
                // (the candidates' core rows, fetched by probe).
                Some(
                    propagate_cost(core, stats, delta_rows)
                        + 2.0 * delta_rows
                        + fallback_scan_cost(core, stats),
                )
            }
            _ => None,
        },
        SelectPushdownUpdate => match &nv.shape {
            TopShape::SelectOverPivot { .. } => {
                // The Eq. 7 self-join core: several extra passes over the
                // delta'd fact table per refresh.
                let fact = nv
                    .plan
                    .base_tables()
                    .iter()
                    .map(|t| stats.table_rows(t))
                    .fold(0.0_f64, f64::max);
                Some(propagate_cost(&nv.plan, stats, delta_rows) + 4.0 * fact + delta_rows)
            }
            _ => None,
        },
        GroupByInsDel => match &nv.shape {
            TopShape::PivotOverGroupBy { .. } => {
                let Plan::GPivot { input: gb, .. } = &nv.plan else {
                    return None;
                };
                let Plan::GroupBy { input: core, .. } = gb.as_ref() else {
                    return None;
                };
                // Affected-group recomputation from the pre and post states
                // of the group-by input.
                Some(
                    propagate_cost(core, stats, delta_rows)
                        + affected_groups_cost(gb, core, stats, delta_rows)
                        + 2.0 * delta_rows,
                )
            }
            _ => None,
        },
        GroupPivotUpdate => match &nv.shape {
            TopShape::PivotOverGroupBy { .. } => {
                let Plan::GPivot { input: gb, .. } = &nv.plan else {
                    return None;
                };
                let Plan::GroupBy { input: core, .. } = gb.as_ref() else {
                    return None;
                };
                Some(propagate_cost(core, stats, delta_rows) + delta_rows)
            }
            _ => None,
        },
    }
}

/// The cheapest applicable strategy for a view at an expected delta size.
pub fn cheapest_strategy<P: SchemaProvider>(
    view: &Plan,
    stats: &CatalogStats,
    provider: &P,
    delta_rows: f64,
) -> Option<(crate::maintain::Strategy, f64)> {
    crate::maintain::Strategy::ALL
        .iter()
        .filter_map(|&s| {
            estimate_refresh_cost(view, s, stats, provider, delta_rows).map(|c| (s, c))
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::Strategy;
    use gpivot_algebra::{AggSpec, Expr, PivotSpec};
    use gpivot_storage::{DataType, Schema, SchemaRef, Value};
    use std::sync::Arc;

    fn provider() -> BTreeMap<String, SchemaRef> {
        let mut m = BTreeMap::new();
        m.insert(
            "facts".to_string(),
            Arc::new(
                Schema::from_pairs_keyed(
                    &[
                        ("id", DataType::Int),
                        ("attr", DataType::Str),
                        ("val", DataType::Int),
                    ],
                    &["id", "attr"],
                )
                .unwrap(),
            ),
        );
        m.insert(
            "dims".to_string(),
            Arc::new(
                Schema::from_pairs_keyed(
                    &[("d_id", DataType::Int), ("grp", DataType::Str)],
                    &["d_id"],
                )
                .unwrap(),
            ),
        );
        m
    }

    fn stats() -> CatalogStats {
        CatalogStats::default()
            .with_table("facts", 100_000.0)
            .with_table("dims", 1_000.0)
    }

    fn pivot_view() -> Plan {
        Plan::scan("facts")
            .gpivot(PivotSpec::simple(
                "attr",
                "val",
                vec![Value::str("a"), Value::str("b")],
            ))
            .join(Plan::scan("dims"), vec![("id", "d_id")])
    }

    #[test]
    fn cardinality_estimates_are_sane() {
        let s = stats();
        assert_eq!(estimate_rows(&Plan::scan("facts"), &s), 100_000.0);
        let pivoted = Plan::scan("facts").gpivot(PivotSpec::simple(
            "attr",
            "val",
            vec![Value::str("a"), Value::str("b")],
        ));
        assert_eq!(estimate_rows(&pivoted, &s), 50_000.0);
        let grouped = Plan::scan("facts").group_by(&["attr"], vec![AggSpec::count_star("n")]);
        assert!(estimate_rows(&grouped, &s) < 100_000.0);
    }

    #[test]
    fn small_deltas_prefer_update_rules() {
        let (best, _) = cheapest_strategy(&pivot_view(), &stats(), &provider(), 100.0).unwrap();
        assert_eq!(best, Strategy::PivotUpdate);
    }

    #[test]
    fn update_rules_beat_insert_delete_at_every_size() {
        let p = provider();
        let s = stats();
        for delta in [10.0, 1_000.0, 50_000.0] {
            let upd =
                estimate_refresh_cost(&pivot_view(), Strategy::PivotUpdate, &s, &p, delta).unwrap();
            let insdel =
                estimate_refresh_cost(&pivot_view(), Strategy::InsertDelete, &s, &p, delta)
                    .unwrap();
            assert!(upd < insdel, "delta={delta}: {upd} !< {insdel}");
        }
    }

    #[test]
    fn recompute_wins_for_whole_table_deltas() {
        let p = provider();
        let s = stats();
        let big = 1_000_000.0; // delta far larger than the base table
        let upd = estimate_refresh_cost(&pivot_view(), Strategy::PivotUpdate, &s, &p, big).unwrap();
        let rec = estimate_refresh_cost(&pivot_view(), Strategy::Recompute, &s, &p, big).unwrap();
        assert!(rec < upd, "recompute must win eventually: {rec} !< {upd}");
    }

    #[test]
    fn inapplicable_strategies_cost_none() {
        let p = provider();
        let s = stats();
        assert!(
            estimate_refresh_cost(&pivot_view(), Strategy::GroupPivotUpdate, &s, &p, 10.0)
                .is_none()
        );
        assert!(
            estimate_refresh_cost(&pivot_view(), Strategy::SelectPivotUpdate, &s, &p, 10.0)
                .is_none()
        );
    }

    #[test]
    fn select_over_pivot_prefers_combined_rules() {
        let view = Plan::scan("facts")
            .gpivot(PivotSpec::simple(
                "attr",
                "val",
                vec![Value::str("a"), Value::str("b")],
            ))
            .select(Expr::col("a**val").gt(Expr::lit(10)));
        let p = provider();
        let s = stats();
        let combined =
            estimate_refresh_cost(&view, Strategy::SelectPivotUpdate, &s, &p, 100.0).unwrap();
        let pushdown =
            estimate_refresh_cost(&view, Strategy::SelectPushdownUpdate, &s, &p, 100.0).unwrap();
        assert!(combined < pushdown);
    }

    /// The paper's view (1) at harness scale 1: `GPIVOT(π lineitem) ⋈
    /// orders ⋈ customer`.
    #[test]
    fn indexed_delta_joins_move_the_view1_crossover_later() {
        let mut p = BTreeMap::new();
        let table = |cols: &[(&str, DataType)], key: &[&str]| -> SchemaRef {
            Arc::new(Schema::from_pairs_keyed(cols, key).unwrap())
        };
        p.insert(
            "lineitem".to_string(),
            table(
                &[
                    ("l_orderkey", DataType::Int),
                    ("l_linenumber", DataType::Int),
                    ("l_extendedprice", DataType::Float),
                ],
                &["l_orderkey", "l_linenumber"],
            ),
        );
        p.insert(
            "orders".to_string(),
            table(
                &[("o_orderkey", DataType::Int), ("o_custkey", DataType::Int)],
                &["o_orderkey"],
            ),
        );
        p.insert(
            "customer".to_string(),
            table(&[("c_custkey", DataType::Int)], &["c_custkey"]),
        );
        let s = CatalogStats::default()
            .with_table("lineitem", 60_000.0)
            .with_table("orders", 15_000.0)
            .with_table("customer", 1_500.0);
        let view1 = Plan::scan("lineitem")
            .gpivot(PivotSpec::simple(
                "l_linenumber",
                "l_extendedprice",
                vec![Value::Int(1), Value::Int(2), Value::Int(3)],
            ))
            .join(Plan::scan("orders"), vec![("l_orderkey", "o_orderkey")])
            .join(Plan::scan("customer"), vec![("o_custkey", "c_custkey")]);

        let cost =
            |strategy, delta| estimate_refresh_cost(&view1, strategy, &s, &p, delta).unwrap();
        // Bisect for the delta size at which PivotUpdate stops winning.
        let (mut lo, mut hi) = (1.0_f64, 1e7_f64);
        assert!(cost(Strategy::PivotUpdate, lo) < cost(Strategy::Recompute, lo));
        assert!(cost(Strategy::PivotUpdate, hi) > cost(Strategy::Recompute, hi));
        while hi - lo > 1.0 {
            let mid = (lo + hi) / 2.0;
            if cost(Strategy::PivotUpdate, mid) < cost(Strategy::Recompute, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // When each join term was charged a pass over its partner side
        // (orders: 15 000, customer: 1 500 — what propagation cost before
        // it probed indexes) the same bisection gave 49 125 rows, 82 % of
        // lineitem: `4δ + 16 500 = 213 000`. Now `4δ = 213 000`.
        let before = 49_125.0;
        assert!(
            lo > before,
            "crossover {lo} rows did not move past the full-scan model's {before}"
        );
        // And with no fixed cost left, any small delta is worth
        // maintaining incrementally.
        assert!(cost(Strategy::PivotUpdate, 1.0) < 10.0);
    }

    #[test]
    fn crossover_exists_as_delta_grows() {
        // The qualitative claim every figure shows: incremental converges
        // toward recomputation as the delta grows.
        let p = provider();
        let s = stats();
        let view = pivot_view();
        let gap = |delta: f64| {
            let upd = estimate_refresh_cost(&view, Strategy::PivotUpdate, &s, &p, delta).unwrap();
            let rec = estimate_refresh_cost(&view, Strategy::Recompute, &s, &p, delta).unwrap();
            rec / upd
        };
        assert!(gap(100.0) > gap(10_000.0));
        assert!(gap(10_000.0) > gap(100_000.0));
    }
}
