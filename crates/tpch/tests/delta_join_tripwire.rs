//! Full-scan tripwire: maintaining the paper's three views against a
//! handful of changed rows must cost a handful of rows.
//!
//! The propagate phase fetches pre-state rows by hash-index probe
//! (`PropagationCtx::eval_pre_matching`), so `rows_propagated` — every
//! operator-output row the phase evaluated — scales with the delta and its
//! join fan-out, not with the base tables. Should a later change make any
//! rule fall back to evaluating a subplan in full (the evaluator's
//! degenerate arm is always correct, so no oracle test would notice), the
//! count jumps by orders of magnitude and this test fails.

use gpivot_core::maintain::{SourceDeltas, ViewManager};
use gpivot_storage::{Row, Value};
use gpivot_tpch::views::VIEW2_THRESHOLD;
use gpivot_tpch::{generate, view1, view2, view3, TpchConfig};

/// Operator-output rows allowed per changed `lineitem` / `orders` row:
/// join fan-out (≤ 7 lineitems per order) times the few operators a probe
/// passes through. Measured: ≤ 12.
const ROWS_PER_DELTA_ROW: usize = 64;

/// The same for a changed `customer` row, whose fan-out is ~10 orders ×
/// their lineitems — fetched once by the propagate phase and, under view2,
/// once more by Fig. 29's candidate recompute. Measured: ≤ 110, against
/// ≥ 2 000 rows for any fallback scan that touches `lineitem`.
const ROWS_PER_CUSTOMER_ROW: usize = 128;

fn with_column(row: &Row, col: usize, value: Value) -> Row {
    let mut v = row.to_vec();
    v[col] = value;
    Row::new(v)
}

#[test]
fn small_deltas_never_scan_the_base_tables() {
    let catalog = generate(&TpchConfig::scale(0.05));
    let lineitem = catalog.table("lineitem").unwrap().rows().to_vec();
    let orders = catalog.table("orders").unwrap().rows().to_vec();
    let customer = catalog.table("customer").unwrap().rows().to_vec();
    assert!(lineitem.len() > 2_000, "scale too small to tell a scan");

    // One ≤ 5-row batch per base table.
    let mut on_lineitem = SourceDeltas::new();
    on_lineitem.delete_rows("lineitem", vec![lineitem[0].clone(), lineitem[40].clone()]);
    on_lineitem.update_row(
        "lineitem",
        lineitem[90].clone(),
        with_column(&lineitem[90], 4, Value::Float(99_999.0)),
    );
    let mut on_orders = SourceDeltas::new();
    for o in [&orders[3], &orders[77]] {
        // Re-date into another pivoted year: view3 rows change columns.
        let year = o[3].as_i64().unwrap();
        let moved = if year == 1995 { 1996 } else { 1995 };
        on_orders.update_row("orders", o.clone(), with_column(o, 3, Value::Int(moved)));
    }
    let mut on_customer = SourceDeltas::new();
    for c in [&customer[1], &customer[20]] {
        // Move nations: view3's grouping key.
        let nation = (c[2].as_i64().unwrap() + 1) % 25;
        on_customer.update_row("customer", c.clone(), with_column(c, 2, Value::Int(nation)));
    }

    let mut vm = ViewManager::new(catalog);
    vm.register_view("view1", view1()).unwrap();
    vm.register_view("view2", view2(VIEW2_THRESHOLD)).unwrap();
    vm.register_view("view3", view3()).unwrap();

    for (table, deltas, per_row) in [
        ("lineitem", on_lineitem, ROWS_PER_DELTA_ROW),
        ("orders", on_orders, ROWS_PER_DELTA_ROW),
        ("customer", on_customer, ROWS_PER_CUSTOMER_ROW),
    ] {
        let delta_rows = deltas.total_changes() as usize;
        assert!((1..=5).contains(&delta_rows));
        // Each view planned by its own strategy (view2 by Fig. 29, not
        // derived from view1), then committed with the base deltas.
        let mut epoch = vm.plan_commit(&deltas).unwrap();
        for view in ["view1", "view2", "view3"] {
            let refresh = vm.plan_member(view, &deltas, None).unwrap();
            let outcome = refresh.outcome();
            assert!(
                outcome.rows_propagated <= per_row * delta_rows,
                "{view}: a {delta_rows}-row delta on {table} propagated {} rows \
                 (> {per_row}/row) — a delta join fell back to a full scan",
                outcome.rows_propagated
            );
            epoch.add_view(view, refresh);
        }
        vm.commit_epoch(epoch).unwrap();
        for view in ["view1", "view2", "view3"] {
            assert!(
                vm.verify_view(view).unwrap(),
                "{view} diverged after {table}"
            );
        }
    }
}
