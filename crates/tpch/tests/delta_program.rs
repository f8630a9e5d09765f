//! The paper views' delta programs own their access paths and refuse a
//! catalog they were not compiled against.
//!
//! Registration compiles each view's delta program and builds the index
//! behind every probe it declares, so an epoch never builds one. A
//! program's column positions are resolved against the schemas its base
//! tables had at registration; a table replaced under it with another
//! schema must fail the refresh with a typed error, not read the wrong
//! columns.

use gpivot_core::maintain::{SourceDeltas, ViewManager};
use gpivot_core::CoreError;
use gpivot_storage::{DataType, Field, Row, Schema, Table, Value};
use gpivot_tpch::views::VIEW2_THRESHOLD;
use gpivot_tpch::{generate, view1, view2, view3, workload, TpchConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

const TABLES: [&str; 3] = ["lineitem", "orders", "customer"];

fn registered() -> ViewManager {
    let mut vm = ViewManager::new(generate(&TpchConfig::scale(0.02)));
    vm.register_view("view1", view1()).unwrap();
    vm.register_view("view2", view2(VIEW2_THRESHOLD)).unwrap();
    vm.register_view("view3", view3()).unwrap();
    vm
}

/// Every base table's secondary indexes, by table.
fn built(vm: &ViewManager) -> BTreeMap<&'static str, Vec<Vec<usize>>> {
    TABLES
        .into_iter()
        .map(|t| (t, vm.catalog().table(t).unwrap().indexed_columns()))
        .collect()
}

/// A batch touching all three tables.
fn batch(vm: &ViewManager, seed: u64) -> SourceDeltas {
    let c = vm.catalog();
    let mut d = workload::mixed_batch(c, 0.02, seed);
    for extra in [
        workload::order_churn(c, 0.01, seed + 1),
        workload::customer_churn(c, 0.02, seed + 2),
    ] {
        for (table, delta) in extra.iter() {
            d.add_delta(table, delta.clone());
        }
    }
    d
}

#[test]
fn registration_builds_every_declared_index_and_an_epoch_builds_none() {
    let mut vm = registered();
    let after_registration = built(&vm);
    for view in ["view1", "view2", "view3"] {
        let plan = vm.maintenance_plan(view).unwrap();
        assert!(!plan.access_paths.is_empty(), "{view} declares no probe");
        for (table, cols) in &plan.access_paths {
            let t = vm.catalog().table(table).unwrap();
            let schema = t.schema();
            let cols: Vec<usize> = cols.iter().map(|c| schema.index_of(c).unwrap()).collect();
            let by_key = schema.key() == Some(&cols[..]);
            assert!(
                by_key || after_registration[table.as_str()].contains(&cols),
                "{view}: {table}{cols:?} is declared but not built"
            );
        }
    }
    // The views reach lineitem by order and orders by customer.
    assert!(!after_registration["lineitem"].is_empty());
    assert!(!after_registration["orders"].is_empty());

    let deltas = batch(&vm, 11);
    assert!(TABLES
        .iter()
        .all(|t| deltas.delta(t).is_some_and(|d| !d.is_empty())));
    let epoch = vm.plan_epoch(&deltas).unwrap();
    assert_eq!(epoch.views().count(), 3);
    vm.commit_epoch(epoch).unwrap();
    assert_eq!(built(&vm), after_registration, "an epoch built an index");
    for view in ["view1", "view2", "view3"] {
        assert!(vm.verify_view(view).unwrap(), "{view} diverged");
    }
}

#[test]
fn a_wider_orders_schema_fails_the_refresh_with_a_typed_error() {
    let mut vm = registered();
    let deltas = workload::mixed_batch(vm.catalog(), 0.02, 5);
    let orders = vm.catalog().table("orders").unwrap().clone();
    // One column more, in front: every compiled position of `orders`
    // would now read its left neighbour.
    let mut fields = vec![Field::new("o_note", DataType::Str)];
    fields.extend(orders.schema().fields().iter().cloned());
    let key: Vec<&str> = orders.schema().key_names().unwrap();
    let wider = Arc::new(Schema::with_key(fields, &key).unwrap());
    let rows = orders.iter().map(|r| {
        let mut v = vec![Value::str("")];
        v.extend(r.iter().cloned());
        Row::new(v)
    });
    let wider = Table::from_rows(wider, rows.collect()).unwrap();
    vm.catalog_mut().replace("orders", wider);

    for view in ["view1", "view2", "view3"] {
        let refused = vm.plan_member(view, &deltas, None);
        assert!(
            matches!(&refused, Err(CoreError::SchemaChanged { table }) if table == "orders"),
            "{view}: {refused:?}"
        );
    }
    assert!(matches!(
        vm.plan_epoch(&deltas),
        Err(CoreError::SchemaChanged { .. })
    ));
}
