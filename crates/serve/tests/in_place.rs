//! The epoch commit writes in place: a small epoch touches the rows it
//! changes and copies no table — and readers never notice, because a
//! result handed out earlier shares its rows with the live table and the
//! first write detaches the table from it (copy-on-write).
//!
//! The first test is a tripwire: it fails if any change reintroduces a
//! per-epoch copy of a view or base table. The second pins the reader side.
//! The third is the same pair for the *projected* rows a view with a
//! reshaped output is read from: reads share them, the epoch patches them.

use gpivot_algebra::{Expr, Plan};
use gpivot_core::SourceDeltas;
use gpivot_exec::Executor;
use gpivot_serve::{IngestOptions, ServeConfig, ViewService};
use gpivot_storage::{Catalog, Row, Table, Value};
use gpivot_tpch::gen::{generate, TpchConfig};
use gpivot_tpch::views::{view1, view2, view3};
use std::collections::HashSet;
use std::sync::Arc;

const VIEWS: [&str; 3] = ["view1", "view2", "view3"];
const DIRTY: [&str; 2] = ["lineitem", "orders"];

fn service() -> (ViewService, Catalog) {
    let catalog = generate(&TpchConfig {
        empty_order_fraction: 0.25,
        ..TpchConfig::scale(0.02)
    });
    let mirror = catalog.clone();
    let svc = ViewService::new(catalog, ServeConfig::builder().workers(2).build().unwrap());
    svc.register_view("view1", view1()).unwrap();
    svc.register_view("view2", view2(30_000.0)).unwrap();
    svc.register_view("view3", view3()).unwrap();
    (svc, mirror)
}

/// Five row-changes over two tables, built from rows the tables hold: the
/// `n`-th lineitem (in key order) is deleted, the next one re-quantified,
/// and the `n`-th order re-priced.
fn small_batch(mirror: &Catalog, n: usize) -> SourceDeltas {
    let lines = mirror.table("lineitem").unwrap().sorted_rows();
    let orders = mirror.table("orders").unwrap().sorted_rows();
    let with = |row: &Row, col: usize, value: Value| {
        let mut cells = row.to_vec();
        cells[col] = value;
        Row::new(cells)
    };
    let mut batch = SourceDeltas::new();
    batch.delete_rows("lineitem", vec![lines[2 * n].clone()]);
    let line = &lines[2 * n + 1];
    batch.update_row("lineitem", line.clone(), with(line, 3, Value::Int(49)));
    let order = &orders[n];
    batch.update_row(
        "orders",
        order.clone(),
        with(order, 4, Value::Float(1.5 + n as f64)),
    );
    assert_eq!(batch.total_changes(), 5);
    batch
}

/// Ingest `batch`, mirror it, run the epoch; returns the epoch number.
fn run_epoch(svc: &ViewService, mirror: &mut Catalog, batch: &SourceDeltas) -> u64 {
    for (table, delta) in batch.iter() {
        svc.ingest_with(table, delta.clone(), IngestOptions::blocking())
            .unwrap();
        mirror.apply_delta(table, delta).unwrap();
    }
    let summary = svc.refresh_epoch().unwrap();
    assert!(summary.views_refreshed >= VIEWS.len());
    summary.epoch
}

/// Where each dirty base table's and each view's rows live right now. The
/// `Arc`s are dropped before returning, so no reader is outstanding.
fn row_allocations(svc: &ViewService) -> Vec<(String, *const Vec<Row>)> {
    let snap = svc.snapshot();
    let at = |t: &Table| Arc::as_ptr(&t.shared_rows());
    let mut out = Vec::new();
    for table in DIRTY {
        let t = snap.manager().catalog().table(table).unwrap();
        out.push((format!("table {table}"), at(t)));
    }
    for view in VIEWS {
        let v = snap.manager().view(view).unwrap();
        out.push((format!("view {view}"), at(v.table())));
    }
    out
}

fn assert_oracle(svc: &ViewService, mirror: &Catalog) {
    for (name, plan) in [
        ("view1", view1()),
        ("view2", view2(30_000.0)),
        ("view3", view3()),
    ] {
        let expected = Executor::new().run(&plan, mirror).unwrap();
        assert!(
            svc.query_view(name).unwrap().bag_eq(&expected),
            "{name} diverged"
        );
    }
    assert!(svc.verify_all().unwrap());
}

#[test]
fn a_small_epoch_commits_in_place_and_copies_no_table() {
    let (svc, mut mirror) = service();
    // One epoch to part ways with `mirror`, which was cloned from the
    // service's catalog and still shares its rows.
    let warm_up = small_batch(&mirror, 0);
    run_epoch(&svc, &mut mirror, &warm_up);

    let before = row_allocations(&svc);
    let batch = small_batch(&mirror, 1);
    run_epoch(&svc, &mut mirror, &batch);
    for ((what, then), (_, now)) in before.iter().zip(row_allocations(&svc)) {
        assert_eq!(
            *then, now,
            "{what}: a 5-row epoch moved its rows to a new allocation — \
             something copies the whole table per epoch again"
        );
    }
    assert_oracle(&svc, &mirror);
}

#[test]
fn readers_keep_their_snapshot_across_an_in_place_commit() {
    let (svc, mut mirror) = service();
    // A view whose user-facing shape is its table: `query_view` hands out
    // the live rows themselves, not a projection of them.
    let pricey = Plan::scan("orders").select(Expr::col("o_totalprice").gt(Expr::lit(0.0)));
    svc.register_view("pricey", pricey.clone()).unwrap();

    let held_view = svc.query_view("pricey").unwrap();
    let held_base = svc
        .snapshot()
        .manager()
        .catalog()
        .table("lineitem")
        .unwrap()
        .as_bag();
    let (view_rows, base_rows) = (held_view.rows().to_vec(), held_base.rows().to_vec());
    let live_rows = |svc: &ViewService| {
        let snap = svc.snapshot();
        let view = snap.manager().view("pricey").unwrap().table().shared_rows();
        let base = snap.manager().catalog().table("lineitem").unwrap();
        (view, base.shared_rows())
    };
    let (v, b) = live_rows(&svc);
    assert!(Arc::ptr_eq(&v, &held_view.shared_rows()) && Arc::ptr_eq(&b, &held_base.shared_rows()));
    drop((v, b));

    // The epoch commits although both results are still held...
    let batch = small_batch(&mirror, 0);
    assert_eq!(run_epoch(&svc, &mut mirror, &batch), 1);

    // ...they still read what they read, row for row...
    assert_eq!(held_view.rows(), &view_rows[..]);
    assert_eq!(held_base.rows(), &base_rows[..]);
    // ...because the writer moved off their rows instead of under them...
    let (v, b) = live_rows(&svc);
    assert!(!Arc::ptr_eq(&v, &held_view.shared_rows()));
    assert!(!Arc::ptr_eq(&b, &held_base.shared_rows()));
    drop((v, b));
    // ...and the next reader sees the new epoch.
    let expected = Executor::new().run(&pricey, &mirror).unwrap();
    let now = svc.query_view("pricey").unwrap();
    assert!(now.bag_eq(&expected));
    assert!(!now.bag_eq(&held_view));
    assert_oracle(&svc, &mirror);
}

/// How many handles share the projected rows a *copy* of the live manager
/// reads `view` from: the copy's own and this probe's — plus the live
/// view's, if it keeps any (a copy shares them until either side writes).
fn projected_row_holders(svc: &ViewService, view: &str) -> usize {
    let copy = svc.snapshot().manager().clone();
    let rows = copy.query_view(view).unwrap().shared_rows();
    Arc::strong_count(&rows)
}

#[test]
fn projecting_reads_share_rows_that_the_epoch_patches_in_place() {
    let (svc, mut mirror) = service();
    // Nothing is projected at registration or by an epoch nobody read before.
    let warm_up = small_batch(&mirror, 0);
    run_epoch(&svc, &mut mirror, &warm_up);
    for view in VIEWS {
        assert_eq!(
            projected_row_holders(&svc, view),
            2,
            "{view} was never read"
        );
    }

    // The first read projects; every read until the next epoch is that
    // same vector (and not the table's: all three paper views reshape).
    for view in VIEWS {
        let (a, b) = (svc.query_view(view).unwrap(), svc.query_view(view).unwrap());
        assert!(Arc::ptr_eq(&a.shared_rows(), &b.shared_rows()), "{view}");
        let snap = svc.snapshot();
        let table = snap.manager().view(view).unwrap().table();
        assert!(!Arc::ptr_eq(&a.shared_rows(), &table.shared_rows()));
        assert_eq!(a.len(), table.len());
        drop((snap, a, b));
        assert_eq!(projected_row_holders(&svc, view), 3, "{view} was read");
    }

    // No reader holds a result: a 5-row epoch writes into that vector, and
    // every row it does not name is the very same row afterwards.
    let read = |view: &str| {
        let t = svc.query_view(view).unwrap();
        let rows: HashSet<_> = t.iter().map(|r| r.values().as_ptr()).collect();
        (Arc::as_ptr(&t.shared_rows()), rows)
    };
    let before = VIEWS.map(read);
    let batch = small_batch(&mirror, 1);
    run_epoch(&svc, &mut mirror, &batch);
    for (view, (then, old_rows)) in VIEWS.iter().zip(before) {
        let (now, rows) = read(view);
        assert_eq!(then, now, "{view}: a 5-row epoch re-projected the view");
        let fresh = rows.difference(&old_rows).count();
        assert!(
            fresh as u64 <= batch.total_changes(),
            "{view}: {fresh} new rows"
        );
    }
    assert_oracle(&svc, &mirror);

    // A reader holding results across the commit keeps them row for row;
    // the writer moved off them, and the next read sees the new epoch.
    let held = VIEWS.map(|view| svc.query_view(view).unwrap());
    let held_rows = held.each_ref().map(|t| t.rows().to_vec());
    let batch = small_batch(&mirror, 2);
    run_epoch(&svc, &mut mirror, &batch);
    let mut moved = 0;
    for ((view, then), rows) in VIEWS.iter().zip(&held).zip(&held_rows) {
        assert_eq!(then.rows(), &rows[..], "{view}: a held result changed");
        let now = svc.query_view(view).unwrap();
        moved += usize::from(!Arc::ptr_eq(&now.shared_rows(), &then.shared_rows()));
    }
    assert!(moved > 0, "the epoch changed no view");
    assert_oracle(&svc, &mirror);
}
