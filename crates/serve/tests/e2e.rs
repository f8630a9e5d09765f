//! End-to-end service test: the paper's three TPC-H evaluation views
//! registered in one service, fed interleaved insert/delete batches over
//! several epochs, and oracle-checked against full recomputation on an
//! independently-maintained mirror catalog.

use gpivot_core::SourceDeltas;
use gpivot_exec::Executor;
use gpivot_serve::{IngestOptions, ServeConfig, ViewService};
use gpivot_storage::Catalog;
use gpivot_tpch::gen::{generate, TpchConfig};
use gpivot_tpch::views::{view1, view2, view3};
use gpivot_tpch::workload;

fn small_catalog() -> Catalog {
    generate(&TpchConfig {
        empty_order_fraction: 0.25,
        ..TpchConfig::scale(0.02)
    })
}

/// Feed every per-table delta of a workload batch to the service as its own
/// producer batch, and mirror it onto the oracle catalog.
fn ingest_and_mirror(svc: &ViewService, mirror: &mut Catalog, batch: &SourceDeltas) {
    for table in batch.tables() {
        let delta = batch.delta(table).unwrap();
        svc.ingest_with(table, delta.clone(), IngestOptions::blocking())
            .unwrap();
        mirror.apply_delta(table, delta).unwrap();
    }
}

/// Every registered view must equal its definition recomputed from scratch
/// on the mirror catalog (the `oracle.rs` approach, service-level).
fn assert_oracle(svc: &ViewService, mirror: &Catalog) {
    let snap = svc.snapshot();
    for (name, plan) in [
        ("view1", view1()),
        ("view2", view2(30_000.0)),
        ("view3", view3()),
    ] {
        let got = snap.query_view(name).unwrap();
        let expected = Executor::new().run(&plan, mirror).unwrap();
        assert!(
            got.bag_eq(&expected),
            "view {name} diverged from recomputation at epoch {}:\n got {} rows, want {}",
            snap.epoch(),
            got.len(),
            expected.len(),
        );
    }
    drop(snap);
    // And the service's own self-check agrees.
    assert!(svc.verify_all().unwrap());
}

#[test]
fn three_views_interleaved_batches_over_epochs() {
    let catalog = small_catalog();
    let mut mirror = catalog.clone();
    let cfg = ServeConfig::builder().workers(4).build().unwrap();
    let svc = ViewService::new(catalog, cfg);

    svc.register_view("view1", view1()).unwrap();
    svc.register_view("view2", view2(30_000.0)).unwrap();
    svc.register_view("view3", view3()).unwrap();
    assert_eq!(svc.view_names().len(), 3);
    assert_oracle(&svc, &mirror); // initial materialization

    // Epoch 1: mixed insert/update/delete lineitem batch plus order churn —
    // interleaved inserts and deletes across two base tables.
    let mut sent_rows = 0;
    let b1 = workload::mixed_batch(&mirror, 0.02, 11);
    let b2 = workload::order_churn(&mirror, 0.01, 12);
    for b in [&b1, &b2] {
        sent_rows += b.total_changes();
        ingest_and_mirror(&svc, &mut mirror, b);
    }
    let s1 = svc.refresh_epoch().unwrap();
    assert_eq!(s1.epoch, 1);
    assert_eq!(svc.epoch(), 1);
    assert!(
        s1.views_refreshed >= 2,
        "lineitem+orders touch at least v1/v2/v3"
    );
    assert_oracle(&svc, &mirror);

    // Epoch 2: pure deletes plus customer churn (delete+insert pairs).
    let b3 = workload::delete_fraction(&mirror, "lineitem", 0.01, 13);
    let b4 = workload::customer_churn(&mirror, 0.02, 14);
    for b in [&b3, &b4] {
        sent_rows += b.total_changes();
        ingest_and_mirror(&svc, &mut mirror, b);
    }
    let s2 = svc.refresh_epoch().unwrap();
    assert_eq!(s2.epoch, 2);
    assert_oracle(&svc, &mirror);

    // Epoch 3: inserts of brand-new orders/lineitems.
    let b5 = workload::insert_new_rows(&mirror, 0.02, 15);
    sent_rows += b5.total_changes();
    ingest_and_mirror(&svc, &mut mirror, &b5);
    let s3 = svc.refresh_epoch().unwrap();
    assert_eq!(s3.epoch, 3);
    assert_oracle(&svc, &mirror);

    // Metrics reconcile with what was actually sent.
    let m = svc.metrics();
    assert_eq!(m.rows_ingested, sent_rows);
    assert_eq!(m.rows_drained_raw, sent_rows);
    assert_eq!(m.pending_rows, 0);
    assert_eq!(m.epochs, 3);
    assert_eq!(m.epochs_failed, 0);
    assert!(m.coalescing_ratio().unwrap() <= 1.0);
    assert!(m.per_view["view1"].refreshes >= 1);
    assert!(m.per_view["view3"].rows_applied > 0);
    assert!(m.report().contains("view view2"));
}

/// Beside view (1), view (2) derives from view (1)'s patch (a σ-edge), so
/// the three-view service above never runs the paper's Fig. 29 rule. Held
/// alone, it does: its candidate keys are recomputed from the post-state
/// core, under the same oracle every epoch.
#[test]
fn view2_alone_runs_fig29_under_the_oracle() {
    let catalog = small_catalog();
    let mut mirror = catalog.clone();
    let svc = ViewService::new(catalog, ServeConfig::default());
    svc.register_view("view2", view2(30_000.0)).unwrap();
    assert_eq!(svc.snapshot().manager().sigma_parent("view2"), None);
    let check = |mirror: &Catalog| {
        let expected = Executor::new().run(&view2(30_000.0), mirror).unwrap();
        assert!(svc.query_view("view2").unwrap().bag_eq(&expected));
        assert!(svc.verify_all().unwrap());
    };
    check(&mirror);

    for epoch in 1..=3 {
        let batches = match epoch {
            1 => vec![
                workload::mixed_batch(&mirror, 0.02, 11),
                workload::order_churn(&mirror, 0.01, 12),
            ],
            2 => vec![
                workload::delete_fraction(&mirror, "lineitem", 0.01, 13),
                workload::customer_churn(&mirror, 0.02, 14),
            ],
            _ => vec![workload::insert_new_rows(&mirror, 0.02, 15)],
        };
        for batch in &batches {
            ingest_and_mirror(&svc, &mut mirror, batch);
        }
        svc.refresh_epoch().unwrap();
        check(&mirror);
    }
    let phases = svc.metrics().phase_timings;
    let count = |phase: &str| phases.get(phase).map_or(0, |h| h.count());
    assert!(
        count("maintain.candidates") > 0,
        "Fig. 29 recomputed no candidate"
    );
    assert_eq!(count("maintain.derive"), 0);
}

#[test]
fn worker_pool_sizes_agree() {
    // The same batch refreshed with 1 worker and with 8 workers must yield
    // identical view contents (parallelism is invisible).
    let catalog = small_catalog();
    let batch = workload::mixed_batch(&catalog, 0.02, 21);

    let mut tables = Vec::new();
    for workers in [1usize, 8] {
        let svc = ViewService::new(
            catalog.clone(),
            ServeConfig::builder().workers(workers).build().unwrap(),
        );
        svc.register_view("view1", view1()).unwrap();
        svc.register_view("view2", view2(30_000.0)).unwrap();
        svc.register_view("view3", view3()).unwrap();
        for t in batch.tables() {
            svc.ingest_with(
                t,
                batch.delta(t).unwrap().clone(),
                IngestOptions::blocking(),
            )
            .unwrap();
        }
        svc.refresh_epoch().unwrap();
        tables.push(["view1", "view2", "view3"].map(|v| svc.query_view(v).unwrap()));
    }
    for (a, b) in tables[0].iter().zip(&tables[1]) {
        assert!(a.bag_eq(b), "worker-pool size changed view contents");
    }
}

#[test]
fn dropping_a_view_leaves_the_rest_consistent() {
    let catalog = small_catalog();
    let mut mirror = catalog.clone();
    let svc = ViewService::new(catalog, ServeConfig::default());
    svc.register_view("view1", view1()).unwrap();
    svc.register_view("view3", view3()).unwrap();

    svc.drop_view("view1").unwrap();
    let b = workload::mixed_batch(&mirror, 0.01, 31);
    for t in b.tables() {
        let d = b.delta(t).unwrap();
        svc.ingest_with(t, d.clone(), IngestOptions::blocking())
            .unwrap();
        mirror.apply_delta(t, d).unwrap();
    }
    svc.refresh_epoch().unwrap();

    assert!(svc.query_view("view1").is_err());
    let got = svc.query_view("view3").unwrap();
    let expected = Executor::new().run(&view3(), &mirror).unwrap();
    assert!(got.bag_eq(&expected));
}
