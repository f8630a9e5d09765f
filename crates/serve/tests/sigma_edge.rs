//! σ-edges under the service oracle: view (2) is `σ(view (1))` after
//! normalization, so an epoch plans it from view (1)'s patch by re-testing
//! σ instead of running Fig. 29. Every test here checks the derived view
//! against a service that holds view (2) alone (Fig. 29 on its own), or
//! against recomputation on a mirror catalog, after every epoch.

use gpivot_algebra::Plan;
use gpivot_core::SourceDeltas;
use gpivot_exec::Executor;
use gpivot_serve::{IngestOptions, MetricsSnapshot, ServeConfig, ViewHealth, ViewService};
use gpivot_storage::{Catalog, FaultInjector, FaultSite, Row, Value};
use gpivot_tpch::gen::{generate, TpchConfig};
use gpivot_tpch::views::{view1, view2, VIEW2_THRESHOLD};
use gpivot_tpch::workload;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn small_catalog() -> Catalog {
    generate(&TpchConfig {
        empty_order_fraction: 0.25,
        ..TpchConfig::scale(0.02)
    })
}

fn definition(view: &str) -> Plan {
    match view {
        "view1" => view1(),
        "view2" => view2(VIEW2_THRESHOLD),
        _ => unreachable!("{view}"),
    }
}

fn config() -> ServeConfig {
    ServeConfig::builder().workers(2).build().unwrap()
}

/// Re-price `fraction` of `lineitem` (delete + insert of the same key) to
/// prices on both sides of view (2)'s threshold, so rows enter and leave it.
fn reprice(mirror: &Catalog, fraction: f64, seed: u64) -> SourceDeltas {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = workload::delete_fraction(mirror, "lineitem", fraction, seed);
    let deleted = batch.delta("lineitem").into_iter().flat_map(|d| d.iter());
    let repriced: Vec<Row> = deleted
        .map(|(old, _)| {
            let mut new = old.to_vec();
            new[4] = Value::Float(rng.gen_range(1_000..60_000) as f64);
            Row::new(new)
        })
        .collect();
    batch.insert_rows("lineitem", repriced);
    batch
}

/// One epoch's producer batches, each generated against the mirror and
/// applied to it before the next is generated. Together they insert,
/// delete and update `lineitem`, update and delete `orders`, and update
/// and delete `customer`.
fn epoch_batches(mirror: &mut Catalog, epoch: u64) -> Vec<SourceDeltas> {
    let seed = 100 * epoch;
    let generators: [&dyn Fn(&Catalog) -> SourceDeltas; 6] = [
        &|c| workload::mixed_batch(c, 0.02, seed),
        &|c| reprice(c, 0.03, seed + 1),
        &|c| workload::order_churn(c, 0.01, seed + 2),
        &|c| workload::customer_churn(c, 0.02, seed + 3),
        &|c| workload::delete_fraction(c, "orders", 0.005, seed + 4),
        &|c| workload::delete_fraction(c, "customer", 0.005, seed + 5),
    ];
    generators
        .iter()
        .map(|generate| {
            let batch = generate(mirror);
            for (table, delta) in batch.iter() {
                mirror.apply_delta(table, delta).unwrap();
            }
            batch
        })
        .collect()
}

fn feed(services: &[&ViewService], batches: &[SourceDeltas]) {
    for batch in batches {
        for (table, delta) in batch.iter() {
            for svc in services {
                svc.ingest_with(table, delta.clone(), IngestOptions::blocking())
                    .unwrap();
            }
        }
    }
}

/// Each named view equals its definition recomputed on the mirror.
fn assert_oracle(svc: &ViewService, mirror: &Catalog, views: &[&str]) {
    let snap = svc.snapshot();
    for &view in views {
        let expected = Executor::new().run(&definition(view), mirror).unwrap();
        assert!(
            snap.query_view(view).unwrap().bag_eq(&expected),
            "{view} diverged from recomputation at epoch {}",
            snap.epoch()
        );
    }
}

fn assert_same_view2(with_parent: &ViewService, alone: &ViewService) {
    let got = with_parent.query_view("view2").unwrap();
    assert!(
        got.bag_eq(&alone.query_view("view2").unwrap()),
        "view (2) beside view (1) differs from view (2) alone at epoch {}",
        with_parent.epoch()
    );
}

/// How many spans named `phase` the service recorded.
fn spans(m: &MetricsSnapshot, phase: &str) -> u64 {
    m.phase_timings.get(phase).map_or(0, |h| h.count())
}

#[test]
fn view2_beside_view1_equals_view2_alone_after_every_epoch() {
    let base = small_catalog();
    let mut mirror = base.clone();
    let pair = ViewService::new(base.clone(), config());
    pair.register_view("view1", view1()).unwrap();
    pair.register_view("view2", definition("view2")).unwrap();
    let alone = ViewService::new(base, config());
    alone.register_view("view2", definition("view2")).unwrap();
    assert_eq!(
        pair.snapshot().manager().sigma_parent("view2"),
        Some("view1")
    );

    let epochs = 4;
    for epoch in 1..=epochs {
        feed(&[&pair, &alone], &epoch_batches(&mut mirror, epoch));
        pair.refresh_epoch().unwrap();
        alone.refresh_epoch().unwrap();
        assert_same_view2(&pair, &alone);
        assert_oracle(&pair, &mirror, &["view1", "view2"]);
        assert_oracle(&alone, &mirror, &["view2"]);
    }

    // The pair's view (2) derived every epoch: nothing propagated, no
    // candidate recomputed, rows still applied.
    let m = pair.metrics();
    assert_eq!(spans(&m, "maintain.derive"), epochs);
    assert_eq!(spans(&m, "maintain.candidates"), 0);
    let v2 = &m.per_view["view2"];
    assert_eq!((v2.refreshes, v2.rows_propagated), (epochs, 0));
    assert!(v2.rows_applied > 0 && v2.delta_rows > 0);
    let m = alone.metrics();
    assert_eq!(spans(&m, "maintain.derive"), 0);
    assert!(m.per_view["view2"].rows_propagated > 0);
}

#[test]
fn registration_order_and_reregistering_the_parent_do_not_matter() {
    let base = small_catalog();
    let mut mirror = base.clone();
    let svc = ViewService::new(base.clone(), config());
    svc.register_view("view2", definition("view2")).unwrap();
    svc.register_view("view1", view1()).unwrap();
    let alone = ViewService::new(base, config());
    alone.register_view("view2", definition("view2")).unwrap();
    let derived = || spans(&svc.metrics(), "maintain.derive");

    let mut epoch = 0;
    let mut step = |svc: &ViewService, mirror: &mut Catalog| {
        epoch += 1;
        feed(&[svc, &alone], &epoch_batches(mirror, epoch));
        svc.refresh_epoch().unwrap();
        alone.refresh_epoch().unwrap();
        assert_same_view2(svc, &alone);
        assert_oracle(&alone, mirror, &["view2"]);
    };
    step(&svc, &mut mirror);
    assert_eq!(derived(), 1);

    // Without its parent, view (2) plans by Fig. 29.
    svc.drop_view("view1").unwrap();
    assert_eq!(svc.snapshot().manager().sigma_parent("view2"), None);
    step(&svc, &mut mirror);
    assert_eq!(derived(), 1);

    // A re-registered parent is current, so the edge is back at once.
    svc.register_view("view1", view1()).unwrap();
    step(&svc, &mut mirror);
    step(&svc, &mut mirror);
    assert_eq!(derived(), 3);
    assert_oracle(&svc, &mirror, &["view1", "view2"]);
}

#[test]
fn a_quarantined_parent_leaves_its_child_on_fig29_until_retried() {
    let injector =
        FaultInjector::seeded(7).with_targeted_site(FaultSite::Propagate, 1.0, 0.0, "view1");
    injector.disarm();
    let mut base = small_catalog();
    let mut mirror = base.clone();
    base.set_fault_injector(injector.clone());
    let cfg = ServeConfig::builder()
        .workers(2)
        .max_retries(0)
        .quarantine_after(1)
        .build()
        .unwrap();
    let svc = ViewService::new(base, cfg);
    svc.register_view("view1", view1()).unwrap();
    svc.register_view("view2", definition("view2")).unwrap();
    injector.arm();

    // The parent's failure rolls the epoch back and quarantines it.
    feed(&[&svc], &epoch_batches(&mut mirror, 1));
    assert!(svc.refresh_epoch().is_err());
    assert!(svc.view_health("view1").unwrap().is_quarantined());
    assert_eq!(svc.view_health("view2").unwrap(), ViewHealth::Healthy);

    // The child now plans alone, by Fig. 29, and stays equal.
    for epoch in 2..=3 {
        svc.refresh_epoch().unwrap();
        assert_oracle(&svc, &mirror, &["view2"]);
        feed(&[&svc], &epoch_batches(&mut mirror, epoch));
    }
    svc.refresh_epoch().unwrap();
    assert_oracle(&svc, &mirror, &["view2"]);
    let m = svc.metrics();
    assert_eq!(spans(&m, "maintain.derive"), 0);
    assert!(m.per_view["view2"].rows_propagated > 0);

    // Re-admitted, the parent is recomputed from the current base tables,
    // so the next epoch derives the child from it again.
    injector.disarm();
    svc.retry_view("view1").unwrap();
    feed(&[&svc], &epoch_batches(&mut mirror, 4));
    svc.refresh_epoch().unwrap();
    assert_eq!(spans(&svc.metrics(), "maintain.derive"), 1);
    assert_oracle(&svc, &mirror, &["view1", "view2"]);
    assert!(svc.verify_all().unwrap());
}

#[test]
fn a_fault_at_the_childs_propagate_site_fails_the_epoch_whole() {
    let injector =
        FaultInjector::seeded(9).with_targeted_site(FaultSite::Propagate, 1.0, 0.0, "view2");
    injector.disarm();
    let mut base = small_catalog();
    let mut mirror = base.clone();
    base.set_fault_injector(injector.clone());
    let cfg = ServeConfig::builder()
        .workers(2)
        .max_retries(1)
        .quarantine_after(3)
        .build()
        .unwrap();
    let svc = ViewService::new(base, cfg);
    svc.register_view("view1", view1()).unwrap();
    svc.register_view("view2", definition("view2")).unwrap();
    let before = |view: &str| svc.query_view(view).unwrap();
    let (view1_before, view2_before) = (before("view1"), before("view2"));
    let lineitem_before = svc
        .snapshot()
        .manager()
        .catalog()
        .table("lineitem")
        .unwrap()
        .clone();

    injector.arm();
    feed(&[&svc], &epoch_batches(&mut mirror, 1));
    let pending = svc.pending_rows();
    assert!(svc.refresh_epoch().is_err());

    // Nothing committed: same epoch, views, base table and queue.
    assert_eq!(svc.epoch(), 0);
    assert_eq!(svc.pending_rows(), pending);
    assert!(svc.query_view("view1").unwrap().bag_eq(&view1_before));
    assert!(svc.query_view("view2").unwrap().bag_eq(&view2_before));
    let snap = svc.snapshot();
    let lineitem = snap.manager().catalog().table("lineitem").unwrap();
    assert!(lineitem.bag_eq(&lineitem_before));
    drop(snap);
    let m = svc.metrics();
    assert_eq!(m.epochs_failed, 1);
    assert_eq!(m.per_view["view2"].failures, 1);
    assert_eq!(m.per_view["view1"].failures, 0);
    assert_eq!(m.per_view["view2"].retries, 1);

    // The fault fired before any derivation work began. Cease fire: the
    // same batch commits and both views converge.
    assert_eq!(spans(&m, "maintain.derive"), 0);
    injector.disarm();
    svc.refresh_epoch().unwrap();
    assert_eq!(spans(&svc.metrics(), "maintain.derive"), 1);
    assert_oracle(&svc, &mirror, &["view1", "view2"]);
}

#[test]
fn a_durable_service_with_both_views_reopens_to_the_same_tables() {
    fn parse(sql: &str) -> std::result::Result<Plan, String> {
        gpivot_sql::parse_query(sql).map_err(|e| e.to_string())
    }
    let dir = std::env::temp_dir().join(format!("gpivot-sigma-edge-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base = small_catalog();
    let mut mirror = base.clone();
    let tables = |svc: &ViewService| ["view1", "view2"].map(|v| svc.query_view(v).unwrap());
    let held = {
        let (svc, _) = ViewService::open(&dir, base.clone(), config(), &parse).unwrap();
        svc.register_view("view1", view1()).unwrap();
        svc.register_view("view2", definition("view2")).unwrap();
        for epoch in 1..=3 {
            feed(&[&svc], &epoch_batches(&mut mirror, epoch));
            svc.refresh_epoch().unwrap();
            if epoch == 1 {
                svc.checkpoint().unwrap();
            }
        }
        assert_eq!(spans(&svc.metrics(), "maintain.derive"), 3);
        tables(&svc)
    };

    // Recovery replays epochs 2 and 3 from the log, deriving again.
    let (svc, report) = ViewService::open(&dir, base, config(), &parse).unwrap();
    assert_eq!(report.replayed_epochs, 2);
    for (got, want) in tables(&svc).iter().zip(&held) {
        assert!(got.bag_eq(want), "recovery changed a view");
    }
    assert_oracle(&svc, &mirror, &["view1", "view2"]);
    feed(&[&svc], &epoch_batches(&mut mirror, 4));
    svc.refresh_epoch().unwrap();
    assert_oracle(&svc, &mirror, &["view1", "view2"]);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}
