//! Quarantine lifecycle: a view whose propagation always fails degrades,
//! gets quarantined, stops blocking epochs (others keep committing), and is
//! re-admitted by `retry_view` with its table recomputed to match the
//! oracle.

use gpivot_core::CoreError;
use gpivot_exec::Executor;
use gpivot_serve::{IngestOptions, ServeConfig, ViewHealth, ViewService};
use gpivot_storage::{
    row, Catalog, DataType, Delta, FaultInjector, FaultSite, Schema, Table, Value,
};
use std::sync::Arc;
use std::time::Duration;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let schema = Arc::new(
        Schema::from_pairs_keyed(
            &[
                ("id", DataType::Int),
                ("attr", DataType::Str),
                ("val", DataType::Int),
            ],
            &["id", "attr"],
        )
        .unwrap(),
    );
    c.register(
        "facts",
        Table::from_rows(
            schema,
            vec![row![1, "a", 10], row![1, "b", 20], row![2, "a", 30]],
        )
        .unwrap(),
    )
    .unwrap();
    c
}

fn pivot_plan() -> gpivot_algebra::Plan {
    gpivot_algebra::Plan::scan("facts").gpivot(gpivot_algebra::PivotSpec::simple(
        "attr",
        "val",
        vec![Value::str("a"), Value::str("b")],
    ))
}

#[test]
fn quarantine_lifecycle_and_readmission() {
    // Every propagate of `flaky` fails with an injected (transient) error;
    // `steady` and the base tables are never touched by the injector.
    let injector =
        FaultInjector::seeded(3).with_targeted_site(FaultSite::Propagate, 1.0, 0.0, "flaky");
    injector.disarm();
    let mut cat = catalog();
    let mut mirror = cat.clone();
    mirror.set_fault_injector(FaultInjector::disabled());
    cat.set_fault_injector(injector.clone());

    let svc = ViewService::new(
        cat,
        ServeConfig::builder()
            .workers(2)
            .max_retries(0) // one attempt per epoch: each failed epoch = one strike
            .quarantine_after(2)
            .build()
            .unwrap(),
    );
    svc.register_view("flaky", pivot_plan()).unwrap();
    svc.register_view("steady", pivot_plan()).unwrap();
    injector.arm();

    let ingest_row = |id: i64, mirror: &mut Catalog| {
        let d = Delta::from_inserts(vec![row![id, "a", id]]);
        svc.ingest_with("facts", d.clone(), IngestOptions::blocking())
            .unwrap();
        mirror.apply_delta("facts", &d).unwrap();
    };

    // Strike one: the epoch fails (flaky's error rolls everything back),
    // nothing commits, the batch is restored.
    ingest_row(10, &mut mirror);
    let rows_of = |view: &str| {
        let snap = svc.snapshot();
        snap.manager().view(view).unwrap().table().shared_rows()
    };
    let steady_before = rows_of("steady");
    let steady_rows = steady_before.to_vec();
    let err = svc.refresh_epoch().unwrap_err();
    assert!(matches!(
        err,
        CoreError::Storage(gpivot_storage::StorageError::FaultInjected { .. })
    ));
    assert_eq!(svc.epoch(), 0);
    assert_eq!(svc.pending_rows(), 1, "rolled-back delta must be re-queued");
    assert_eq!(
        svc.view_health("flaky").unwrap(),
        ViewHealth::Degraded {
            consecutive_failures: 1
        }
    );
    assert_eq!(svc.view_health("steady").unwrap(), ViewHealth::Healthy);
    // Steady's work was rolled back too: refresh effort is only charged on
    // committed epochs — and there was nothing to undo, its planned patch
    // was simply dropped: same rows, same allocation.
    assert_eq!(svc.metrics().per_view["steady"].refreshes, 0);
    assert!(Arc::ptr_eq(&steady_before, &rows_of("steady")));
    assert_eq!(*steady_before, steady_rows);
    drop(steady_before);

    // Strike two: quarantined.
    let err = svc.refresh_epoch().unwrap_err();
    assert!(err.is_transient());
    assert!(svc.view_health("flaky").unwrap().is_quarantined());
    let m = svc.metrics();
    assert_eq!(m.epochs_failed, 2);
    assert_eq!(m.per_view["flaky"].failures, 2);
    assert_eq!(m.quarantined_views(), vec!["flaky"]);

    // With flaky out of the way, epochs commit again — the quarantined
    // view no longer blocks anyone.
    let s = svc.refresh_epoch().unwrap();
    assert_eq!(s.epoch, 1);
    assert_eq!(s.views_refreshed, 1);
    assert_eq!(s.quarantined_skipped, 1);
    assert_eq!(svc.pending_rows(), 0);

    ingest_row(11, &mut mirror);
    let s = svc.refresh_epoch().unwrap();
    assert_eq!(s.epoch, 2);
    assert_eq!(s.quarantined_skipped, 1);

    // Steady matches the oracle; flaky is stale (still the initial
    // materialization) and `verify_all` knowingly skips it.
    let oracle = Executor::new().run(&pivot_plan(), &mirror).unwrap();
    assert!(svc.query_view("steady").unwrap().bag_eq(&oracle));
    assert!(!svc.query_view("flaky").unwrap().bag_eq(&oracle));
    assert!(svc.verify_all().unwrap());

    // Re-admission: recomputes flaky from the current base tables (its
    // plan execution hits only Scan sites, which aren't configured) and
    // resets its health, so the next epoch schedules it again.
    svc.retry_view("flaky").unwrap();
    assert_eq!(svc.view_health("flaky").unwrap(), ViewHealth::Healthy);
    assert!(svc.query_view("flaky").unwrap().bag_eq(&oracle));
    assert!(svc.verify_all().unwrap());

    // The injector still targets flaky, so the next refresh strikes again —
    // back to Degraded(1), proving re-admission fully reset the counter.
    ingest_row(12, &mut mirror);
    assert!(svc.refresh_epoch().is_err());
    assert_eq!(
        svc.view_health("flaky").unwrap(),
        ViewHealth::Degraded {
            consecutive_failures: 1
        }
    );

    // Cease fire: the epoch commits with both views, everything converges.
    injector.disarm();
    let s = svc.refresh_epoch().unwrap();
    assert_eq!(s.views_refreshed, 2);
    assert_eq!(s.quarantined_skipped, 0);
    assert_eq!(svc.view_health("flaky").unwrap(), ViewHealth::Healthy);
    let oracle = Executor::new().run(&pivot_plan(), &mirror).unwrap();
    assert!(svc.query_view("flaky").unwrap().bag_eq(&oracle));
    assert!(svc.query_view("steady").unwrap().bag_eq(&oracle));
    assert!(svc.verify_all().unwrap());

    // Health renders in the human-readable report while degraded/quarantined
    // states were live; final report shows healthy views again.
    let report = svc.metrics().report();
    assert!(report.contains("view flaky"));
    assert!(!report.contains("QUARANTINED"));
}

/// Satellite invariant: a view quarantined while producers keep ingesting
/// loses nothing. Epochs commit around it, `retry_view` re-admits it
/// mid-stream, and once the queue drains the re-admitted view has caught
/// up with every delta ingested before, during, and after the quarantine.
#[test]
fn quarantine_readmission_under_concurrent_ingest() {
    let injector =
        FaultInjector::seeded(5).with_targeted_site(FaultSite::Propagate, 1.0, 0.0, "flaky");
    injector.disarm();
    let mut cat = catalog();
    let mirror_base = cat.clone();
    cat.set_fault_injector(injector.clone());

    let svc = ViewService::new(
        cat,
        ServeConfig::builder()
            .workers(2)
            .max_retries(0)
            .quarantine_after(2)
            .build()
            .unwrap(),
    );
    svc.register_view("flaky", pivot_plan()).unwrap();
    svc.register_view("steady", pivot_plan()).unwrap();
    injector.arm();

    // Two strikes put flaky in quarantine; the striking delta stays queued.
    svc.ingest_with(
        "facts",
        Delta::from_inserts(vec![row![50, "a", 50]]),
        IngestOptions::blocking(),
    )
    .unwrap();
    assert!(svc.refresh_epoch().is_err());
    assert!(svc.refresh_epoch().is_err());
    assert!(svc.view_health("flaky").unwrap().is_quarantined());

    const PRODUCERS: i64 = 2;
    const ROWS_PER_PRODUCER: i64 = 20;
    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let svc = &svc;
            scope.spawn(move || {
                for i in 0..ROWS_PER_PRODUCER {
                    let id = 100 * (p + 1) + i;
                    svc.ingest_with(
                        "facts",
                        Delta::from_inserts(vec![row![id, "a", id]]),
                        IngestOptions::blocking(),
                    )
                    .unwrap();
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
        }
        // Epochs keep committing while quarantined (flaky is skipped)...
        for _ in 0..3 {
            svc.refresh_epoch().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        // ...and re-admission happens mid-stream, with producers still
        // running. Cease fire first so the next epoch doesn't re-strike.
        injector.disarm();
        svc.retry_view("flaky").unwrap();
        assert_eq!(svc.view_health("flaky").unwrap(), ViewHealth::Healthy);
        for _ in 0..2 {
            svc.refresh_epoch().unwrap();
        }
    });

    while svc.pending_rows() > 0 {
        svc.refresh_epoch().unwrap();
    }

    // Oracle: the base plus every delta any producer ever submitted.
    let mut mirror = mirror_base;
    mirror
        .apply_delta("facts", &Delta::from_inserts(vec![row![50, "a", 50]]))
        .unwrap();
    for p in 0..PRODUCERS {
        for i in 0..ROWS_PER_PRODUCER {
            let id = 100 * (p + 1) + i;
            mirror
                .apply_delta("facts", &Delta::from_inserts(vec![row![id, "a", id]]))
                .unwrap();
        }
    }
    let oracle = Executor::new().run(&pivot_plan(), &mirror).unwrap();
    assert!(
        svc.query_view("flaky").unwrap().bag_eq(&oracle),
        "re-admitted view dropped deltas"
    );
    assert!(svc.query_view("steady").unwrap().bag_eq(&oracle));
    assert!(svc.verify_all().unwrap());
    assert_eq!(svc.view_health("flaky").unwrap(), ViewHealth::Healthy);
}

/// On a durable service, `retry_view` re-admits a quarantined view by the
/// same recompute a non-durable service runs. The log records no
/// re-admission, yet a reopen rebuilds the view bag-equal to the oracle:
/// recovery maintains it through every logged epoch, including the ones
/// it sat out.
#[test]
fn retry_view_recomputes_on_a_durable_service_and_survives_reopen() {
    fn parse(sql: &str) -> std::result::Result<gpivot_algebra::Plan, String> {
        gpivot_sql::parse_query(sql).map_err(|e| e.to_string())
    }
    let dir = std::env::temp_dir().join(format!("gpivot-quarantine-retry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let injector =
        FaultInjector::seeded(11).with_targeted_site(FaultSite::Propagate, 1.0, 0.0, "flaky");
    injector.disarm();
    let mut cat = catalog();
    let mut mirror = cat.clone();
    mirror.set_fault_injector(FaultInjector::disabled());
    cat.set_fault_injector(injector.clone());

    let cfg = || {
        ServeConfig::builder()
            .workers(2)
            .max_retries(0)
            .quarantine_after(2)
            .build()
            .unwrap()
    };
    let (svc, _) = ViewService::open(&dir, cat.clone(), cfg(), &parse).unwrap();
    svc.register_view("flaky", pivot_plan()).unwrap();
    svc.register_view("steady", pivot_plan()).unwrap();

    let ingest_row = |id: i64, mirror: &mut Catalog| {
        let d = Delta::from_inserts(vec![row![id, "a", id]]);
        svc.ingest_with("facts", d.clone(), IngestOptions::blocking())
            .unwrap();
        mirror.apply_delta("facts", &d).unwrap();
    };

    // One healthy epoch, then a checkpoint: the log tail now starts past
    // flaky's registration.
    ingest_row(10, &mut mirror);
    svc.refresh_epoch().unwrap();
    svc.checkpoint().unwrap();

    // Quarantine at since_epoch = 1.
    injector.arm();
    ingest_row(11, &mut mirror);
    assert!(svc.refresh_epoch().is_err());
    assert!(svc.refresh_epoch().is_err());
    assert!(svc.view_health("flaky").unwrap().is_quarantined());

    // Missed epochs 2 and 3 commit while flaky sits out.
    svc.refresh_epoch().unwrap();
    ingest_row(12, &mut mirror);
    svc.refresh_epoch().unwrap();
    assert_eq!(svc.epoch(), 3);

    injector.disarm();
    svc.retry_view("flaky").unwrap();
    assert_eq!(svc.view_health("flaky").unwrap(), ViewHealth::Healthy);

    let oracle = Executor::new().run(&pivot_plan(), &mirror).unwrap();
    assert!(svc.query_view("flaky").unwrap().bag_eq(&oracle));
    assert!(svc.verify_all().unwrap());

    // The re-admitted view keeps up in subsequent epochs.
    ingest_row(13, &mut mirror);
    svc.refresh_epoch().unwrap();
    let oracle = Executor::new().run(&pivot_plan(), &mirror).unwrap();
    assert!(svc.query_view("flaky").unwrap().bag_eq(&oracle));

    // And a restart rebuilds it from the checkpoint and the log alone.
    drop(svc);
    let (reopened, _) = ViewService::open(&dir, cat, cfg(), &parse).unwrap();
    assert!(reopened.query_view("flaky").unwrap().bag_eq(&oracle));
    assert!(reopened.verify_all().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dropped view leaves quarantine with the registry: an operator loop
/// that retries every quarantined view must never be handed a name that
/// no longer exists. Its counters stay.
#[test]
fn a_dropped_view_is_no_longer_reported_as_quarantined() {
    let injector =
        FaultInjector::seeded(13).with_targeted_site(FaultSite::Propagate, 1.0, 0.0, "flaky");
    let mut cat = catalog();
    cat.set_fault_injector(injector.clone());
    let cfg = ServeConfig::builder()
        .max_retries(0)
        .quarantine_after(1)
        .build()
        .unwrap();
    let svc = ViewService::new(cat, cfg);
    svc.register_view("flaky", pivot_plan()).unwrap();
    svc.register_view("steady", pivot_plan()).unwrap();
    svc.ingest_with(
        "facts",
        Delta::from_inserts(vec![row![4, "a", 4]]),
        IngestOptions::blocking(),
    )
    .unwrap();
    assert!(svc.refresh_epoch().is_err());
    assert_eq!(svc.metrics().quarantined_views(), vec!["flaky"]);

    svc.drop_view("flaky").unwrap();
    let m = svc.metrics();
    assert!(m.quarantined_views().is_empty());
    assert_eq!(m.per_view["flaky"].failures, 1);
    assert!(matches!(
        svc.retry_view("flaky"),
        Err(CoreError::UnknownView(_))
    ));
    // The epoch that failed on it commits without it.
    assert_eq!(svc.refresh_epoch().unwrap().views_refreshed, 1);
    assert!(svc.verify_all().unwrap());
}
