//! Nothing one bad row can do wedges a service or its recovery: a row of
//! the wrong arity is refused at ingest, before it is logged or queued, and
//! a view that fails for good at a committed epoch is rebuilt (or kept
//! quarantined) by recovery instead of failing the reopen.

use gpivot_algebra::{AggSpec, PivotSpec, Plan};
use gpivot_core::CoreError;
use gpivot_serve::{IngestOptions, ServeConfig, ShardedService, ViewService};
use gpivot_storage::{row, Catalog, DataType, Delta, Schema, StorageError, Table, Value};
use std::path::PathBuf;
use std::sync::Arc;

fn catalog() -> Catalog {
    let schema = Schema::from_pairs_keyed(
        &[
            ("id", DataType::Int),
            ("attr", DataType::Str),
            ("val", DataType::Int),
        ],
        &["id", "attr"],
    )
    .unwrap();
    let facts = Table::from_rows(Arc::new(schema), vec![row![1, "a", 10], row![2, "b", 20]]);
    let mut c = Catalog::new();
    c.register("facts", facts.unwrap()).unwrap();
    c
}

fn pivot_plan() -> Plan {
    Plan::scan("facts").gpivot(PivotSpec::simple(
        "attr",
        "val",
        vec![Value::str("a"), Value::str("b")],
    ))
}

fn parse(sql: &str) -> Result<Plan, String> {
    gpivot_sql::parse_query(sql).map_err(|e| e.to_string())
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpivot-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn inserts(rows: Vec<gpivot_storage::Row>) -> Delta {
    Delta::from_inserts(rows)
}

fn is_arity_mismatch(r: gpivot_core::Result<()>) -> bool {
    matches!(
        r,
        Err(CoreError::Storage(StorageError::ArityMismatch {
            expected: 3,
            actual: 2
        }))
    )
}

#[test]
fn a_wrong_arity_row_is_refused_and_the_service_keeps_committing() {
    let svc = ViewService::new(catalog(), ServeConfig::default());
    svc.register_view("all", Plan::scan("facts")).unwrap();
    svc.register_view("pivot", pivot_plan()).unwrap();
    let blocking = IngestOptions::blocking;
    assert!(is_arity_mismatch(svc.ingest_with(
        "facts",
        inserts(vec![row![7, "a"]]),
        blocking()
    )));
    // A delete of the wrong arity is refused too, and so is a batch that
    // holds one bad row among good ones: nothing of it is queued.
    assert!(is_arity_mismatch(svc.ingest_with(
        "facts",
        Delta::from_deletes(vec![row![1, "a"]]),
        blocking()
    )));
    let mixed = inserts(vec![row![8, "a", 80], row![9, "b"]]);
    assert!(is_arity_mismatch(svc.ingest_with(
        "facts",
        mixed,
        blocking()
    )));
    assert_eq!(svc.pending_rows(), 0);
    assert_eq!(svc.metrics().rows_ingested, 0);

    svc.ingest_with("facts", inserts(vec![row![7, "a", 70]]), blocking())
        .unwrap();
    let summary = svc.refresh_epoch().unwrap();
    assert_eq!(summary.epoch, 1);
    assert_eq!(svc.query_view("all").unwrap().len(), 3);
    assert!(svc.verify_all().unwrap());
}

#[test]
fn a_wrong_arity_row_never_reaches_a_shard() {
    let cfg = ServeConfig::builder().shards(2).build().unwrap();
    let svc = ShardedService::new(catalog(), cfg);
    svc.register_view("pivot", pivot_plan()).unwrap();
    let bad = inserts(vec![row![7, "a"]]);
    assert!(is_arity_mismatch(svc.ingest_with(
        "facts",
        bad,
        IngestOptions::blocking()
    )));
    assert_eq!(svc.pending_rows(), 0);
    svc.ingest_with(
        "facts",
        inserts(vec![row![7, "a", 70]]),
        IngestOptions::blocking(),
    )
    .unwrap();
    svc.refresh_epoch().unwrap();
    assert!(svc.verify_all().unwrap());
}

#[test]
fn a_wrong_arity_row_is_not_logged() {
    let dir = scratch_dir("no-wedge-arity");
    let (svc, _) = ViewService::open(&dir, catalog(), ServeConfig::default(), &parse).unwrap();
    svc.register_view("pivot", pivot_plan()).unwrap();
    let bad = inserts(vec![row![7, "a"]]);
    assert!(is_arity_mismatch(svc.ingest_with(
        "facts",
        bad,
        IngestOptions::blocking()
    )));
    drop(svc);
    let (reopened, report) =
        ViewService::open(&dir, catalog(), ServeConfig::default(), &parse).unwrap();
    assert_eq!(report.pending_rows, 0);
    assert_eq!(reopened.pending_rows(), 0);
    reopened
        .ingest_with(
            "facts",
            inserts(vec![row![7, "a", 70]]),
            IngestOptions::blocking(),
        )
        .unwrap();
    assert_eq!(reopened.refresh_epoch().unwrap().epoch, 1);
    assert!(reopened.verify_all().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `avg` fails for good on a mistyped value (value types are not checked at
/// ingest), is quarantined, and the next epoch commits without it. The
/// reopen replays that epoch without `avg` too — or, after a checkpoint,
/// finds `avg` stale there — fails to recompute it from the recovered base,
/// and brings it back quarantined.
#[test]
fn a_view_quarantined_for_a_permanent_error_does_not_block_the_reopen() {
    for checkpoint in [false, true] {
        let dir = scratch_dir(&format!("no-wedge-quarantine-{checkpoint}"));
        let cfg = || {
            ServeConfig::builder()
                .max_retries(0)
                .quarantine_after(1)
                .build()
                .unwrap()
        };
        let avg = Plan::scan("facts").group_by(&["attr"], vec![AggSpec::avg("val", "avg_val")]);
        let (svc, _) = ViewService::open(&dir, catalog(), cfg(), &parse).unwrap();
        svc.register_view("avg", avg).unwrap();
        svc.register_view("all", Plan::scan("facts")).unwrap();
        let oops = inserts(vec![row![3, "a", "oops"]]);
        svc.ingest_with("facts", oops, IngestOptions::blocking())
            .unwrap();
        assert!(svc.refresh_epoch().is_err());
        assert!(svc.view_health("avg").unwrap().is_quarantined());
        assert_eq!(svc.refresh_epoch().unwrap().epoch, 1);
        if checkpoint {
            svc.checkpoint().unwrap();
        }
        drop(svc);

        let (reopened, report) = ViewService::open(&dir, catalog(), cfg(), &parse).unwrap();
        assert_eq!(report.recovered_epoch, 1, "checkpoint: {checkpoint}");
        assert_eq!(reopened.epoch(), 1);
        assert_eq!(reopened.query_view("all").unwrap().len(), 3);
        assert!(reopened.view_health("avg").unwrap().is_quarantined());
        assert!(reopened.verify_all().unwrap());
        // The recovered service keeps committing around the quarantined
        // view, and reopens again.
        reopened
            .ingest_with(
                "facts",
                inserts(vec![row![4, "b", 40]]),
                IngestOptions::blocking(),
            )
            .unwrap();
        assert_eq!(reopened.refresh_epoch().unwrap().epoch, 2);
        assert!(reopened.verify_all().unwrap());
        drop(reopened);
        let (again, _) = ViewService::open(&dir, catalog(), cfg(), &parse).unwrap();
        assert_eq!(again.epoch(), 2);
        assert_eq!(again.query_view("all").unwrap().len(), 4);
        assert!(again.view_health("avg").unwrap().is_quarantined());
        assert!(again.verify_all().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
