//! Nothing one bad row can do wedges a service or its recovery: a row of
//! the wrong arity is refused at ingest, before it is logged or queued; a
//! delete of a row the table does not hold is dropped, and an insert of a
//! key the table holds is refused, before either reaches a view; and a
//! view that fails for good at a committed epoch is rebuilt (or kept
//! quarantined) by recovery instead of failing the reopen.

use gpivot_algebra::{AggSpec, PivotSpec, Plan};
use gpivot_core::CoreError;
use gpivot_serve::{IngestOptions, ServeConfig, ShardedService, ViewService};
use gpivot_storage::{row, Catalog, DataType, Delta, Row, Schema, StorageError, Table, Value};
use gpivot_tpch::gen::{generate, TpchConfig};
use gpivot_tpch::views::{view1, view2, view3, VIEW2_THRESHOLD};
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

/// An insert of a key the table holds used to fail validation, roll its
/// epoch back and restore the batch, so every later epoch failed the same
/// `KeyViolation` and the valid rows queued behind it never committed.
/// Admission refuses that row alone, and the second of two inserts of one
/// key in a batch; the rest commit, and replay refuses the same rows.
#[test]
fn an_insert_of_a_held_key_is_refused_and_the_rows_behind_it_commit() {
    let dir = scratch_dir("no-wedge-duplicate-key");
    let cfg = || ServeConfig::builder().workers(1).build().unwrap();
    let (svc, _) = ViewService::open(&dir, catalog(), cfg(), &parse).unwrap();
    svc.register_view("pivot", pivot_plan()).unwrap();
    let ingest = |svc: &ViewService, row: Row| {
        svc.ingest_with("facts", inserts(vec![row]), IngestOptions::blocking())
            .unwrap()
    };
    ingest(&svc, row![1, "a", 99]);
    ingest(&svc, row![3, "a", 30]);
    assert_eq!(svc.refresh_epoch().unwrap().epoch, 1);
    let m = svc.metrics();
    assert_eq!((m.inserts_refused, m.epochs_failed), (1, 0));
    assert_eq!(m.refused_keys["facts"], "(1, a)");
    assert!(svc.verify_all().unwrap());
    let facts = || {
        svc.snapshot()
            .manager()
            .catalog()
            .table("facts")
            .unwrap()
            .sorted_rows()
    };
    assert_eq!(
        facts(),
        [row![1, "a", 10], row![2, "b", 20], row![3, "a", 30]]
    );

    // Two inserts of one new key in one batch: the lesser row commits.
    ingest(&svc, row![4, "b", 41]);
    ingest(&svc, row![4, "b", 40]);
    assert_eq!(svc.refresh_epoch().unwrap().epoch, 2);
    assert_eq!(svc.metrics().inserts_refused, 2);
    assert_eq!(svc.metrics().refused_keys["facts"], "(4, b)");
    assert_eq!(facts().last(), Some(&row![4, "b", 40]));
    assert!(svc.verify_all().unwrap());
    let view = svc.query_view("pivot").unwrap();
    assert_eq!(view.len(), 4);
    drop(svc);

    let (reopened, report) = ViewService::open(&dir, catalog(), cfg(), &parse).unwrap();
    assert_eq!(report.recovered_epoch, 2);
    assert!(reopened.verify_all().unwrap());
    assert!(reopened.query_view("pivot").unwrap().bag_eq(&view));
    let _ = std::fs::remove_dir_all(&dir);

    let sharded = ShardedService::new(catalog(), ServeConfig::builder().shards(2).build().unwrap());
    sharded.register_view("pivot", pivot_plan()).unwrap();
    for rows in [
        vec![row![1, "a", 99], row![3, "a", 30]],
        vec![row![4, "b", 41], row![4, "b", 40]],
    ] {
        for row in rows {
            let delta = inserts(vec![row]);
            sharded
                .ingest_with("facts", delta, IngestOptions::blocking())
                .unwrap();
        }
        sharded.refresh_epoch().unwrap();
    }
    assert!(sharded.verify_all().unwrap());
    assert!(sharded.query_view("pivot").unwrap().bag_eq(&view));
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

/// The TPC-H views (1)–(3) as the paper registers them.
fn register_tpch_views(svc: &ViewService) {
    svc.register_view("v1", view1()).unwrap();
    svc.register_view("v2", view2(VIEW2_THRESHOLD)).unwrap();
    svc.register_view("v3", view3()).unwrap();
}

/// Two deletes `lineitem` cannot cover: its first row with another price
/// (the key is held, the row is not), and a key it does not hold.
fn uncovered_deletes(catalog: &Catalog) -> [Row; 2] {
    let lineitem = catalog.table("lineitem").unwrap();
    let schema = lineitem.schema();
    let (price, order) = (
        schema.index_of("l_extendedprice").unwrap(),
        schema.index_of("l_orderkey").unwrap(),
    );
    let first = &lineitem.rows()[0];
    let mut repriced = first.to_vec();
    repriced[price] = repriced[price].numeric_add(&Value::Float(1.0));
    let mut absent = first.to_vec();
    absent[order] = Value::Int(i64::MAX);
    [Row::new(repriced), Row::new(absent)]
}

/// A delete of a row the table does not hold used to reach the views
/// (propagation pushed it) but not the table (`apply_delta` skips it), so
/// the views stopped equalling their definitions. Both kinds now commit as
/// no-ops, are counted, and replay the same way on reopen.
#[test]
fn a_delete_the_table_cannot_cover_commits_as_a_no_op() {
    let base = generate(&TpchConfig::scale(0.02));
    let dir = scratch_dir("no-wedge-uncovered-delete");
    let cfg = || ServeConfig::builder().workers(1).build().unwrap();
    let (svc, _) = ViewService::open(&dir, base.clone(), cfg(), &parse).unwrap();
    register_tpch_views(&svc);
    let before: Vec<Table> = ["v1", "v2", "v3"]
        .map(|v| svc.query_view(v).unwrap())
        .into();
    for (epoch, row) in (1..).zip(uncovered_deletes(&base)) {
        svc.ingest_with(
            "lineitem",
            Delta::from_deletes([row]),
            IngestOptions::blocking(),
        )
        .unwrap();
        assert_eq!(svc.refresh_epoch().unwrap().epoch, epoch);
        assert!(svc.verify_all().unwrap(), "epoch {epoch}");
    }
    assert_eq!(svc.metrics().deletes_dropped, 2);
    for (name, old) in ["v1", "v2", "v3"].iter().zip(&before) {
        assert!(svc.query_view(name).unwrap().bag_eq(old), "{name} moved");
    }
    drop(svc);

    let (reopened, report) = ViewService::open(&dir, base.clone(), cfg(), &parse).unwrap();
    assert_eq!(report.recovered_epoch, 2);
    assert!(reopened.verify_all().unwrap());
    for (name, old) in ["v1", "v2", "v3"].iter().zip(&before) {
        assert!(
            reopened.query_view(name).unwrap().bag_eq(old),
            "{name} moved"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The shard tier runs every shard's epoch through the same path.
    let sharded = ShardedService::new(
        base.clone(),
        ServeConfig::builder().shards(2).build().unwrap(),
    );
    register_tpch_views_sharded(&sharded);
    for row in uncovered_deletes(&base) {
        sharded
            .ingest_with(
                "lineitem",
                Delta::from_deletes([row]),
                IngestOptions::blocking(),
            )
            .unwrap();
        sharded.refresh_epoch().unwrap();
    }
    assert!(sharded.verify_all().unwrap());
}

fn register_tpch_views_sharded(svc: &ShardedService) {
    svc.register_view("v1", view1()).unwrap();
    svc.register_view("v2", view2(VIEW2_THRESHOLD)).unwrap();
    svc.register_view("v3", view3()).unwrap();
}
