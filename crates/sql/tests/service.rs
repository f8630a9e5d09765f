//! End-to-end `GpivotService` tests over a small TPC-H instance: CREATE
//! MATERIALIZED VIEW from the dialect text of the paper's three views,
//! rewrite hits answered **bit-identically** to base-table execution,
//! rewrite misses falling back to base tables (with the `rewrite.miss`
//! trace event and metrics), and EXPLAIN output.

use gpivot_algebra::{PivotSpec, Plan};
use gpivot_exec::Executor;
use gpivot_serve::{IngestOptions, ServeConfig};
use gpivot_sql::{parse_query, GpivotService, SqlError, SqlOutcome};
use gpivot_storage::{
    row, Catalog, DataType, Delta, FaultInjector, FaultSite, Row, Schema, Table, Value,
};
use gpivot_tpch::views::{view1, view2, view3, VIEW2_THRESHOLD};
use gpivot_tpch::{generate, TpchConfig};
use std::sync::Arc;

fn service() -> GpivotService {
    let catalog = generate(&TpchConfig::scale(0.02));
    let svc = GpivotService::new(catalog);
    for (name, plan) in [
        ("v1", view1()),
        ("v2", view2(VIEW2_THRESHOLD)),
        ("v3", view3()),
    ] {
        let sql = format!(
            "CREATE MATERIALIZED VIEW {name} AS {}",
            plan.to_sql_dialect()
        );
        match svc.execute_sql(&sql).unwrap() {
            SqlOutcome::ViewCreated { name: n, .. } => assert_eq!(n, name),
            other => panic!("expected ViewCreated, got {other:?}"),
        }
    }
    svc
}

/// Run `sql` and return (rows, used_view).
fn select(svc: &GpivotService, sql: &str) -> (Table, Option<String>) {
    match svc.execute_sql(sql).unwrap() {
        SqlOutcome::Rows { table, used_view } => (table, used_view),
        other => panic!("expected Rows, got {other:?}"),
    }
}

fn assert_same_fields(a: &Table, b: &Table) {
    // The view's materialized table may carry different key *metadata* than
    // an ad-hoc execution infers; the contract is identical fields + rows.
    let (sa, sb) = (a.schema(), b.schema());
    assert_eq!(sa.arity(), sb.arity());
    for i in 0..sa.arity() {
        assert_eq!(sa.field_at(i).name, sb.field_at(i).name);
        assert_eq!(sa.field_at(i).data_type, sb.field_at(i).data_type);
    }
}

/// The same query executed directly against the base tables, bypassing the
/// rewriter entirely.
fn baseline(svc: &GpivotService, sql: &str) -> Table {
    let plan = parse_query(sql).unwrap();
    let snapshot = svc.service().snapshot();
    let manager = snapshot.manager();
    Executor::new().run(&plan, manager.catalog()).unwrap()
}

#[test]
fn all_three_paper_views_register_via_sql() {
    let svc = service();
    let mut names = svc.service().view_names();
    names.sort();
    assert_eq!(names, ["v1", "v2", "v3"]);
    let m = svc.service().metrics();
    assert_eq!(m.sql_registrations, 3);
}

#[test]
fn exact_view_definition_is_served_from_the_view() {
    let svc = service();
    let sql = view2(VIEW2_THRESHOLD).to_sql_dialect();
    let (rows, used) = select(&svc, &sql);
    assert_eq!(used.as_deref(), Some("v2"));
    // Bit-identical to executing the query against the base tables.
    let direct = baseline(&svc, &sql);
    assert_same_fields(&rows, &direct);
    assert!(rows.bag_eq(&direct), "view-served rows != base-table rows");
    assert_eq!(rows.sorted_rows(), direct.sorted_rows());
}

#[test]
fn residual_select_and_project_compensation_match_base_execution() {
    let svc = service();
    // σ + π on top of view1's definition: served from v1 with residual
    // predicate and compensating projection.
    let sql = format!(
        "SELECT c_custkey, \"1**l_extendedprice\" AS p1\n\
         FROM (\n{}\n) sub\n\
         WHERE c_nationkey > 10",
        view1().to_sql_dialect()
    );
    let (rows, used) = select(&svc, &sql);
    assert_eq!(used.as_deref(), Some("v1"));
    let direct = baseline(&svc, &sql);
    assert_same_fields(&rows, &direct);
    assert!(rows.bag_eq(&direct));
}

#[test]
fn unmatched_queries_fall_back_to_base_tables() {
    let svc = service();
    let (rows, used) = select(&svc, "SELECT * FROM customer WHERE c_custkey > 0");
    assert!(used.is_none());
    assert!(!rows.is_empty(), "tpch 0.02 has customers");
    let m = svc.service().metrics();
    assert_eq!(m.sql_rewrite_misses, 1);
    assert_eq!(m.trace_events.get("rewrite.miss"), Some(&1));
    let prom = m.prometheus();
    assert!(prom.contains("gpivot_sql_rewrites_total{outcome=\"miss\"} 1"));
}

#[test]
fn rewrite_hits_are_counted_and_traced() {
    let svc = service();
    let sql = view3().to_sql_dialect();
    let (_, used) = select(&svc, &sql);
    assert_eq!(used.as_deref(), Some("v3"));
    let m = svc.service().metrics();
    assert_eq!(m.sql_rewrite_hits, 1);
    assert_eq!(m.sql_rewrite_misses, 0);
    assert_eq!(m.trace_events.get("rewrite.hit"), Some(&1));
    assert!(m
        .prometheus()
        .contains("gpivot_sql_rewrites_total{outcome=\"hit\"} 1"));
    assert!(m
        .report()
        .contains("sql: 3 registrations, rewrites 1 hit / 0 miss"));
}

#[test]
fn explain_names_the_chosen_view_without_executing() {
    let svc = service();
    let sql = format!("EXPLAIN {}", view2(VIEW2_THRESHOLD).to_sql_dialect());
    let SqlOutcome::Explain { text } = svc.execute_sql(&sql).unwrap() else {
        panic!("expected Explain");
    };
    assert!(text.contains("used view: v2"), "explain was:\n{text}");
    assert!(text.contains("plan:"));
    assert!(text.contains("Scan"));
    // EXPLAIN does not touch the rewrite counters.
    let m = svc.service().metrics();
    assert_eq!(m.sql_rewrite_hits + m.sql_rewrite_misses, 0);
}

#[test]
fn explain_miss_says_base_tables() {
    let svc = service();
    let SqlOutcome::Explain { text } = svc.execute_sql("EXPLAIN SELECT * FROM orders").unwrap()
    else {
        panic!("expected Explain");
    };
    assert!(text.contains("no view matched"), "explain was:\n{text}");
}

#[test]
fn explain_create_surfaces_gp_lint_warnings() {
    let svc = service();
    // Outer joins sit outside the paper's delta-propagation rules, so the
    // analyzer flags them GP014 (warning); EXPLAIN CREATE surfaces that
    // without registering anything.
    let sql = "EXPLAIN CREATE MATERIALIZED VIEW w AS \
               SELECT * FROM orders \
               LEFT OUTER JOIN (SELECT * FROM customer) r \
               ON l.o_custkey = r.c_custkey";
    let SqlOutcome::Explain { text } = svc.execute_sql(sql).unwrap() else {
        panic!("expected Explain");
    };
    assert!(
        text.contains("GP0"),
        "expected a GP0xx diagnostic in:\n{text}"
    );
    assert!(!svc.service().view_names().contains(&"w".to_string()));
}

#[test]
fn parse_errors_carry_spans_and_engine_errors_do_not_panic() {
    let svc = service();
    let err = svc.execute_sql("SELECT FROM").unwrap_err();
    let span = err.span().expect("parse error has a span");
    assert_eq!(span.line, 1);

    let err = svc.execute_sql("SELECT * FROM no_such_table").unwrap_err();
    assert!(matches!(err, SqlError::Engine(_)), "got: {err}");
}

#[test]
fn durable_open_refuses_a_sharded_config() {
    let cfg = ServeConfig::builder().shards(2).build().unwrap();
    let dir = std::env::temp_dir().join(format!("gpivot-sql-sharded-open-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let err = GpivotService::open(&dir, Catalog::new(), cfg)
        .err()
        .expect("a two-shard durable open must be refused");
    assert!(
        matches!(&err, SqlError::Engine(m) if m.contains("shards")),
        "got: {err}"
    );
    assert!(!dir.exists(), "a refused open must not touch its directory");
}

/// A fresh durable directory named after `tag`, a seed catalog holding
/// one keyed `facts` table, and the statement that creates view `pv`, a
/// GPIVOT over it.
fn durable_fixture(tag: &str) -> (std::path::PathBuf, Catalog, String) {
    let dir = std::env::temp_dir().join(format!("gpivot-sql-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut seed = Catalog::new();
    let schema = Schema::from_pairs_keyed(
        &[
            ("id", DataType::Int),
            ("attr", DataType::Str),
            ("val", DataType::Int),
        ],
        &["id", "attr"],
    )
    .unwrap();
    let facts = Table::from_rows(Arc::new(schema), vec![row![1, "a", 10]]).unwrap();
    seed.register("facts", facts).unwrap();
    let pivot = Plan::scan("facts").gpivot(PivotSpec::simple(
        "attr",
        "val",
        vec![Value::str("a"), Value::str("b")],
    ));
    let create = format!("CREATE MATERIALIZED VIEW pv AS {}", pivot.to_sql_dialect());
    (dir, seed, create)
}

/// Ingest `rows` into `facts` through the tier.
fn ingest(svc: &GpivotService, rows: Vec<Row>) {
    svc.service()
        .ingest_with(
            "facts",
            Delta::from_inserts(rows),
            IngestOptions::blocking(),
        )
        .unwrap();
}

/// Ingest `rows` and run one tier epoch; returns the epoch it committed.
fn epoch_with(svc: &GpivotService, rows: Vec<Row>) -> u64 {
    ingest(svc, rows);
    svc.service().refresh_epoch().unwrap().epoch
}

/// A durable service reopened through the shard tier keeps counting
/// epochs where it stopped, and its SQL-created view keeps its bag.
#[test]
fn durable_reopen_keeps_the_epoch_and_the_view() {
    let (dir, seed, create) = durable_fixture("durable-reopen");
    let before = {
        let (svc, _) = GpivotService::open(&dir, seed.clone(), ServeConfig::default()).unwrap();
        svc.execute_sql(&create).unwrap();
        for i in 0..3 {
            assert_eq!(epoch_with(&svc, vec![row![i + 2, "b", i]]), i as u64 + 1);
        }
        svc.service().query_view("pv").unwrap()
    };

    let (svc, report) = GpivotService::open(&dir, seed, ServeConfig::default()).unwrap();
    assert!(report.recovered);
    assert_eq!(svc.service().epoch(), 3);
    let after = svc.service().query_view("pv").unwrap();
    assert!(
        after.bag_eq(&before),
        "reopened view diverged:\n got: {:?}\nwant: {:?}",
        after.sorted_rows(),
        before.sorted_rows()
    );
    assert_eq!(epoch_with(&svc, vec![row![9, "a", 1]]), 4);
    assert_eq!(svc.service().snapshot().epoch(), 4);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Saving into the service's own durable directory checkpoints there
/// instead of replacing it, so epochs acknowledged after the save survive
/// a reopen.
#[test]
fn save_into_the_live_directory_keeps_later_epochs() {
    let (dir, seed, create) = durable_fixture("save-live");
    let before = {
        let (svc, _) = GpivotService::open(&dir, seed.clone(), ServeConfig::default()).unwrap();
        svc.execute_sql(&create).unwrap();
        assert_eq!(epoch_with(&svc, vec![row![2, "b", 1]]), 1);
        svc.save(&dir).unwrap();
        assert_eq!(epoch_with(&svc, vec![row![3, "a", 2]]), 2);
        assert_eq!(epoch_with(&svc, vec![row![4, "b", 3]]), 3);
        svc.service().query_view("pv").unwrap()
    };

    let (svc, report) = GpivotService::open(&dir, seed, ServeConfig::default()).unwrap();
    assert!(report.recovered);
    assert_eq!(svc.service().epoch(), 3);
    let after = svc.service().query_view("pv").unwrap();
    assert!(
        after.bag_eq(&before),
        "reopened view diverged:\n got: {:?}\nwant: {:?}",
        after.sorted_rows(),
        before.sorted_rows()
    );
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable root whose epoch committed but whose in-epoch checkpoint
/// failed has still advanced, and the tier's epoch advances with it.
#[test]
fn tier_epoch_follows_the_root_past_a_failed_checkpoint() {
    let (dir, mut seed, create) = durable_fixture("failed-checkpoint");
    let faults = FaultInjector::seeded(1).with_site(FaultSite::CheckpointWrite, 1.0, 0.0);
    faults.disarm();
    seed.set_fault_injector(faults.clone());
    let cfg = ServeConfig::builder()
        .checkpoint_every_epochs(1)
        .build()
        .unwrap();
    let (svc, _) = GpivotService::open(&dir, seed, cfg).unwrap();
    svc.execute_sql(&create).unwrap();
    let tier = svc.service();
    let epochs = || (tier.epoch(), tier.root().epoch(), tier.snapshot().epoch());

    ingest(&svc, vec![row![2, "b", 1]]);
    faults.arm();
    assert!(
        tier.refresh_epoch().is_err(),
        "the in-epoch checkpoint must fail"
    );
    faults.disarm();
    assert_eq!(epochs(), (1, 1, 1));

    assert_eq!(epoch_with(&svc, vec![row![3, "a", 2]]), 2);
    assert_eq!(epochs(), (2, 2, 2));
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}
