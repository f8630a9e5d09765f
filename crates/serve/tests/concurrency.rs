//! Concurrency test: 4 producer threads ingesting interleaved insert/delete
//! batches under a tight backpressure watermark, two concurrent refresher
//! threads running epochs, and a snapshot reader checking for torn reads —
//! all while the metrics must reconcile exactly with what was sent.

use gpivot_serve::{IngestOptions, ServeConfig, ViewService};
use gpivot_storage::{row, Catalog, DataType, Delta, Row, Schema, Table, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const PRODUCERS: usize = 4;
const BATCHES_PER_PRODUCER: i64 = 40;
const INSERTS_PER_BATCH: i64 = 4;
const DELETES_PER_BATCH: i64 = 2;

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
    c.register("facts", Table::from_rows(schema, vec![]).unwrap())
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

/// The deterministic row a producer writes: unique key per (producer,
/// batch, slot), value derived from the id so deletes can re-derive it.
fn fact_row(producer: i64, batch: i64, slot: i64) -> Row {
    let id = producer * 1_000_000 + batch * 100 + slot;
    let attr = if slot % 2 == 0 { "a" } else { "b" };
    row![id, attr, id % 97]
}

#[test]
fn producers_refreshers_and_readers_dont_tear() {
    let svc = ViewService::new(
        catalog(),
        ServeConfig::builder()
            .workers(4)
            // Tight watermark so backpressure actually engages.
            .max_pending_rows(16)
            .build()
            .unwrap(),
    );
    // Two views with identical definitions: any torn snapshot shows up as
    // the pair disagreeing under a single read guard.
    svc.register_view("torn_a", pivot_plan()).unwrap();
    svc.register_view("torn_b", pivot_plan()).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let rows_sent = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // 4 producers: each batch inserts new rows and deletes some rows
        // from its previous batch (which may still be queued — cancelling —
        // or already committed — a real base-table delete).
        for p in 0..PRODUCERS as i64 {
            let svc = svc.clone();
            let rows_sent = Arc::clone(&rows_sent);
            s.spawn(move || {
                for b in 0..BATCHES_PER_PRODUCER {
                    let mut d = Delta::new();
                    for k in 0..INSERTS_PER_BATCH {
                        d.add(fact_row(p, b, k), 1);
                    }
                    if b > 0 {
                        for k in 0..DELETES_PER_BATCH {
                            d.add(fact_row(p, b - 1, k), -1);
                        }
                    }
                    rows_sent.fetch_add(d.total_multiplicity(), Ordering::SeqCst);
                    svc.ingest_with("facts", d, IngestOptions::blocking())
                        .unwrap();
                }
            });
        }

        // 2 concurrent refreshers (the gate serializes actual epochs).
        for _ in 0..2 {
            let svc = svc.clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::SeqCst) || svc.pending_rows() > 0 {
                    svc.refresh_epoch().unwrap();
                    std::thread::yield_now();
                }
            });
        }

        // Snapshot reader: both views must agree under one guard, always.
        {
            let svc = svc.clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut epochs_seen = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let snap = svc.snapshot();
                    let a = snap.query_view("torn_a").unwrap();
                    let b = snap.query_view("torn_b").unwrap();
                    assert!(
                        a.bag_eq(&b),
                        "torn snapshot at epoch {}: {} vs {} rows",
                        snap.epoch(),
                        a.len(),
                        b.len(),
                    );
                    epochs_seen = epochs_seen.max(snap.epoch());
                    drop(snap);
                    std::thread::yield_now();
                }
                epochs_seen
            });
        }

        // Producers are the threads that terminate on their own; everything
        // else runs until we flip the stop flag. Scoped threads join at the
        // end of the scope — completing it at all proves no deadlock.
        // (Producer handles are the first PRODUCERS spawns; easiest is to
        // wait for the queue to settle.)
        loop {
            let m = svc.metrics();
            let target = (PRODUCERS as u64)
                * (INSERTS_PER_BATCH as u64 * BATCHES_PER_PRODUCER as u64
                    + DELETES_PER_BATCH as u64 * (BATCHES_PER_PRODUCER as u64 - 1));
            if m.rows_ingested == target {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        stop.store(true, Ordering::SeqCst);
    });

    // Drain whatever the refreshers left behind.
    svc.refresh_epoch().unwrap();
    assert_eq!(svc.pending_rows(), 0);

    // No torn state at rest either, and the views match recomputation.
    assert!(svc.verify_all().unwrap());
    let a = svc.query_view("torn_a").unwrap();
    let b = svc.query_view("torn_b").unwrap();
    assert!(a.bag_eq(&b));

    // Metrics reconcile exactly with what the producers sent.
    let m = svc.metrics();
    assert_eq!(m.rows_ingested, rows_sent.load(Ordering::SeqCst));
    assert_eq!(m.rows_drained_raw, m.rows_ingested);
    assert_eq!(m.pending_rows, 0);
    assert_eq!(
        m.batches_ingested,
        (PRODUCERS as u64) * (BATCHES_PER_PRODUCER as u64),
    );
    assert!(m.epochs >= 1);
    assert_eq!(m.epochs_failed, 0);
    // The tight watermark must have made at least one producer wait.
    assert!(m.ingest_waits > 0, "backpressure never engaged");
    // Both views were refreshed the same number of times (same dependency).
    assert_eq!(
        m.per_view["torn_a"].refreshes,
        m.per_view["torn_b"].refreshes,
    );
}

#[test]
fn registry_changes_interleave_with_refreshes() {
    // Register/drop while epochs are running: the gate serializes them, so
    // nothing tears and late registrations see committed base state.
    let svc = ViewService::new(catalog(), ServeConfig::default());
    svc.register_view("v0", pivot_plan()).unwrap();

    std::thread::scope(|s| {
        let writer = svc.clone();
        s.spawn(move || {
            for b in 0..20 {
                let mut d = Delta::new();
                for k in 0..4 {
                    d.add(fact_row(9, b, k), 1);
                }
                writer
                    .ingest_with("facts", d, IngestOptions::blocking())
                    .unwrap();
                writer.refresh_epoch().unwrap();
            }
        });
        let churner = svc.clone();
        s.spawn(move || {
            for i in 0..10 {
                let name = format!("tmp{i}");
                churner.register_view(name.clone(), pivot_plan()).unwrap();
                assert!(churner.verify_all().unwrap());
                churner.drop_view(&name).unwrap();
            }
        });
    });

    assert!(svc.verify_all().unwrap());
    assert_eq!(svc.view_names(), vec!["v0".to_string()]);
}
