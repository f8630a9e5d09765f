//! The refresh fan-out on long-lived workers: nested fan-out across the
//! shard tier's pool and each shard service's pool never deadlocks, and a
//! service's spans land in its own timing store however its epochs
//! interleave with another service's.

use gpivot_core::SourceDeltas;
use gpivot_serve::{IngestOptions, ServeConfig, ShardedService, ViewService};
use gpivot_storage::Catalog;
use gpivot_tpch::gen::{generate, TpchConfig};
use gpivot_tpch::views::{view1, view2, view3, VIEW2_THRESHOLD};
use gpivot_tpch::workload;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Duration;

fn small_catalog() -> Catalog {
    generate(&TpchConfig {
        empty_order_fraction: 0.25,
        ..TpchConfig::scale(0.02)
    })
}

fn cfg(shards: usize) -> ServeConfig {
    ServeConfig::builder()
        .workers(2)
        .shards(shards)
        .build()
        .unwrap()
}

/// Run `case` on its own thread and fail if it has not finished within
/// `secs` seconds: a deadlocked fan-out fails the test instead of hanging
/// the suite.
fn within(secs: u64, case: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let _detached = std::thread::spawn(move || {
        case();
        let _ = tx.send(());
    });
    assert!(
        rx.recv_timeout(Duration::from_secs(secs)).is_ok(),
        "case deadlocked or panicked (no completion within {secs} s)"
    );
}

/// Batch `i` of a fixed schedule over `mirror`, applied to the mirror.
fn next_batch(mirror: &mut Catalog, i: u64) -> SourceDeltas {
    let batch = workload::mixed_batch(mirror, 0.01, 100 + i);
    for table in batch.tables() {
        mirror
            .apply_delta(table, batch.delta(table).unwrap())
            .unwrap();
    }
    batch
}

fn ingest(svc: &ViewService, batch: &SourceDeltas) {
    for table in batch.tables() {
        let delta = batch.delta(table).unwrap().clone();
        svc.ingest_with(table, delta, IngestOptions::blocking())
            .unwrap();
    }
}

/// The tier's pool runs one job per shard service, and each of those
/// refreshes on its own service's pool: two levels of fan-out, neither of
/// which may queue behind the other.
#[test]
fn a_two_shard_two_worker_tier_refreshes_fifty_epochs() {
    within(120, || {
        let catalog = small_catalog();
        let mut mirror = catalog.clone();
        let svc = ShardedService::new(catalog, cfg(2));
        svc.register_view("view1", view1()).unwrap();
        svc.register_view("view2", view2(VIEW2_THRESHOLD)).unwrap();
        svc.register_view("view3", view3()).unwrap();
        for i in 0..50 {
            let batch = next_batch(&mut mirror, i);
            for table in batch.tables() {
                let delta = batch.delta(table).unwrap().clone();
                svc.ingest_with(table, delta, IngestOptions::blocking())
                    .unwrap();
            }
            svc.refresh_epoch().unwrap();
        }
        assert_eq!(svc.epoch(), 50);
        assert!(svc.verify_all().unwrap());
    });
}

/// Counts of the worker-side spans: `view.attempt` and every `maintain.*`.
fn worker_span_counts(svc: &ViewService) -> BTreeMap<String, u64> {
    svc.metrics()
        .phase_timings
        .iter()
        .filter(|(name, _)| *name == "view.attempt" || name.starts_with("maintain."))
        .map(|(name, h)| (name.clone(), h.count()))
        .collect()
}

fn three_view_service(catalog: &Catalog) -> ViewService {
    let svc = ViewService::new(catalog.clone(), cfg(1));
    svc.register_view("view1", view1()).unwrap();
    svc.register_view("view2", view2(VIEW2_THRESHOLD)).unwrap();
    svc.register_view("view3", view3()).unwrap();
    svc
}

/// Two services refresh alternately; each must record exactly the
/// worker-side spans a twin records refreshing the same schedule alone,
/// and one `view.attempt` per view per epoch.
#[test]
fn interleaved_services_keep_their_spans_apart() {
    const VIEWS: u64 = 3;
    let catalog = small_catalog();
    let mut mirror = catalog.clone();
    let batches: Vec<SourceDeltas> = (0..6).map(|i| next_batch(&mut mirror, i)).collect();
    // `a` runs all six batches, `b` the first three, alternating with `a`.
    let (a, b) = (three_view_service(&catalog), three_view_service(&catalog));
    for (i, batch) in batches.iter().enumerate() {
        ingest(&a, batch);
        a.refresh_epoch().unwrap();
        if i < 3 {
            ingest(&b, batch);
            b.refresh_epoch().unwrap();
        }
    }
    for (svc, epochs) in [(&a, 6), (&b, 3)] {
        let twin = three_view_service(&catalog);
        for batch in &batches[..epochs] {
            ingest(&twin, batch);
            twin.refresh_epoch().unwrap();
        }
        let counts = worker_span_counts(svc);
        assert_eq!(counts["view.attempt"], epochs as u64 * VIEWS);
        assert!(counts.keys().any(|k| k.starts_with("maintain.")));
        assert_eq!(counts, worker_span_counts(&twin), "{epochs}-epoch service");
    }
}
