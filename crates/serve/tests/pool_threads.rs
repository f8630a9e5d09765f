//! A service's refresh workers are spawned once and live exactly as long
//! as the service: no epoch after the first fan-out starts a thread, and
//! dropping a service joins its workers. Counted with the process's
//! `Threads:` line, so this file holds one test and runs alone in its
//! process.

use gpivot_serve::{IngestOptions, ServeConfig, ViewService};
use gpivot_storage::Catalog;
use gpivot_tpch::gen::{generate, TpchConfig};
use gpivot_tpch::views::{view1, view2, view3, VIEW2_THRESHOLD};
use gpivot_tpch::workload;

/// Live threads in this process.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .unwrap()
        .trim()
        .parse()
        .unwrap()
}

/// A two-worker service over the three TPC-H views, which refresh as two
/// groups (`view1 → view2`, `view3`), so every epoch fans out.
fn service(catalog: &Catalog) -> ViewService {
    let cfg = ServeConfig::builder().workers(2).build().unwrap();
    let svc = ViewService::new(catalog.clone(), cfg);
    svc.register_view("view1", view1()).unwrap();
    svc.register_view("view2", view2(VIEW2_THRESHOLD)).unwrap();
    svc.register_view("view3", view3()).unwrap();
    svc
}

/// One epoch over a batch drawn from `mirror`, the service's base tables
/// as of its last epoch, which the batch then advances.
fn epoch(svc: &ViewService, mirror: &mut Catalog, seed: u64) {
    let batch = workload::mixed_batch(mirror, 0.01, seed);
    for table in batch.tables() {
        let delta = batch.delta(table).unwrap();
        svc.ingest_with(table, delta.clone(), IngestOptions::blocking())
            .unwrap();
        mirror.apply_delta(table, delta).unwrap();
    }
    svc.refresh_epoch().unwrap();
}

#[cfg(target_os = "linux")]
#[test]
fn refresh_workers_are_spawned_once_and_joined_on_drop() {
    let catalog = generate(&TpchConfig {
        empty_order_fraction: 0.25,
        ..TpchConfig::scale(0.005)
    });
    let baseline = threads();

    let svc = service(&catalog);
    assert_eq!(threads(), baseline, "building a service must not spawn");
    let mut mirror = catalog.clone();
    epoch(&svc, &mut mirror, 1);
    let spawned = threads();
    assert_eq!(
        spawned,
        baseline + 2,
        "the first fan-out spawns both workers"
    );
    for seed in 2..22 {
        epoch(&svc, &mut mirror, seed);
        assert_eq!(threads(), spawned, "epoch {seed} changed the thread count");
    }
    drop(svc);
    assert_eq!(
        threads(),
        baseline,
        "dropping the service joins its workers"
    );

    for seed in 0..50 {
        let svc = service(&catalog);
        epoch(&svc, &mut catalog.clone(), seed);
    }
    assert_eq!(threads(), baseline, "50 services left threads behind");
}
