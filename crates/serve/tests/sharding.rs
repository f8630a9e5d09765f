//! Shard-equivalence tests: an N-shard [`ShardedService`] must be
//! observationally identical to the unsharded engine for every plan the
//! analyzer proves shard-safe — the paper's three TPC-H evaluation views
//! — across seeded insert/delete schedules, including heavy-key
//! promotions forced mid-schedule — at 1, 2 and 4 shards.

use gpivot_core::SourceDeltas;
use gpivot_exec::Executor;
use gpivot_serve::{IngestOptions, ServeConfig, ShardedService, ViewPlacement};
use gpivot_storage::Catalog;
use gpivot_tpch::gen::{generate, TpchConfig};
use gpivot_tpch::views::{view1, view2, view3, VIEW2_THRESHOLD};
use gpivot_tpch::workload;
use proptest::prelude::*;

fn small_catalog() -> Catalog {
    generate(&TpchConfig {
        empty_order_fraction: 0.25,
        ..TpchConfig::scale(0.02)
    })
}

/// Shard counts under test.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn sharded_service(catalog: Catalog, shards: usize, heavy_threshold: u64) -> ShardedService {
    let cfg = ServeConfig::builder()
        .workers(4)
        .shards(shards)
        .heavy_key_threshold(heavy_threshold)
        .build()
        .unwrap();
    let svc = ShardedService::new(catalog, cfg);
    svc.register_view("view1", view1()).unwrap();
    svc.register_view("view2", view2(VIEW2_THRESHOLD)).unwrap();
    svc.register_view("view3", view3()).unwrap();
    svc
}

/// One batch of the §7 delta workloads, picked by `kind`.
fn batch_for(kind: u8, mirror: &Catalog, seed: u64) -> SourceDeltas {
    match kind % 4 {
        0 => workload::mixed_batch(mirror, 0.02, seed),
        1 => workload::order_churn(mirror, 0.015, seed),
        2 => workload::delete_fraction(mirror, "lineitem", 0.01, seed),
        _ => workload::insert_new_rows(mirror, 0.015, seed),
    }
}

/// Every view must equal its definition recomputed from scratch over the
/// mirror catalog — for every shard count, so all shardings are
/// transitively bag-equal to each other too.
fn assert_all_match_oracle(services: &[(usize, ShardedService)], mirror: &Catalog) {
    for (shards, svc) in services {
        let snap = svc.snapshot();
        for (name, plan) in [
            ("view1", view1()),
            ("view2", view2(VIEW2_THRESHOLD)),
            ("view3", view3()),
        ] {
            let got = snap.query_view(name).unwrap();
            let expected = Executor::new().run(&plan, mirror).unwrap();
            assert!(
                got.bag_eq(&expected),
                "{name} with {shards} shard(s) diverged at epoch {}: \
                 got {} rows, want {}",
                snap.epoch(),
                got.len(),
                expected.len(),
            );
        }
        drop(snap);
        assert!(svc.verify_all().unwrap(), "{shards}-shard self-check");
    }
}

#[test]
fn all_three_views_prove_shard_safe_and_place_sharded() {
    let svc = sharded_service(small_catalog(), 4, 0);
    for name in ["view1", "view2", "view3"] {
        let placement = svc.placement(name).unwrap();
        match placement {
            ViewPlacement::Sharded { diagnostic, .. } => {
                assert!(diagnostic.contains("GP024"), "{name}: {diagnostic}");
            }
            other => panic!("{name} must place sharded, got {other:?}"),
        }
    }
    // The direct analyzer verdict agrees with the placement decision.
    let catalog = small_catalog();
    for plan in [view1(), view2(VIEW2_THRESHOLD), view3()] {
        assert!(gpivot_analyze::shard_safety(&plan, &catalog).is_safe());
    }
}

#[test]
fn unprovable_plan_registers_single_shard_with_info_diagnostic() {
    use gpivot_algebra::{AggSpec, Plan};
    let svc = sharded_service(small_catalog(), 2, 0);
    // A global aggregate has no group key to partition on: unprovable,
    // but it must still register (on the root) rather than error.
    let global =
        Plan::scan("lineitem").group_by(&[], vec![AggSpec::sum("l_extendedprice", "revenue")]);
    svc.register_view("revenue_total", global).unwrap();
    let placement = svc.placement("revenue_total").unwrap();
    assert!(!placement.is_sharded());
    let diag = placement.diagnostic().unwrap().to_string();
    assert!(diag.contains("GP023"), "{diag}");
    assert!(diag.contains("info"), "GP023 must be Info severity: {diag}");
    // It refreshes and serves alongside the sharded views.
    let batch = workload::mixed_batch(&small_catalog(), 0.02, 7);
    for table in batch.tables() {
        svc.ingest_with(
            table,
            batch.delta(table).unwrap().clone(),
            IngestOptions::blocking(),
        )
        .unwrap();
    }
    svc.refresh_epoch().unwrap();
    assert_eq!(svc.query_view("revenue_total").unwrap().len(), 1);
    assert!(svc.verify_all().unwrap());
}

/// A merged read has the shape of an unsharded one: the same schema
/// (key declaration included), the same bag.
#[test]
fn one_and_two_shard_reads_are_the_same_bag_with_the_same_schema() {
    let one = sharded_service(small_catalog(), 1, 0);
    let two = sharded_service(small_catalog(), 2, 0);
    let batch = workload::mixed_batch(&small_catalog(), 0.02, 11);
    for svc in [&one, &two] {
        for table in batch.tables() {
            let delta = batch.delta(table).unwrap().clone();
            svc.ingest_with(table, delta, IngestOptions::blocking())
                .unwrap();
        }
        svc.refresh_epoch().unwrap();
        assert!(svc.verify_all().unwrap());
    }
    for name in ["view1", "view2", "view3"] {
        let (a, b) = (one.query_view(name).unwrap(), two.query_view(name).unwrap());
        assert_eq!(a.schema(), b.schema(), "{name}");
        assert!(a.bag_eq(&b), "{name}: {} vs {} rows", a.len(), b.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// The core equivalence property: for a random seeded schedule of §7
    /// workload batches, every shard count in the matrix refreshes to
    /// exactly the unsharded oracle's contents for all three views —
    /// with the heavy-key threshold set low enough that churned custkeys
    /// are promoted to the heavy shard mid-schedule.
    #[test]
    fn n_shard_refresh_is_bag_equal_to_unsharded_oracle(
        schedule in prop::collection::vec((0u8..4, 0u64..10_000), 2..4),
        promote_seed in 0u64..10_000,
    ) {
        let catalog = small_catalog();
        let mut mirror = catalog.clone();
        // Threshold 2: one churn round (delete+insert) on a custkey is
        // enough to promote it, so promotions fire mid-schedule.
        let services: Vec<(usize, ShardedService)> = SHARD_COUNTS
            .into_iter()
            .map(|n| (n, sharded_service(catalog.clone(), n, 2)))
            .collect();
        assert_all_match_oracle(&services, &mirror); // initial materialization

        // Force at least one promotion-heavy batch into the middle.
        let mut rounds: Vec<(u8, u64)> = schedule.clone();
        rounds.insert(rounds.len() / 2, (1, promote_seed));

        for (kind, seed) in rounds {
            let batch = batch_for(kind, &mirror, seed);
            for table in batch.tables() {
                let delta = batch.delta(table).unwrap();
                for (_, svc) in &services {
                    svc.ingest_with(table, delta.clone(), IngestOptions::blocking())
                        .unwrap();
                }
                mirror.apply_delta(table, delta).unwrap();
            }
            for (_, svc) in &services {
                svc.refresh_epoch().unwrap();
            }
            assert_all_match_oracle(&services, &mirror);
        }

        // The promotion machinery actually engaged on the sharded runs
        // (order churn always touches partitioned custkeys).
        for (shards, svc) in &services {
            if *shards > 1 {
                prop_assert!(
                    !svc.heavy_keys().is_empty(),
                    "{shards}-shard run should have promoted at least one key"
                );
            }
        }
    }
}
