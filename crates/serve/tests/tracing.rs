//! Observability integration: the span-timing histograms exported through
//! [`gpivot_serve::MetricsSnapshot`] must reconcile with the epoch
//! wall-clock counters the service has always kept — same measurements,
//! two views of them.

use gpivot_algebra::{PivotSpec, PlanBuilder};
use gpivot_serve::{IngestOptions, ServeConfig, ViewService};
use gpivot_storage::{row, Catalog, DataType, Delta, Schema, Table, Value};
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

fn pivot_plan() -> gpivot_algebra::plan::Plan {
    PlanBuilder::scan("facts")
        .gpivot(PivotSpec::simple(
            "attr",
            "val",
            vec![Value::str("a"), Value::str("b")],
        ))
        .build()
}

#[test]
fn phase_histograms_reconcile_with_epoch_wall_clock() {
    let svc = ViewService::new(
        catalog(),
        ServeConfig::builder().workers(2).build().unwrap(),
    );
    svc.register_view("pv", pivot_plan()).unwrap();

    const EPOCHS: u64 = 5;
    for i in 0..EPOCHS {
        svc.ingest_with(
            "facts",
            Delta::from_inserts(vec![row![100 + i as i64, "a", 1]]),
            IngestOptions::blocking(),
        )
        .unwrap();
        svc.refresh_epoch().unwrap();
    }
    // One empty no-op epoch on top: drains, but must not record an
    // `epoch` sample (the epoch counter does not advance either).
    svc.refresh_epoch().unwrap();

    let m = svc.metrics();
    assert_eq!(m.epochs, EPOCHS);

    // The `epoch` histogram is fed the same measured duration as the
    // `refresh_time` / `last_epoch_time` counters, so reconciliation is
    // exact, not approximate.
    let epoch_h = m.phase_timings.get("epoch").expect("epoch histogram");
    assert_eq!(epoch_h.count(), m.epochs, "one epoch sample per epoch");
    assert_eq!(
        epoch_h.total(),
        m.refresh_time,
        "epoch histogram total must equal the refresh_time counter"
    );
    assert!(epoch_h.max() >= m.last_epoch_time || epoch_h.max() == m.last_epoch_time);
    assert!(epoch_h.min() <= m.mean_epoch_time().unwrap());

    // Coordinator sub-phases are disjoint intervals inside each epoch's
    // wall clock, so their totals can never exceed it.
    let mut sub_total = Duration::ZERO;
    for name in ["epoch.propagate", "epoch.stage", "epoch.commit"] {
        let h = m
            .phase_timings
            .get(name)
            .unwrap_or_else(|| panic!("{name} histogram missing"));
        assert_eq!(h.count(), m.epochs, "{name} fires once per committed epoch");
        sub_total += h.total();
    }
    assert!(
        sub_total <= m.refresh_time,
        "sub-phase totals {sub_total:?} exceed epoch wall clock {:?}",
        m.refresh_time
    );
    // The drain span also fires for the trailing empty no-op epoch.
    let drain = m.phase_timings.get("epoch.drain").expect("drain histogram");
    assert_eq!(drain.count(), m.epochs + 1);

    // Worker-side phases: with no faults armed, attempts == refreshes.
    let refreshes: u64 = m.per_view.values().map(|v| v.refreshes).sum();
    assert_eq!(refreshes, EPOCHS);
    let attempts = m
        .phase_timings
        .get("view.attempt")
        .expect("view.attempt histogram");
    assert_eq!(attempts.count(), refreshes);
    for name in ["maintain.propagate", "maintain.apply", "maintain.stage"] {
        assert!(
            m.phase_timings.contains_key(name),
            "{name} histogram missing"
        );
    }
    // `maintain.commit` fires inside `commit_epoch` under `epoch.commit`.
    assert!(m.phase_timings.contains_key("maintain.commit"));
    // Compile-time spans from `register_view`.
    assert!(m.phase_timings.contains_key("compile.view"));
    // Operator self-times recorded while materializing / propagating.
    assert!(!m.operator_timings.is_empty(), "no op.* spans recorded");
    assert!(m.operator_timings.keys().all(|k| k.starts_with("op.")));
    assert!(m.phase_timings.keys().all(|k| !k.starts_with("op.")));
    // Clean run: no retry or quarantine events fired.
    assert_eq!(m.trace_events.get("view.retry"), None);
    assert_eq!(m.trace_events.get("view.quarantine"), None);

    // The Prometheus exposition carries the same reconciling count.
    let text = m.prometheus();
    assert!(text.contains(&format!(
        "gpivot_span_duration_seconds_count{{span=\"epoch\"}} {}",
        m.epochs
    )));
    assert!(text.contains(&format!("gpivot_epochs_total {}", m.epochs)));
}

/// A TPC-H epoch records the spans below `maintain.propagate` /
/// `maintain.apply` that attribute maintenance cost: the delta joins, and
/// Fig. 29's candidate recompute (new orders make absent view (2) keys
/// candidates). The delta joins run inside propagation, so their total is
/// bounded by it.
#[test]
fn tpch_epoch_attributes_delta_joins_and_candidates() {
    use gpivot_tpch::gen::{generate, TpchConfig};
    use gpivot_tpch::views::{view2, VIEW2_THRESHOLD};
    use gpivot_tpch::workload;

    let catalog = generate(&TpchConfig {
        empty_order_fraction: 0.25,
        ..TpchConfig::scale(0.02)
    });
    let batch = workload::insert_new_rows(&catalog, 0.01, 7);
    let svc = ViewService::new(catalog, ServeConfig::default());
    svc.register_view("view2", view2(VIEW2_THRESHOLD)).unwrap();
    for (table, delta) in batch.iter() {
        svc.ingest_with(table, delta.clone(), IngestOptions::blocking())
            .unwrap();
    }
    svc.refresh_epoch().unwrap();

    let m = svc.metrics();
    let span = |name: &str| {
        m.phase_timings
            .get(name)
            .unwrap_or_else(|| panic!("{name} histogram missing"))
    };
    for name in ["maintain.delta_join", "maintain.candidates"] {
        assert!(span(name).count() > 0, "{name} never fired");
    }
    assert!(span("maintain.delta_join").total() <= span("maintain.propagate").total());
}

/// Two services running concurrently must not leak spans into each other's
/// histograms: collectors are scoped per service, never global.
#[test]
fn concurrent_services_have_isolated_histograms() {
    let a = ViewService::new(catalog(), ServeConfig::default());
    let b = ViewService::new(catalog(), ServeConfig::default());
    a.register_view("pv", pivot_plan()).unwrap();
    b.register_view("pv", pivot_plan()).unwrap();

    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..3i64 {
                a.ingest_with(
                    "facts",
                    Delta::from_inserts(vec![row![50 + i, "a", 1]]),
                    IngestOptions::blocking(),
                )
                .unwrap();
                a.refresh_epoch().unwrap();
            }
        });
        s.spawn(|| {
            b.ingest_with(
                "facts",
                Delta::from_inserts(vec![row![90, "b", 2]]),
                IngestOptions::blocking(),
            )
            .unwrap();
            b.refresh_epoch().unwrap();
        });
    });

    let (ma, mb) = (a.metrics(), b.metrics());
    assert_eq!(ma.phase_timings["epoch"].count(), 3);
    assert_eq!(mb.phase_timings["epoch"].count(), 1);
    assert_eq!(ma.phase_timings["epoch"].total(), ma.refresh_time);
    assert_eq!(mb.phase_timings["epoch"].total(), mb.refresh_time);
}

/// A failing epoch records the rollback span and the quarantine event once
/// the view crosses its failure threshold — and the `epoch` histogram still
/// only counts *committed* epochs.
#[test]
fn rollback_and_quarantine_are_traced() {
    use gpivot_storage::{FaultInjector, FaultSite};
    let injector =
        FaultInjector::seeded(1).with_targeted_site(FaultSite::Propagate, 1.0, 0.0, "pv");
    injector.disarm();
    let mut cat = catalog();
    cat.set_fault_injector(injector.clone());
    let svc = ViewService::new(
        cat,
        ServeConfig::builder()
            .workers(1)
            .max_retries(0)
            .quarantine_after(1)
            .build()
            .unwrap(),
    );
    svc.register_view("pv", pivot_plan()).unwrap();

    injector.arm();
    svc.ingest_with(
        "facts",
        Delta::from_inserts(vec![row![60, "a", 1]]),
        IngestOptions::blocking(),
    )
    .unwrap();
    assert!(svc.refresh_epoch().is_err());
    injector.disarm();

    let m = svc.metrics();
    assert_eq!(m.epochs, 0);
    assert_eq!(m.epochs_failed, 1);
    assert!(!m.phase_timings.contains_key("epoch"));
    assert_eq!(m.phase_timings["epoch.rollback"].count(), 1);
    assert_eq!(m.trace_events.get("view.quarantine"), Some(&1));
}
