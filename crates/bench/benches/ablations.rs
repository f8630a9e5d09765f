//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **apply-mode** — §2.3's claim that in-place MERGE updates beat
//!   delete + re-insert: `PivotUpdate` vs `InsertDelete` on a *pure pivot*
//!   view (no joins), isolating the apply phase.
//! * **pivot-combine** — §4.2's claim that the combination rules also help
//!   plain query execution: one combined GPIVOT vs two stacked GPIVOTs.
//! * **select-strategy** — Fig. 29's combined σ/GPIVOT rules vs the Eq. 7
//!   select-pushdown alternative at a fixed delta fraction.
//! * **scale** — `PivotUpdate` refresh cost across database scale factors
//!   at a fixed delta fraction (incremental cost should track delta size,
//!   not database size, until the per-run fixed costs dominate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpivot_algebra::{PivotSpec, Plan};
use gpivot_bench::{bench_catalog, PreparedView, Workload};
use gpivot_core::Strategy;
use gpivot_exec::Executor;
use gpivot_storage::Value;
use gpivot_tpch::views;

/// Pure pivot view over lineitem (no joins): isolates the apply phase.
fn pure_pivot_view() -> Plan {
    Plan::scan("lineitem")
        .project_cols(&["l_orderkey", "l_linenumber", "l_extendedprice"])
        .gpivot(views::line_pivot_spec())
}

fn ablation_apply_mode(c: &mut Criterion) {
    let catalog = bench_catalog(0.5);
    let mut group = c.benchmark_group("ablation_apply_mode");
    group.sample_size(10);
    for strategy in [Strategy::InsertDelete, Strategy::PivotUpdate] {
        let prepared = PreparedView::new(catalog.clone(), pure_pivot_view(), strategy).unwrap();
        // Update-heavy workload: the shape §2.3 says separates the modes.
        let deltas = Workload::InsertUpdates.deltas(&catalog, 0.01, 7);
        group.bench_function(BenchmarkId::new(strategy.id(), "update-1%"), |b| {
            b.iter(|| prepared.timed_run(&deltas).unwrap());
        });
    }
    group.finish();
}

fn ablation_pivot_combine(c: &mut Criterion) {
    // Execute a two-dimensional crosstab either as two stacked pivots or as
    // the combined GPIVOT (Eq. 6).
    let catalog = bench_catalog(0.5);
    let inner = PivotSpec::simple(
        "l_linenumber",
        "l_extendedprice",
        vec![Value::Int(1), Value::Int(2), Value::Int(3)],
    );
    let outer = PivotSpec::new(
        vec!["o_year"],
        inner.output_col_names(),
        vec![
            vec![Value::Int(1994)],
            vec![Value::Int(1995)],
            vec![Value::Int(1996)],
        ],
    );
    let base = || {
        Plan::scan("lineitem")
            .project_cols(&["l_orderkey", "l_linenumber", "l_extendedprice"])
            .join(Plan::scan("orders"), vec![("l_orderkey", "o_orderkey")])
            .project_cols(&["l_orderkey", "o_year", "l_linenumber", "l_extendedprice"])
    };
    let stacked = base().gpivot(inner.clone()).gpivot(outer.clone());
    let combined =
        base().gpivot(gpivot_core::combine::compose_specs(&inner, &outer).expect("composable"));

    let mut group = c.benchmark_group("ablation_pivot_combine");
    group.sample_size(10);
    group.bench_function("stacked", |b| {
        b.iter(|| Executor::new().run(&stacked, &catalog).unwrap());
    });
    group.bench_function("combined", |b| {
        b.iter(|| Executor::new().run(&combined, &catalog).unwrap());
    });
    group.finish();
}

fn ablation_select_strategy(c: &mut Criterion) {
    let catalog = bench_catalog(0.5);
    let plan = views::view2(views::VIEW2_THRESHOLD);
    let mut group = c.benchmark_group("ablation_select_strategy");
    group.sample_size(10);
    for strategy in [Strategy::SelectPushdownUpdate, Strategy::SelectPivotUpdate] {
        let prepared = PreparedView::new(catalog.clone(), plan.clone(), strategy).unwrap();
        let deltas = Workload::Delete.deltas(&catalog, 0.01, 7);
        group.bench_function(BenchmarkId::new(strategy.id(), "delete-1%"), |b| {
            b.iter(|| prepared.timed_run(&deltas).unwrap());
        });
    }
    group.finish();
}

fn ablation_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_scale");
    group.sample_size(10);
    for scale in [0.25, 0.5, 1.0] {
        let catalog = bench_catalog(scale);
        let prepared =
            PreparedView::new(catalog.clone(), views::view1(), Strategy::PivotUpdate).unwrap();
        let deltas = Workload::Delete.deltas(&catalog, 0.01, 7);
        group.bench_function(
            BenchmarkId::new("pivot-update", format!("sf{scale}")),
            |b| {
                b.iter(|| prepared.timed_run(&deltas).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    ablation_apply_mode,
    ablation_pivot_combine,
    ablation_select_strategy,
    ablation_scale
);
criterion_main!(benches);
