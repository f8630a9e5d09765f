//! End-to-end tests over the paper's three evaluation views (Figures 32,
//! 36, 39) on TPC-H-shaped data: normalization reaches the expected shape,
//! the planner picks the paper's strategy, and *every applicable strategy*
//! converges to the recomputed state under all three §7.2 workloads.

use gpivot::prelude::*;
use gpivot::tpch::{
    delete_fraction, generate, insert_new_rows, insert_updates_only, view1, view2, view3,
    TpchConfig,
};

fn catalog() -> Catalog {
    let c = generate(&TpchConfig {
        empty_order_fraction: 0.25,
        ..TpchConfig::scale(0.02)
    });
    // `check_strategy` relies on the widest join taking the worker pool.
    assert!(c.table("lineitem").unwrap().len() + c.table("orders").unwrap().len() >= 1024);
    c
}

#[test]
fn view1_normalizes_to_pivot_top() {
    let c = catalog();
    let nv = normalize_view(&view1(), &c).unwrap();
    assert!(
        matches!(nv.shape, TopShape::PivotTop { .. }),
        "view (1) must normalize to GPivot-on-top; got {:?}\nplan:\n{}",
        nv.shape,
        nv.plan
    );
    // The pivot was pulled through two joins.
    assert!(nv.log.iter().filter(|r| r.contains("pullup-join")).count() >= 2);
}

#[test]
fn view2_normalizes_to_select_over_pivot() {
    let c = catalog();
    let nv = normalize_view(&view2(30_000.0), &c).unwrap();
    assert!(
        matches!(nv.shape, TopShape::SelectOverPivot { .. }),
        "view (2) must normalize to Select-over-GPivot; got {:?}\nplan:\n{}",
        nv.shape,
        nv.plan
    );
}

#[test]
fn view3_normalizes_to_pivot_over_group_by() {
    let c = catalog();
    let nv = normalize_view(&view3(), &c).unwrap();
    assert!(
        matches!(nv.shape, TopShape::PivotOverGroupBy { .. }),
        "view (3) must keep GPivot over GroupBy; got {:?}\nplan:\n{}",
        nv.shape,
        nv.plan
    );
}

#[test]
fn normalized_views_are_equivalent_to_originals() {
    let c = catalog();
    for (name, plan) in [
        ("view1", view1()),
        ("view2", view2(30_000.0)),
        ("view3", view3()),
    ] {
        let nv = normalize_view(&plan, &c).unwrap();
        let original = Executor::new().run(&plan, &c).unwrap();
        let rewritten = Executor::new().run(&nv.view_plan(), &c).unwrap();
        assert_eq!(
            original.schema().column_names(),
            rewritten.schema().column_names(),
            "{name}: column names changed"
        );
        assert!(
            original.bag_eq(&rewritten),
            "{name}: normalization changed the view contents"
        );
    }
}

#[test]
fn planner_picks_the_papers_strategies() {
    let vm = ViewManager::new(catalog());
    assert_eq!(vm.choose_strategy(&view1()), Strategy::PivotUpdate);
    assert_eq!(
        vm.choose_strategy(&view2(30_000.0)),
        Strategy::SelectPivotUpdate
    );
    assert_eq!(vm.choose_strategy(&view3()), Strategy::GroupPivotUpdate);
}

/// Maintain `plan` with `strategy` under `deltas` — on a single-threaded
/// and on a four-thread executor; at this scale `lineitem ⋈ orders` reads
/// over 1 024 rows, so materialization and verification run the
/// partitioned kernels on the pool — and check each result matches
/// recomputation over the post-update state.
fn check_strategy(plan: &Plan, strategy: Strategy, deltas: &SourceDeltas) {
    let mut post = catalog();
    for (table, delta) in deltas.iter() {
        post.apply_delta(table, delta).unwrap();
    }
    // The oracle runs the other kernel family (row-at-a-time, one thread).
    let expected = Executor::new()
        .with_columnar(false)
        .run(plan, &post)
        .unwrap();
    for threads in [1, 4] {
        let mut vm = ViewManager::new(catalog()).with_exec(Executor::new().with_threads(threads));
        vm.register_view_with("v", plan.clone(), strategy)
            .unwrap_or_else(|e| panic!("create with {strategy}, {threads} threads: {e}"));
        vm.refresh(deltas)
            .unwrap_or_else(|e| panic!("refresh with {strategy}, {threads} threads: {e}"));
        assert!(
            vm.verify_view("v").unwrap(),
            "strategy {strategy} diverged from recomputation at {threads} threads"
        );
        assert!(
            vm.query_view("v").unwrap().bag_eq(&expected),
            "strategy {strategy} at {threads} threads is not the definition's bag"
        );
    }
}

fn workloads(c: &Catalog) -> Vec<(&'static str, SourceDeltas)> {
    vec![
        ("delete-1pct", delete_fraction(c, "lineitem", 0.01, 11)),
        ("insert-updates", insert_updates_only(c, 0.01, 12)),
        ("insert-new", insert_new_rows(c, 0.01, 13)),
        ("mixed", {
            let mut d = delete_fraction(c, "lineitem", 0.005, 14);
            let ins = insert_new_rows(c, 0.005, 15);
            d.add_delta("lineitem", ins.delta("lineitem").unwrap().clone());
            d
        }),
    ]
}

#[test]
fn view1_all_strategies_converge() {
    let c = catalog();
    for (wname, deltas) in workloads(&c) {
        for strategy in [
            Strategy::Recompute,
            Strategy::InsertDelete,
            Strategy::PivotUpdate,
        ] {
            eprintln!("view1 / {wname} / {strategy}");
            check_strategy(&view1(), strategy, &deltas);
        }
    }
}

#[test]
fn view2_all_strategies_converge() {
    let c = catalog();
    let plan = view2(30_000.0);
    for (wname, deltas) in workloads(&c) {
        for strategy in [
            Strategy::Recompute,
            Strategy::InsertDelete,
            Strategy::SelectPushdownUpdate,
            Strategy::SelectPivotUpdate,
        ] {
            eprintln!("view2 / {wname} / {strategy}");
            check_strategy(&plan, strategy, &deltas);
        }
    }
}

#[test]
fn view3_all_strategies_converge() {
    let c = catalog();
    let plan = view3();
    for (wname, deltas) in workloads(&c) {
        for strategy in [
            Strategy::Recompute,
            Strategy::GroupByInsDel,
            Strategy::GroupPivotUpdate,
        ] {
            eprintln!("view3 / {wname} / {strategy}");
            check_strategy(&plan, strategy, &deltas);
        }
    }
}

#[test]
fn repeated_refresh_cycles_stay_consistent() {
    // Several maintenance cycles in sequence, mixing workload shapes.
    let mut vm = ViewManager::new(catalog());
    vm.register_view("v1", view1()).unwrap();
    vm.register_view("v2", view2(30_000.0)).unwrap();
    vm.register_view("v3", view3()).unwrap();

    for round in 0..4 {
        let c = vm.catalog().clone();
        let deltas = match round % 3 {
            0 => delete_fraction(&c, "lineitem", 0.005, 100 + round),
            1 => insert_updates_only(&c, 0.005, 100 + round),
            _ => insert_new_rows(&c, 0.005, 100 + round),
        };
        vm.refresh(&deltas).unwrap();
        for v in ["v1", "v2", "v3"] {
            assert!(
                vm.verify_view(v).unwrap(),
                "{v} out of sync after round {round}"
            );
        }
    }
}
