//! Fuzzing the rewrite driver and the maintenance planner with *generated
//! plans*: random (but always well-typed) operator stacks over a fixed
//! schema. For every generated view the normalization must preserve
//! semantics, and the auto-selected maintenance strategy must converge.

use gpivot::prelude::*;
use proptest::prelude::{prop, proptest, ProptestConfig};

use std::sync::Arc;

fn catalog() -> Catalog {
    let facts_schema = Schema::from_pairs_keyed(
        &[
            ("id", DataType::Int),
            ("attr", DataType::Str),
            ("val", DataType::Int),
            ("qty", DataType::Int),
        ],
        &["id", "attr"],
    )
    .unwrap();
    let mut rows = Vec::new();
    for id in 0..18i64 {
        for (ai, attr) in ["a", "b", "c"].iter().enumerate() {
            if (id + ai as i64) % 3 != 0 {
                rows.push(row![id, *attr, (id * 7 + ai as i64) % 50, id % 9]);
            }
        }
    }
    let facts = Table::from_rows(Arc::new(facts_schema), rows).unwrap();
    let dims_schema = Schema::from_pairs_keyed(
        &[("d_id", DataType::Int), ("grp", DataType::Str)],
        &["d_id"],
    )
    .unwrap();
    let dims = Table::from_rows(
        Arc::new(dims_schema),
        (0..18i64)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::str(["x", "y", "z"][(i % 3) as usize]),
                ])
            })
            .collect(),
    )
    .unwrap();
    let mut c = Catalog::new();
    c.register("facts", facts).unwrap();
    c.register("dims", dims).unwrap();
    c
}

/// Deterministically build a well-typed plan from a byte string: each byte
/// proposes one operator on top of the current plan; proposals that do not
/// type-check are skipped. This biases generation toward interesting stacks
/// (pivot under join under select …) while guaranteeing validity.
fn build_plan(choices: &[u8], c: &Catalog) -> Plan {
    let mut plan = Plan::scan("facts");
    for &b in choices {
        let Ok(schema) = plan.schema(c) else { break };
        let cols: Vec<String> = schema
            .column_names()
            .into_iter()
            .map(str::to_string)
            .collect();
        let pick = |n: u8| cols[(n as usize) % cols.len()].clone();

        let candidate: Option<Plan> = match b % 7 {
            // Selection on some column (numeric comparison or IN-list).
            0 => {
                let col = pick(b / 7);
                let pred = if b % 2 == 0 {
                    Expr::col(&col).gt(Expr::lit((b as i64) % 40))
                } else {
                    Expr::col(&col).in_list(vec![
                        Value::str("a"),
                        Value::str("x"),
                        Value::Int((b as i64) % 10),
                    ])
                };
                Some(plan.clone().select(pred))
            }
            // Pivot val/qty by attr, if those columns are still around.
            1 => {
                if cols.contains(&"attr".to_string()) && cols.contains(&"val".to_string()) {
                    let on = if cols.contains(&"qty".to_string()) && b % 2 == 0 {
                        vec!["val", "qty"]
                    } else {
                        vec!["val"]
                    };
                    Some(plan.clone().gpivot(PivotSpec::new(
                        vec!["attr"],
                        on,
                        vec![
                            vec![Value::str("a")],
                            vec![Value::str("b")],
                            vec![Value::str("c")],
                        ],
                    )))
                } else {
                    None
                }
            }
            // Join the dimension table once.
            2 => {
                if cols.contains(&"id".to_string()) && !cols.contains(&"d_id".to_string()) {
                    Some(plan.clone().join(Plan::scan("dims"), vec![("id", "d_id")]))
                } else {
                    None
                }
            }
            // Permute / duplicate-free projection keeping everything
            // (rotation by b).
            3 => {
                let mut rotated = cols.clone();
                rotated.rotate_left((b as usize) % cols.len().max(1));
                Some(
                    plan.clone()
                        .project_cols(&rotated.iter().map(String::as_str).collect::<Vec<_>>()),
                )
            }
            // Group by one column, summing/counting another.
            4 => {
                let g = pick(b / 7);
                let a = pick(b / 3);
                if g == a {
                    None
                } else {
                    Some(plan.clone().group_by(
                        &[g.as_str()],
                        vec![AggSpec::sum(&a, "agg_sum"), AggSpec::count_star("agg_cnt")],
                    ))
                }
            }
            // Unpivot a previously created pivot's cells.
            5 => {
                let cells: Vec<String> = cols
                    .iter()
                    .filter(|c| c.contains("**val"))
                    .cloned()
                    .collect();
                if cells.len() >= 2 {
                    Some(plan.clone().gunpivot(UnpivotSpec::simple(
                        cells.iter().map(String::as_str).collect::<Vec<_>>(),
                        "which",
                        "cell_val",
                    )))
                } else {
                    None
                }
            }
            // Selection over a pivoted cell (SELECT-over-GPIVOT shapes).
            _ => {
                let cell = cols.iter().find(|c| c.contains("**"));
                cell.map(|cell| {
                    plan.clone()
                        .select(Expr::col(cell).gt(Expr::lit((b as i64) % 30)))
                })
            }
        };
        if let Some(candidate) = candidate {
            // Keep only well-typed extensions; also bound tree growth.
            if candidate.schema(c).is_ok() && candidate.node_count() <= 16 {
                plan = candidate;
            }
        }
    }
    plan
}

fn deltas() -> SourceDeltas {
    let mut d = SourceDeltas::new();
    d.delete_rows("facts", vec![row![1, "b", 8, 1], row![4, "b", 29, 4]]);
    d.insert_rows(
        "facts",
        vec![
            row![0, "a", 13, 3],
            row![20, "b", 5, 2],
            row![21, "c", 44, 3],
        ],
    );
    d.delete_rows("dims", vec![row![5, "z"]]);
    d.insert_rows("dims", vec![row![5, "w"], row![20, "x"], row![21, "y"]]);
    d
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn normalization_preserves_random_plans(
        choices in prop::collection::vec(0u8..=255, 0..10)
    ) {
        let c = catalog();
        let plan = build_plan(&choices, &c);
        let nv = normalize_view(&plan, &c).unwrap();
        let original = Executor::new().run(&plan, &c).unwrap();
        let rewritten = Executor::new().run(&nv.view_plan(), &c).unwrap();
        assert_eq!(
            original.schema().column_names(),
            rewritten.schema().column_names(),
            "columns changed for plan:\n{plan}\nnormalized:\n{}",
            nv.plan
        );
        assert_eq!(
            original.sorted_rows(),
            rewritten.sorted_rows(),
            "contents changed for plan:\n{plan}\nnormalized:\n{}\nrules: {:?}",
            nv.plan,
            nv.log
        );
    }

    #[test]
    fn auto_strategy_converges_on_random_plans(
        choices in prop::collection::vec(0u8..=255, 0..10)
    ) {
        let c = catalog();
        let plan = build_plan(&choices, &c);
        let mut vm = ViewManager::new(c);
        let strategy = vm.register_view("v", plan.clone()).unwrap();
        vm.refresh(&deltas()).unwrap();
        assert!(
            vm.verify_view("v").unwrap(),
            "strategy {strategy} diverged for plan:\n{plan}"
        );
    }
}

#[test]
fn generator_produces_interesting_plans() {
    // Sanity-check the fuzz generator itself: across a spread of seeds it
    // must produce plans with pivots, joins, selects and group-bys — not
    // just bare scans.
    let c = catalog();
    let mut with_pivot = 0;
    let mut with_join = 0;
    let mut with_groupby = 0;
    let mut max_nodes = 0;
    for seed in 0u8..=254 {
        let choices: Vec<u8> = (0u8..8)
            .map(|i| seed.wrapping_mul(31).wrapping_add(i.wrapping_mul(57)))
            .collect();
        let plan = build_plan(&choices, &c);
        max_nodes = max_nodes.max(plan.node_count());
        if plan.pivot_count() > 0 {
            with_pivot += 1;
        }
        if plan.explain().contains("Join") {
            with_join += 1;
        }
        if plan.explain().contains("GroupBy") {
            with_groupby += 1;
        }
    }
    assert!(with_pivot > 40, "only {with_pivot} plans had pivots");
    assert!(with_join > 20, "only {with_join} plans had joins");
    assert!(with_groupby > 20, "only {with_groupby} plans had group-bys");
    assert!(max_nodes >= 6, "max plan size {max_nodes} too small");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The propagate phase is exact on arbitrary operator stacks: the
    /// compiled delta program's Δ(plan) == plan(post) − plan(pre) as
    /// signed multisets.
    #[test]
    fn delta_propagation_oracle_on_random_plans(
        choices in prop::collection::vec(0u8..=255, 0..10)
    ) {
        use gpivot::core::maintain::{consolidate, DeltaProgram, PropagationCtx};

        let c = catalog();
        let plan = build_plan(&choices, &c);
        let d = deltas();
        let ctx = PropagationCtx::new(&c, &d);
        let program = DeltaProgram::compile(&plan, &c).unwrap();
        let got = consolidate(program.propagate(&ctx).unwrap());

        let pre = Executor::new().run(&plan, &c).unwrap();
        let mut post_catalog = c.clone();
        for t in d.tables() {
            post_catalog.apply_delta(t, d.delta(t).unwrap()).unwrap();
        }
        let post = Executor::new().run(&plan, &post_catalog).unwrap();
        let mut expected = Delta::from_deletes(pre.rows().iter().cloned());
        expected.merge(&Delta::from_inserts(post.rows().iter().cloned()));
        assert_eq!(got, expected, "delta mismatch for plan:\n{plan}");
    }
}
