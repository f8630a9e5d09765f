//! Equivalence tests for every rewriting rule (§4–§5): each rule is applied
//! to a concrete plan and both the original and the rewritten plan are
//! executed on real data — the rewrite must preserve the bag of results
//! (after the rule's documented column reordering, if any).

use gpivot_algebra::{AggSpec, Expr, JoinKind, PivotSpec, Plan, UnpivotGroup, UnpivotSpec};
use gpivot_core::rewrite::pullup::{
    cancel_pivot_unpivot, pullup_through_group_by, pullup_through_join, pullup_through_project,
    pullup_through_select, push_select_below_pivot_selfjoin, swap_unpivot_below_pivot,
};
use gpivot_core::rewrite::pushdown::{
    cancel_unpivot_pivot, pushdown_through_group_by, pushdown_through_join, pushdown_through_select,
};
use gpivot_core::rewrite::transpose::{
    groupby_through_project, hoist_select_through_join, pivot_through_rename,
};
use gpivot_core::rewrite::unpivot_rules::{
    pull_unpivot_above_group_by, pull_unpivot_above_join, push_select_below_unpivot,
    push_unpivot_below_group_by, push_unpivot_below_select,
};
use gpivot_exec::Executor;
use gpivot_storage::{row, Catalog, DataType, Schema, Table, Value};
use std::sync::Arc;

/// Sales data used across the §5 examples (Figures 9–21).
fn catalog() -> Catalog {
    let sales_schema = Schema::from_pairs_keyed(
        &[
            ("Country", DataType::Str),
            ("Manu", DataType::Str),
            ("Type", DataType::Str),
            ("Price", DataType::Int),
            ("Quantity", DataType::Int),
        ],
        &["Country", "Manu", "Type"],
    )
    .unwrap();
    let sales = Table::from_rows(
        Arc::new(sales_schema),
        vec![
            row!["USA", "Sony", "TV", 220, 10],
            row!["USA", "Sony", "VCR", 150, 5],
            row!["USA", "Panasonic", "TV", 120, 8],
            row!["Japan", "Sony", "TV", 90, 3],
            row!["Japan", "Panasonic", "VCR", 80, 2],
            row!["Germany", "Panasonic", "TV", 300, 9],
            row!["France", "Sony", "VCR", 40, 1],
        ],
    )
    .unwrap();

    let region_schema = Schema::from_pairs_keyed(
        &[("r_country", DataType::Str), ("r_zone", DataType::Str)],
        &["r_country"],
    )
    .unwrap();
    let regions = Table::from_rows(
        Arc::new(region_schema),
        vec![
            row!["USA", "AMER"],
            row!["Japan", "APAC"],
            row!["Germany", "EMEA"],
            row!["France", "EMEA"],
        ],
    )
    .unwrap();

    let mut c = Catalog::new();
    c.register("sales", sales).unwrap();
    c.register("regions", regions).unwrap();
    c
}

fn sony_pana_tv_vcr() -> PivotSpec {
    PivotSpec::cross(
        vec!["Manu", "Type"],
        vec!["Price", "Quantity"],
        vec![
            vec![Value::str("Sony"), Value::str("Panasonic")],
            vec![Value::str("TV"), Value::str("VCR")],
        ],
    )
}

fn type_pivot() -> PivotSpec {
    PivotSpec::simple("Type", "Price", vec![Value::str("TV"), Value::str("VCR")])
}

/// Execute both plans; assert same column names and same bag of rows.
fn assert_equivalent(original: &Plan, rewritten: &Plan, c: &Catalog, what: &str) {
    let a = Executor::new().run(original, c).unwrap();
    let b = Executor::new().run(rewritten, c).unwrap();
    assert_eq!(
        a.schema().column_names(),
        b.schema().column_names(),
        "{what}: column names changed\noriginal:\n{original}\nrewritten:\n{rewritten}"
    );
    // Compare names + row bags (not declared types: CASE/NULL expressions
    // introduced by the rules legitimately widen column types to `Any`).
    assert_eq!(
        a.sorted_rows(),
        b.sorted_rows(),
        "{what}: contents changed\noriginal:\n{original}=>\n{a}\nrewritten:\n{rewritten}=>\n{b}"
    );
}

// ───────────────────────────── §5.1 pullups ─────────────────────────────

#[test]
fn pullup_select_on_k_columns_figure_9() {
    let c = catalog();
    let plan = Plan::scan("sales")
        .gpivot(sony_pana_tv_vcr())
        .select(Expr::col("Country").eq(Expr::lit("USA")));
    let rewritten = pullup_through_select(&plan, &c).unwrap();
    assert!(matches!(rewritten, Plan::GPivot { .. }));
    assert_equivalent(&plan, &rewritten, &c, "pullup-select");
}

#[test]
fn pullup_select_refuses_pivoted_columns() {
    let c = catalog();
    let plan = Plan::scan("sales")
        .gpivot(sony_pana_tv_vcr())
        .select(Expr::col("Sony**TV**Price").gt(Expr::lit(200)));
    assert!(pullup_through_select(&plan, &c).is_err());
}

#[test]
fn eq7_selfjoin_pushdown_single_cell() {
    // Figure 9's σ(Sony**TV**Price > 200).
    let c = catalog();
    let plan = Plan::scan("sales")
        .gpivot(sony_pana_tv_vcr())
        .select(Expr::col("Sony**TV**Price").gt(Expr::lit(200)));
    let rewritten = push_select_below_pivot_selfjoin(&plan, &c).unwrap();
    assert!(
        matches!(rewritten, Plan::GPivot { .. }),
        "pivot must top the result"
    );
    assert_equivalent(&plan, &rewritten, &c, "Eq. 7 single cell");
}

#[test]
fn eq7_selfjoin_pushdown_two_cells() {
    // σ over two different pivoted cells: Sony TV cheaper than Panasonic TV.
    let c = catalog();
    let plan = Plan::scan("sales")
        .gpivot(sony_pana_tv_vcr())
        .select(Expr::col("Sony**TV**Price").lt(Expr::col("Panasonic**TV**Price")));
    let rewritten = push_select_below_pivot_selfjoin(&plan, &c).unwrap();
    assert_equivalent(&plan, &rewritten, &c, "Eq. 7 cell pair");
}

#[test]
fn eq7_conjunction_with_k_atom() {
    let c = catalog();
    let plan = Plan::scan("sales").gpivot(sony_pana_tv_vcr()).select(
        Expr::col("Sony**TV**Price")
            .gt(Expr::lit(50))
            .and(Expr::col("Country").ne(Expr::lit("France"))),
    );
    let rewritten = push_select_below_pivot_selfjoin(&plan, &c).unwrap();
    assert_equivalent(&plan, &rewritten, &c, "Eq. 7 conjunction");
}

#[test]
fn pullup_join_figure_10() {
    let c = catalog();
    let plan = Plan::scan("sales")
        .gpivot(type_pivot())
        .join(Plan::scan("regions"), vec![("Country", "r_country")]);
    let rewritten = pullup_through_join(&plan, &c).unwrap();
    // Wrapped in the order-restoring projection over the pivot.
    assert_eq!(rewritten.pivot_count(), 1);
    assert_equivalent(&plan, &rewritten, &c, "pullup-join");
}

#[test]
fn pullup_join_pivot_on_right() {
    let c = catalog();
    let plan = Plan::Join {
        left: Box::new(Plan::scan("regions")),
        right: Box::new(Plan::scan("sales").gpivot(type_pivot())),
        kind: JoinKind::Inner,
        on: vec![("r_country".into(), "Country".into())],
        residual: None,
    };
    let rewritten = pullup_through_join(&plan, &c).unwrap();
    assert_equivalent(&plan, &rewritten, &c, "pullup-join (right)");
}

#[test]
fn pullup_join_refuses_pivoted_join_columns() {
    let c = catalog();
    // Join on a pivoted cell: §5.1.3's self-join case, refused here.
    let plan = Plan::Join {
        left: Box::new(Plan::scan("sales").gpivot(type_pivot())),
        right: Box::new(Plan::scan("regions")),
        kind: JoinKind::Inner,
        on: vec![("TV**Price".into(), "r_country".into())],
        residual: None,
    };
    assert!(pullup_through_join(&plan, &c).is_err());
}

#[test]
fn pullup_project_refuses_dropping_k_columns() {
    // §5.1.2 / Fig. 8: the pivot output's key is K itself, so a projection
    // that drops any K column (here Quantity) loses the key — pushing it
    // below the pivot would coarsen the pivot's grouping. Witness the
    // non-equivalence: (USA, Sony) has two rows with different quantities,
    // which the pushed-down form would merge.
    let c = catalog();
    let plan = Plan::scan("sales").gpivot(type_pivot()).project_cols(&[
        "Country",
        "Manu",
        "TV**Price",
        "VCR**Price",
    ]);
    assert!(pullup_through_project(&plan, &c).is_err());

    // And indeed the naive pushdown is NOT equivalent:
    let naive = Plan::scan("sales")
        .project_cols(&["Country", "Manu", "Type", "Price"])
        .gpivot(type_pivot());
    let a = Executor::new().run(&plan, &c).unwrap();
    let b = Executor::new().run(&naive, &c).unwrap();
    assert_ne!(a.sorted_rows(), b.sorted_rows());
}

#[test]
fn pullup_project_refuses_dropping_cells() {
    let c = catalog();
    // §5.1.2: π¬VCR(GPIVOT[TV,VCR]) ≠ GPIVOT[TV].
    let plan = Plan::scan("sales").gpivot(type_pivot()).project_cols(&[
        "Country",
        "Manu",
        "Quantity",
        "TV**Price",
    ]);
    assert!(pullup_through_project(&plan, &c).is_err());
}

#[test]
fn eq8_pullup_groupby() {
    // Figure 11's shape: aggregate over pivoted cells.
    let c = catalog();
    let plan = Plan::scan("sales")
        .project_cols(&["Country", "Manu", "Type", "Price"])
        .gpivot(type_pivot())
        .group_by(
            &["Manu"],
            vec![
                AggSpec::sum("TV**Price", "TVTotal"),
                AggSpec::sum("VCR**Price", "VCRTotal"),
            ],
        );
    let rewritten = pullup_through_group_by(&plan, &c).unwrap();
    assert_equivalent(&plan, &rewritten, &c, "Eq. 8");
    // Inner tree: GroupBy below a pivot below the rename projection.
    let Plan::Project { input, .. } = &rewritten else {
        panic!("rename projection")
    };
    let Plan::GPivot { input: gb, .. } = input.as_ref() else {
        panic!("pivot")
    };
    assert!(matches!(gb.as_ref(), Plan::GroupBy { .. }));
}

#[test]
fn eq8_refuses_grouping_on_pivoted_columns() {
    // Figure 10's counter-example: group by a pivoted output column.
    let c = catalog();
    let plan = Plan::scan("sales")
        .project_cols(&["Country", "Manu", "Type", "Price"])
        .gpivot(type_pivot())
        .group_by(&["TV**Price"], vec![AggSpec::count_star("n")]);
    assert!(pullup_through_group_by(&plan, &c).is_err());
}

#[test]
fn eq8_refuses_count_because_of_bottom_semantics() {
    let c = catalog();
    let plan = Plan::scan("sales")
        .project_cols(&["Country", "Manu", "Type", "Price"])
        .gpivot(type_pivot())
        .group_by(
            &["Manu"],
            vec![
                AggSpec::count("TV**Price", "a"),
                AggSpec::count("VCR**Price", "b"),
            ],
        );
    assert!(pullup_through_group_by(&plan, &c).is_err());
}

#[test]
fn eq9_cancellation() {
    let c = catalog();
    let spec = sony_pana_tv_vcr();
    let plan = Plan::scan("sales")
        .gpivot(spec.clone())
        .gunpivot(UnpivotSpec::reversing(&spec));
    let rewritten = cancel_pivot_unpivot(&plan, &c).unwrap();
    assert_eq!(rewritten.pivot_count(), 0);
    assert_equivalent(&plan, &rewritten, &c, "Eq. 9");
}

#[test]
fn eq10_swap_disjoint_parameters() {
    // Pivot by Type, then unpivot the carried (Manu-ish) columns — use a
    // schema where a carried non-key column exists: unpivot Quantity… the
    // carried columns of type_pivot() are Country, Manu, Quantity.
    let c = catalog();
    let spec = type_pivot();
    let unspec = UnpivotSpec::new(
        vec![UnpivotGroup {
            tags: vec![Value::str("Quantity")],
            cols: vec!["Quantity".into()],
        }],
        vec!["Measure"],
        vec!["Val"],
    );
    let plan = Plan::scan("sales").gpivot(spec).gunpivot(unspec);
    let rewritten = swap_unpivot_below_pivot(&plan, &c).unwrap();
    assert_equivalent(&plan, &rewritten, &c, "Eq. 10");
    // The unpivot now runs below the pivot.
    let Plan::Project { input, .. } = &rewritten else {
        panic!("order projection")
    };
    let Plan::GPivot { input: un, .. } = input.as_ref() else {
        panic!("pivot on top")
    };
    assert!(matches!(un.as_ref(), Plan::GUnpivot { .. }));
}

// ───────────────────────────── §5.2 pushdowns ────────────────────────────

#[test]
fn eq11_pushdown_select_dimension_atom() {
    // Figure 13's σ(Type = TV) under the pivot.
    let c = catalog();
    let plan = Plan::scan("sales")
        .select(Expr::col("Type").eq(Expr::lit("TV")))
        .gpivot(sony_pana_tv_vcr());
    let rewritten = pushdown_through_select(&plan, &c).unwrap();
    assert_equivalent(&plan, &rewritten, &c, "Eq. 11 dimension");
    // The pivot moved below the selection machinery.
    let Plan::Select { input, .. } = &rewritten else {
        panic!("not-all-⊥ select")
    };
    assert!(matches!(input.as_ref(), Plan::Project { .. }));
}

#[test]
fn eq11_pushdown_select_measure_atom() {
    // Figure 13's σ(Price = 220).
    let c = catalog();
    let plan = Plan::scan("sales")
        .select(Expr::col("Price").eq(Expr::lit(220)))
        .gpivot(sony_pana_tv_vcr());
    let rewritten = pushdown_through_select(&plan, &c).unwrap();
    assert_equivalent(&plan, &rewritten, &c, "Eq. 11 measure");
}

#[test]
fn eq11_pushdown_select_k_atom_commutes() {
    let c = catalog();
    let plan = Plan::scan("sales")
        .select(Expr::col("Country").eq(Expr::lit("USA")))
        .gpivot(sony_pana_tv_vcr());
    let rewritten = pushdown_through_select(&plan, &c).unwrap();
    assert_equivalent(&plan, &rewritten, &c, "Eq. 11 K-atom");
}

#[test]
fn eq11_mixed_conjunction() {
    let c = catalog();
    let plan = Plan::scan("sales")
        .select(
            Expr::col("Type")
                .eq(Expr::lit("TV"))
                .and(Expr::col("Price").ge(Expr::lit(100)))
                .and(Expr::col("Country").ne(Expr::lit("Japan"))),
        )
        .gpivot(sony_pana_tv_vcr());
    let rewritten = pushdown_through_select(&plan, &c).unwrap();
    assert_equivalent(&plan, &rewritten, &c, "Eq. 11 mixed");
}

#[test]
fn pushdown_join_on_carried_columns() {
    // §5.2.3: GPivot(sales ⋈ regions) where the pivot parameters come from
    // sales and the join is on the carried Country column.
    let c = catalog();
    let plan = Plan::scan("sales")
        .join(Plan::scan("regions"), vec![("Country", "r_country")])
        .gpivot(sony_pana_tv_vcr());
    let rewritten = pushdown_through_join(&plan, &c).unwrap();
    // The pivot moved below the join (under the order-restoring Project).
    let Plan::Project { input, .. } = &rewritten else {
        panic!("projection on top")
    };
    let Plan::Join { left, .. } = input.as_ref() else {
        panic!("join below")
    };
    assert!(matches!(left.as_ref(), Plan::GPivot { .. }));
    assert_equivalent(&plan, &rewritten, &c, "§5.2.3");
}

#[test]
fn pushdown_groupby_reverses_eq8() {
    // §5.2.4: pivot over a GROUPBY whose dimensions are grouping columns.
    let c = catalog();
    let plan = Plan::scan("sales")
        .group_by(&["Manu", "Type"], vec![AggSpec::sum("Price", "total")])
        .gpivot(PivotSpec::new(
            vec!["Type"],
            vec!["total"],
            vec![vec![Value::str("TV")], vec![Value::str("VCR")]],
        ));
    let rewritten = pushdown_through_group_by(&plan, &c).unwrap();
    let Plan::GroupBy { input, .. } = &rewritten else {
        panic!("groupby on top")
    };
    assert!(matches!(input.as_ref(), Plan::GPivot { .. }));
    assert_equivalent(&plan, &rewritten, &c, "§5.2.4");
}

#[test]
fn eq12_cancellation() {
    // GUNPIVOT then re-GPIVOT over a wide table.
    let c = catalog();
    let spec = type_pivot();
    // Build the wide table via a pivot (it plays the role of H).
    let wide = Plan::scan("sales").gpivot(spec.clone());
    let plan = wide
        .clone()
        .gunpivot(UnpivotSpec::reversing(&spec))
        .gpivot(spec.clone());
    let rewritten = cancel_unpivot_pivot(&plan, &c).unwrap();
    assert_eq!(
        rewritten.pivot_count(),
        1,
        "only the H-producing pivot remains"
    );
    assert_equivalent(&plan, &rewritten, &c, "Eq. 12");
}

// ───────────────────────── §5.3 / §5.4 GUNPIVOT rules ────────────────────

fn wide_plan() -> Plan {
    Plan::scan("sales").gpivot(sony_pana_tv_vcr())
}

fn wide_unpivot() -> UnpivotSpec {
    UnpivotSpec::reversing(&sony_pana_tv_vcr())
}

#[test]
fn eq13_select_name_column_atom() {
    // Figure 16's σ(Type = TV) over the unpivot output.
    let c = catalog();
    let plan = wide_plan()
        .gunpivot(wide_unpivot())
        .select(Expr::col("Type").eq(Expr::lit("TV")));
    let rewritten = push_select_below_unpivot(&plan, &c).unwrap();
    assert_equivalent(&plan, &rewritten, &c, "Eq. 13 name atom");
    // Groups were filtered statically: TV groups only.
    let Plan::GUnpivot { spec, .. } = &rewritten else {
        panic!("unpivot on top")
    };
    assert_eq!(spec.groups.len(), 2);
}

#[test]
fn eq13_select_value_column_atom() {
    // Figure 16's σ(Price = 150).
    let c = catalog();
    let plan = wide_plan()
        .gunpivot(wide_unpivot())
        .select(Expr::col("Price").eq(Expr::lit(150)));
    let rewritten = push_select_below_unpivot(&plan, &c).unwrap();
    assert_equivalent(&plan, &rewritten, &c, "Eq. 13 value atom");
}

#[test]
fn eq13_select_k_column_atom() {
    let c = catalog();
    let plan = wide_plan()
        .gunpivot(wide_unpivot())
        .select(Expr::col("Country").eq(Expr::lit("USA")));
    let rewritten = push_select_below_unpivot(&plan, &c).unwrap();
    assert_equivalent(&plan, &rewritten, &c, "Eq. 13 K atom");
}

#[test]
fn unpivot_above_join_on_k_columns() {
    let c = catalog();
    let plan = Plan::Join {
        left: Box::new(wide_plan().gunpivot(wide_unpivot())),
        right: Box::new(Plan::scan("regions")),
        kind: JoinKind::Inner,
        on: vec![("Country".into(), "r_country".into())],
        residual: None,
    };
    let rewritten = pull_unpivot_above_join(&plan, &c).unwrap();
    assert_equivalent(&plan, &rewritten, &c, "§5.3.3 K join");
}

#[test]
fn eq15_unpivot_above_groupby() {
    // Figure 18's horizontal aggregation: sum all prices per country.
    let c = catalog();
    let plan = wide_plan()
        .gunpivot(wide_unpivot())
        .group_by(&["Country"], vec![AggSpec::sum("Price", "total")]);
    let rewritten = pull_unpivot_above_group_by(&plan, &c).unwrap();
    assert_equivalent(&plan, &rewritten, &c, "Eq. 15 sum");
}

#[test]
fn eq15_with_name_column_grouping() {
    let c = catalog();
    let plan = wide_plan().gunpivot(wide_unpivot()).group_by(
        &["Manu"],
        vec![AggSpec::sum("Price", "total"), AggSpec::count("Price", "n")],
    );
    let rewritten = pull_unpivot_above_group_by(&plan, &c).unwrap();
    assert_equivalent(&plan, &rewritten, &c, "Eq. 15 name grouping");
}

#[test]
fn eq16_unpivot_below_select_selfjoin() {
    // Figure 19's σ(Sony**TV**Price = 220) below the unpivot.
    let c = catalog();
    let plan = wide_plan()
        .select(Expr::col("Sony**TV**Price").eq(Expr::lit(220)))
        .gunpivot(wide_unpivot());
    let rewritten = push_unpivot_below_select(&plan, &c).unwrap();
    assert_equivalent(&plan, &rewritten, &c, "Eq. 16");
}

#[test]
fn eq16_trivial_commute_for_k_atoms() {
    let c = catalog();
    let plan = wide_plan()
        .select(Expr::col("Country").eq(Expr::lit("USA")))
        .gunpivot(wide_unpivot());
    let rewritten = push_unpivot_below_select(&plan, &c).unwrap();
    let Plan::Select { .. } = &rewritten else {
        panic!("select hoisted above")
    };
    assert_equivalent(&plan, &rewritten, &c, "§5.4.1 commute");
}

#[test]
fn eq18_unpivot_below_groupby() {
    // Figure 21: unpivot per-type aggregates.
    let c = catalog();
    let plan = Plan::scan("sales")
        .group_by(
            &["Country"],
            vec![
                AggSpec::sum("Price", "tv_or_vcr_a"),
                AggSpec::sum("Quantity", "tv_or_vcr_b"),
            ],
        )
        .gunpivot(UnpivotSpec::new(
            vec![
                UnpivotGroup {
                    tags: vec![Value::str("price")],
                    cols: vec!["tv_or_vcr_a".into()],
                },
                UnpivotGroup {
                    tags: vec![Value::str("quantity")],
                    cols: vec!["tv_or_vcr_b".into()],
                },
            ],
            vec!["measure"],
            vec!["val"],
        ));
    let rewritten = push_unpivot_below_group_by(&plan, &c).unwrap();
    let Plan::GroupBy { input, .. } = &rewritten else {
        panic!("groupby on top")
    };
    assert!(matches!(input.as_ref(), Plan::GUnpivot { .. }));
    assert_equivalent(&plan, &rewritten, &c, "Eq. 18");
}

// ───────────────────────────── transposes ───────────────────────────────

#[test]
fn transpose_select_through_join() {
    let c = catalog();
    let plan = Plan::Join {
        left: Box::new(
            Plan::scan("sales")
                .gpivot(type_pivot())
                .select(Expr::col("TV**Price").gt(Expr::lit(100))),
        ),
        right: Box::new(Plan::scan("regions")),
        kind: JoinKind::Inner,
        on: vec![("Country".into(), "r_country".into())],
        residual: None,
    };
    let rewritten = hoist_select_through_join(&plan, &c).unwrap();
    assert!(matches!(rewritten, Plan::Select { .. }));
    assert_equivalent(&plan, &rewritten, &c, "hoist-select-join");
}

#[test]
fn transpose_pivot_through_rename() {
    let c = catalog();
    // Rename every column, then pivot over the renamed names.
    let renamed = Plan::scan("sales").project(vec![
        (Expr::col("Country"), "c".into()),
        (Expr::col("Manu"), "m".into()),
        (Expr::col("Type"), "t".into()),
        (Expr::col("Price"), "p".into()),
        (Expr::col("Quantity"), "q".into()),
    ]);
    let plan = renamed.gpivot(PivotSpec::simple(
        "t",
        "p",
        vec![Value::str("TV"), Value::str("VCR")],
    ));
    let rewritten = pivot_through_rename(&plan, &c).unwrap();
    // The pivot now reads the original columns below the projection.
    let Plan::Project { input, .. } = &rewritten else {
        panic!("rename project on top")
    };
    let Plan::GPivot { input: below, .. } = input.as_ref() else {
        panic!("pivot")
    };
    assert!(matches!(below.as_ref(), Plan::Scan { .. }));
    assert_equivalent(&plan, &rewritten, &c, "pivot-through-rename");
}

#[test]
fn transpose_groupby_through_project() {
    let c = catalog();
    let plan = Plan::scan("sales")
        .gpivot(type_pivot())
        .project_cols(&["Manu", "TV**Price", "VCR**Price"])
        .group_by(&["Manu"], vec![AggSpec::sum("TV**Price", "s")]);
    let rewritten = groupby_through_project(&plan, &c).unwrap();
    let Plan::GroupBy { input, .. } = &rewritten else {
        panic!("groupby on top")
    };
    assert!(matches!(input.as_ref(), Plan::GPivot { .. }));
    assert_equivalent(&plan, &rewritten, &c, "groupby-through-project");
}
