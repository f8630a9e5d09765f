//! The paper's worked examples, transcribed as executable assertions: each
//! test reproduces the exact tuples a figure of the paper shows.

use gpivot::prelude::*;
use std::sync::Arc;

/// Figure 1's ItemInfo table.
fn iteminfo() -> Table {
    let schema = Schema::from_pairs_keyed(
        &[
            ("AuctionID", DataType::Int),
            ("Attribute", DataType::Str),
            ("Value", DataType::Str),
        ],
        &["AuctionID", "Attribute"],
    )
    .unwrap();
    Table::from_rows(
        Arc::new(schema),
        vec![
            row![1, "Manufacturer", "Sony"],
            row![1, "Type", "TV"],
            row![2, "Manufacturer", "Panasonic"],
            row![3, "Type", "VCR"],
        ],
    )
    .unwrap()
}

fn iteminfo_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register("iteminfo", iteminfo()).unwrap();
    c
}

fn fig1_pivot() -> PivotSpec {
    PivotSpec::simple(
        "Attribute",
        "Value",
        vec![Value::str("Manufacturer"), Value::str("Type")],
    )
}

#[test]
fn figure_1_pivot() {
    let c = iteminfo_catalog();
    let out = Executor::new()
        .run(&Plan::scan("iteminfo").gpivot(fig1_pivot()), &c)
        .unwrap();
    assert_eq!(
        out.sorted_rows(),
        vec![
            row![1, "Sony", "TV"],
            Row::new(vec![Value::Int(2), Value::str("Panasonic"), Value::Null]),
            Row::new(vec![Value::Int(3), Value::Null, Value::str("VCR")]),
        ]
    );
}

#[test]
fn figure_1_unpivot_reverses() {
    let c = iteminfo_catalog();
    let plan = Plan::scan("iteminfo")
        .gpivot(fig1_pivot())
        .gunpivot(UnpivotSpec::reversing(&fig1_pivot()));
    let out = Executor::new().run(&plan, &c).unwrap();
    assert_eq!(out.sorted_rows(), iteminfo().sorted_rows());
}

#[test]
fn figure_3_insert_propagation() {
    // "Assume some data were inserted into the ItemInfo table": the paper
    // inserts (2, Type, DVD) and (3, Manufacturer, Panasonic). The
    // insert/delete rules delete (2,Panasonic,⊥) and (3,⊥,VCR) and insert
    // (2,Panasonic,DVD) and (3,Panasonic,VCR).
    let mut vm = ViewManager::new(iteminfo_catalog());
    vm.register_view_with(
        "v",
        Plan::scan("iteminfo").gpivot(fig1_pivot()),
        Strategy::InsertDelete,
    )
    .unwrap();

    let mut deltas = SourceDeltas::new();
    deltas.insert_rows(
        "iteminfo",
        vec![row![2, "Type", "DVD"], row![3, "Manufacturer", "Panasonic"]],
    );
    let outcome = vm.refresh(&deltas).unwrap().remove("v").unwrap();
    // Two rows deleted, two re-inserted — the churn §2.3 criticizes.
    assert_eq!(outcome.stats.deleted, 2);
    assert_eq!(outcome.stats.inserted, 2);

    assert_eq!(
        vm.query_view("v").unwrap().sorted_rows(),
        vec![
            row![1, "Sony", "TV"],
            row![2, "Panasonic", "DVD"],
            row![3, "Panasonic", "VCR"],
        ]
    );
}

#[test]
fn figure_3_update_rules_avoid_churn() {
    // The same change maintained with the update rules touches the same
    // rows but as in-place updates.
    let mut vm = ViewManager::new(iteminfo_catalog());
    vm.register_view_with(
        "v",
        Plan::scan("iteminfo").gpivot(fig1_pivot()),
        Strategy::PivotUpdate,
    )
    .unwrap();
    let mut deltas = SourceDeltas::new();
    deltas.insert_rows(
        "iteminfo",
        vec![row![2, "Type", "DVD"], row![3, "Manufacturer", "Panasonic"]],
    );
    let outcome = vm.refresh(&deltas).unwrap().remove("v").unwrap();
    assert_eq!(outcome.stats.deleted, 0, "no delete/re-insert churn");
    assert_eq!(outcome.stats.inserted, 0);
    assert_eq!(outcome.stats.updated, 2);
    assert!(vm.verify_view("v").unwrap());
}

/// Figure 5's sales table.
fn sales_catalog() -> Catalog {
    let schema = Schema::from_pairs_keyed(
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
        Arc::new(schema),
        vec![
            row!["USA", "Sony", "TV", 100, 10],
            row!["USA", "Panasonic", "VCR", 130, 5],
            row!["Japan", "Sony", "TV", 90, 3],
        ],
    )
    .unwrap();
    let mut c = Catalog::new();
    c.register("sales", sales).unwrap();
    c
}

#[test]
fn figure_5_generalized_pivot() {
    // GPIVOT[{Sony,Panasonic} × {TV,VCR}] on (Price, Quantity): multiple
    // measures by multiple dimensions.
    let c = sales_catalog();
    let spec = PivotSpec::cross(
        vec!["Manu", "Type"],
        vec!["Price", "Quantity"],
        vec![
            vec![Value::str("Sony"), Value::str("Panasonic")],
            vec![Value::str("TV"), Value::str("VCR")],
        ],
    );
    let out = Executor::new()
        .run(&Plan::scan("sales").gpivot(spec.clone()), &c)
        .unwrap();
    assert_eq!(
        out.schema().column_names(),
        vec![
            "Country",
            "Sony**TV**Price",
            "Sony**TV**Quantity",
            "Sony**VCR**Price",
            "Sony**VCR**Quantity",
            "Panasonic**TV**Price",
            "Panasonic**TV**Quantity",
            "Panasonic**VCR**Price",
            "Panasonic**VCR**Quantity",
        ]
    );
    let usa = out.iter().find(|r| r[0] == Value::str("USA")).unwrap();
    assert_eq!(
        usa.values()[1..].to_vec(),
        vec![
            Value::Int(100),
            Value::Int(10), // Sony TV
            Value::Null,
            Value::Null, // Sony VCR
            Value::Null,
            Value::Null, // Panasonic TV
            Value::Int(130),
            Value::Int(5), // Panasonic VCR
        ]
    );

    // And GUNPIVOT decodes it back (Figure 5's right half).
    let back = Executor::new()
        .run(
            &Plan::scan("sales")
                .gpivot(spec.clone())
                .gunpivot(UnpivotSpec::reversing(&spec)),
            &c,
        )
        .unwrap();
    let direct = Executor::new()
        .run(
            &Plan::scan("sales").project_cols(&["Country", "Manu", "Type", "Price", "Quantity"]),
            &c,
        )
        .unwrap();
    assert_eq!(back.sorted_rows(), direct.sorted_rows());
}

/// Figures 24–26: the Items ⋈ Payment maintenance example.
fn fig24_catalog() -> Catalog {
    let items_schema = Schema::from_pairs_keyed(
        &[
            ("ID", DataType::Int),
            ("Attribute", DataType::Str),
            ("Value", DataType::Str),
        ],
        &["ID", "Attribute"],
    )
    .unwrap();
    let items = Table::from_rows(
        Arc::new(items_schema),
        vec![row![1, "Manufacturer", "Sony"], row![2, "Type", "VCR"]],
    )
    .unwrap();
    let payment_schema = Schema::from_pairs_keyed(
        &[
            ("PID", DataType::Int),
            ("Price", DataType::Int),
            ("Qty", DataType::Int),
        ],
        &["PID"],
    )
    .unwrap();
    let payment = Table::from_rows(
        Arc::new(payment_schema),
        vec![row![1, 200, 15], row![2, 300, 20]],
    )
    .unwrap();
    let mut c = Catalog::new();
    c.register("items", items).unwrap();
    c.register("payment", payment).unwrap();
    c
}

fn fig24_view() -> Plan {
    Plan::scan("items")
        .gpivot(PivotSpec::simple(
            "Attribute",
            "Value",
            vec![Value::str("Manufacturer"), Value::str("Type")],
        ))
        .join(Plan::scan("payment"), vec![("ID", "PID")])
}

#[test]
fn figures_24_to_26_pullup_plan_beats_naive() {
    // Figure 26: the GPIVOT is pulled above the join, deltas propagate
    // through the join, and the apply phase updates rows in place.
    let c = fig24_catalog();
    let nv = normalize_view(&fig24_view(), &c).unwrap();
    assert!(matches!(nv.shape, TopShape::PivotTop { .. }));

    let mut deltas = SourceDeltas::new();
    deltas.insert_rows(
        "items",
        vec![row![1, "Type", "TV"], row![2, "Manufacturer", "Panasonic"]],
    );

    // Both the naive (Fig. 25) and pullup (Fig. 26) plans converge...
    for strategy in [Strategy::InsertDelete, Strategy::PivotUpdate] {
        let mut vm = ViewManager::new(c.clone());
        vm.register_view_with("v", fig24_view(), strategy).unwrap();
        let outcome = vm.refresh(&deltas).unwrap().remove("v").unwrap();
        assert!(vm.verify_view("v").unwrap());
        match strategy {
            // ...but the naive plan deletes and re-inserts both rows...
            Strategy::InsertDelete => {
                assert_eq!(outcome.stats.deleted, 2);
                assert_eq!(outcome.stats.inserted, 2);
            }
            // ...while the update rules update them in place.
            _ => {
                assert_eq!(outcome.stats.updated, 2);
                assert_eq!(outcome.stats.deleted + outcome.stats.inserted, 0);
            }
        }
    }
}

/// Figure 28: the Figure 2 view under a deletion that kills a subgroup.
#[test]
fn figure_28_subgroup_death_deletes_view_row() {
    let payment_schema = Schema::from_pairs_keyed(
        &[
            ("ID", DataType::Int),
            ("Payment", DataType::Str),
            ("Price", DataType::Int),
        ],
        &["ID", "Payment"],
    )
    .unwrap();
    let payment = Table::from_rows(
        Arc::new(payment_schema),
        vec![
            row![1, "Credit", 180],
            row![2, "Credit", 300], // Sony VCR's only payment
        ],
    )
    .unwrap();
    let product_schema = Schema::from_pairs_keyed(
        &[
            ("PID", DataType::Int),
            ("Manu", DataType::Str),
            ("Type", DataType::Str),
        ],
        &["PID"],
    )
    .unwrap();
    let product = Table::from_rows(
        Arc::new(product_schema),
        vec![row![1, "Sony", "TV"], row![2, "Panasonic", "VCR"]],
    )
    .unwrap();
    let mut catalog = Catalog::new();
    catalog.register("payment", payment).unwrap();
    catalog.register("product", product).unwrap();

    let view = Plan::scan("payment")
        .gpivot(PivotSpec::simple(
            "Payment",
            "Price",
            vec![Value::str("Credit"), Value::str("ByAir")],
        ))
        .join(Plan::scan("product"), vec![("ID", "PID")])
        .group_by(
            &["Manu", "Type"],
            vec![
                AggSpec::sum("Credit**Price", "CreditSum"),
                AggSpec::sum("ByAir**Price", "ByAirSum"),
            ],
        )
        .gpivot(PivotSpec::new(
            vec!["Type"],
            vec!["CreditSum", "ByAirSum"],
            vec![vec![Value::str("TV")], vec![Value::str("VCR")]],
        ));

    let mut vm = ViewManager::new(catalog);
    let strategy = vm.register_view("v", view).unwrap();
    assert_eq!(strategy, Strategy::GroupPivotUpdate);
    assert_eq!(vm.view("v").unwrap().len(), 2); // Sony row + Panasonic row

    // Delete Panasonic's only payment: its count hits 0, every pivoted cell
    // of the Panasonic row becomes ⊥, and the row disappears (Fig. 28).
    let mut deltas = SourceDeltas::new();
    deltas.delete_rows("payment", vec![row![2, "Credit", 300]]);
    let outcome = vm.refresh(&deltas).unwrap().remove("v").unwrap();
    assert_eq!(outcome.stats.deleted, 1);
    assert!(vm.verify_view("v").unwrap());

    let remaining = vm.query_view("v").unwrap();
    assert_eq!(remaining.len(), 1);
    assert_eq!(remaining.rows()[0][0], Value::str("Sony"));
}

/// Figures 30–31: SELECT over GPIVOT under deletion.
#[test]
fn figures_30_31_postponed_selection_filtering() {
    // View: σ(Type**Value = 'TV')-ish — the paper's condition keeps
    // auctions whose pivoted attributes satisfy a predicate; deleting a
    // source row may make a view row fail the condition.
    let c = iteminfo_catalog();
    let view = Plan::scan("iteminfo").gpivot(fig1_pivot()).select(
        Expr::col("Type**Value")
            .eq(Expr::lit("TV"))
            .or(Expr::col("Manufacturer**Value").eq(Expr::lit("Sony"))),
    );
    let mut vm = ViewManager::new(c);
    let strategy = vm.register_view("v", view).unwrap();
    assert_eq!(strategy, Strategy::SelectPivotUpdate);
    // Only auction 1 satisfies (Sony, TV).
    assert_eq!(vm.view("v").unwrap().len(), 1);

    // Delete auction 1's Type row: it still satisfies via Manufacturer.
    let mut d1 = SourceDeltas::new();
    d1.delete_rows("iteminfo", vec![row![1, "Type", "TV"]]);
    vm.refresh(&d1).unwrap();
    assert!(vm.verify_view("v").unwrap());
    assert_eq!(vm.view("v").unwrap().len(), 1);

    // Delete its Manufacturer row too: now it fails the condition and the
    // postponed selection filtering removes it (Fig. 31's auction 3 case).
    let mut d2 = SourceDeltas::new();
    d2.delete_rows("iteminfo", vec![row![1, "Manufacturer", "Sony"]]);
    let outcome = vm.refresh(&d2).unwrap().remove("v").unwrap();
    assert_eq!(outcome.stats.deleted, 1);
    assert!(vm.view("v").unwrap().is_empty());
    assert!(vm.verify_view("v").unwrap());

    // Inserts can make a previously-unsatisfying auction appear (Fig. 31's
    // "locate the other source tuple" case).
    let mut d3 = SourceDeltas::new();
    d3.insert_rows(
        "iteminfo",
        vec![row![2, "Type", "TV"]], // auction 2 already has Manufacturer=Panasonic
    );
    let outcome = vm.refresh(&d3).unwrap().remove("v").unwrap();
    assert_eq!(outcome.stats.inserted, 1);
    let v = vm.query_view("v").unwrap();
    assert_eq!(v.sorted_rows(), vec![row![2, "Panasonic", "TV"]]);
    assert!(vm.verify_view("v").unwrap());
}
