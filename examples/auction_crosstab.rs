//! The paper's Figure 2 view, end to end: a complex ROLAP view mixing two
//! pivots, a join and an aggregation — and how the rewrite driver compiles
//! it into an efficiently maintainable form.
//!
//! ```text
//! Payment (vertical)             Product
//! ┌────┬─────────┬───────┐       ┌─────┬───────────┬──────┐
//! │ ID │ Payment │ Price │       │ PID │ Manu      │ Type │
//! └────┴─────────┴───────┘       └─────┴───────────┴──────┘
//!        │ GPIVOT[Credit, ByAir]        │
//!        └──────────⋈───────────────────┘
//!                   │ GROUPBY(Manu, Type; sum(Credit), sum(ByAir))
//!                   │ GPIVOT[TV, VCR] — crosstab of the sums
//! ```
//!
//! ```text
//! cargo run --example auction_crosstab
//! ```

use gpivot::prelude::*;
use std::sync::Arc;

fn build_catalog() -> Result<Catalog, Box<dyn std::error::Error>> {
    let payment_schema = Schema::from_pairs_keyed(
        &[
            ("ID", DataType::Int),
            ("Payment", DataType::Str),
            ("Price", DataType::Int),
        ],
        &["ID", "Payment"],
    )?;
    let payment = Table::from_rows(
        Arc::new(payment_schema),
        vec![
            row![1, "Credit", 180],
            row![1, "ByAir", 20],
            row![2, "Credit", 300],
            row![3, "ByAir", 50],
            row![4, "Credit", 90],
        ],
    )?;
    let product_schema = Schema::from_pairs_keyed(
        &[
            ("PID", DataType::Int),
            ("Manu", DataType::Str),
            ("Type", DataType::Str),
        ],
        &["PID"],
    )?;
    let product = Table::from_rows(
        Arc::new(product_schema),
        vec![
            row![1, "Sony", "TV"],
            row![2, "Sony", "VCR"],
            row![3, "Panasonic", "TV"],
            row![4, "Panasonic", "VCR"],
        ],
    )?;
    let mut catalog = Catalog::new();
    catalog.register("payment", payment)?;
    catalog.register("product", product)?;
    Ok(catalog)
}

/// Figure 2's view: pivot payments, join products, aggregate, pivot again.
fn figure2_view() -> Plan {
    Plan::scan("payment")
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
        ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = build_catalog()?;
    let view = figure2_view();

    println!("original view tree (Figure 2):\n{view}");

    // The rewrite driver pulls the lower pivot through the join and the
    // GROUPBY (Eq. 8), then combines it with the upper pivot (Eq. 6).
    let normalized = normalize_view(&view, &catalog)?;
    println!("rules applied:");
    for rule in &normalized.log {
        println!("  - {rule}");
    }
    println!("\nnormalized tree:\n{}", normalized.plan);
    println!(
        "top shape: {:?}\n",
        std::mem::discriminant(&normalized.shape)
    );

    // Compile and materialize.
    let mut vm = ViewManager::new(catalog);
    let strategy = vm.register_view("crosstab", view)?;
    println!("maintenance strategy: {strategy}");
    println!("{}", vm.maintenance_plan("crosstab")?);
    println!("crosstab contents:\n{}", vm.query_view("crosstab")?);

    // Stream a change: auction 3's ByAir payment is replaced and auction 2
    // pays an air surcharge; a new VCR auction appears.
    let mut deltas = SourceDeltas::new();
    deltas.delete_rows("payment", vec![row![3, "ByAir", 50]]);
    deltas.insert_rows(
        "payment",
        vec![
            row![3, "ByAir", 75],
            row![2, "ByAir", 12],
            row![5, "Credit", 40],
        ],
    );
    deltas.insert_rows("product", vec![]);
    // Auction 5 needs a product row too.
    let mut product_delta = SourceDeltas::new();
    product_delta.insert_rows("product", vec![row![5, "Sony", "VCR"]]);
    vm.refresh(&product_delta)?;
    vm.refresh(&deltas)?;

    println!("after incremental refresh:\n{}", vm.query_view("crosstab")?);
    assert!(vm.verify_view("crosstab")?);
    println!("verified against recomputation ✓");
    Ok(())
}
