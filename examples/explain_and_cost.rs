//! Observability tour: EXPLAIN trees, §7.1 SQL rendering, `EXPLAIN
//! ANALYZE`-style execution traces and the cost model's strategy choice.
//!
//! ```text
//! cargo run --example explain_and_cost
//! ```

use gpivot::core::cost::{cheapest_strategy, estimate_refresh_cost, CatalogStats};
use gpivot::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small payments table.
    let schema = Schema::from_pairs_keyed(
        &[
            ("id", DataType::Int),
            ("method", DataType::Str),
            ("amount", DataType::Int),
        ],
        &["id", "method"],
    )?;
    let mut rows = Vec::new();
    for id in 0..200i64 {
        for (mi, m) in ["card", "cash"].iter().enumerate() {
            if (id + mi as i64) % 3 != 0 {
                rows.push(row![id, *m, (id * 13 + mi as i64) % 500]);
            }
        }
    }
    let mut catalog = Catalog::new();
    catalog.register("payments", Table::from_rows(Arc::new(schema), rows)?)?;

    let view = Plan::scan("payments")
        .gpivot(PivotSpec::simple(
            "method",
            "amount",
            vec![Value::str("card"), Value::str("cash")],
        ))
        .select(Expr::col("card**amount").gt(Expr::lit(250)));

    // ── EXPLAIN: the algebra tree ────────────────────────────────────────
    println!("═══ EXPLAIN ═══\n{view}");

    // ── SQL: the paper's §7.1 non-intrusive realization ──────────────────
    println!("═══ SQL (§7.1 dialect) ═══\n{}\n", view.to_sql(&catalog)?);

    // ── EXPLAIN ANALYZE: per-operator row counts ─────────────────────────
    let (result, trace) = Executor::new().run_traced(&view, &catalog)?;
    println!("═══ EXPLAIN ANALYZE ═══\n{trace}");
    println!("view rows: {}\n", result.len());

    // ── Cost model: per-strategy refresh estimates ───────────────────────
    let stats = CatalogStats::from_catalog(&catalog);
    println!("═══ cost model (expected delta = 20 rows) ═══");
    for strategy in Strategy::ALL {
        match estimate_refresh_cost(&view, strategy, &stats, &catalog, 20.0) {
            Some(cost) => println!("  {strategy:<24} ≈ {cost:>10.0} row-ops"),
            None => println!("  {strategy:<24}   (not applicable)"),
        }
    }
    let (best, cost) = cheapest_strategy(&view, &stats, &catalog, 20.0).unwrap();
    println!("  → cheapest: {best} ({cost:.0} row-ops)");
    Ok(())
}
