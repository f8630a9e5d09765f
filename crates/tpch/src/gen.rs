//! Deterministic TPC-H-shaped data generation.
//!
//! Cardinalities per unit of scale factor mirror TPC-H's ratios:
//! 1,500 customers, 15,000 orders, and 1–7 lineitems per order (~40,000
//! expected twice over — TPC-H averages ~4 lineitems/order). A configurable
//! fraction of orders is generated *without* lineitems so that the
//! insert-only workload of §7.2.1 (source inserts that create brand-new
//! view rows) has targets to hit.

use gpivot_storage::{value::days_from_date, Catalog, DataType, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// TPC-H-style scale factor; 1.0 ≈ 1,500 customers / 15,000 orders.
    /// The paper uses SF 1.0 of real TPC-H (150k customers); our default of
    /// 1.0 here is a laptop-scale replica with identical ratios.
    pub scale_factor: f64,
    /// PRNG seed — the same seed always yields the same database.
    pub seed: u64,
    /// Maximum line number per order (TPC-H uses 7).
    pub max_lines_per_order: u32,
    /// Fraction of orders generated with no lineitems at all.
    pub empty_order_fraction: f64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale_factor: 1.0,
            seed: 42,
            max_lines_per_order: 7,
            empty_order_fraction: 0.1,
        }
    }
}

impl TpchConfig {
    /// Config with a given scale factor.
    pub fn scale(scale_factor: f64) -> Self {
        TpchConfig {
            scale_factor,
            ..TpchConfig::default()
        }
    }

    /// Number of customers at this scale.
    pub fn customers(&self) -> i64 {
        ((1_500.0 * self.scale_factor).round() as i64).max(1)
    }

    /// Number of orders at this scale.
    pub fn orders(&self) -> i64 {
        self.customers() * 10
    }
}

/// The `customer` schema: key `c_custkey`.
pub fn customer_schema() -> Arc<Schema> {
    Arc::new(
        Schema::from_pairs_keyed(
            &[
                ("c_custkey", DataType::Int),
                ("c_name", DataType::Str),
                ("c_nationkey", DataType::Int),
                ("c_acctbal", DataType::Float),
                ("c_mktsegment", DataType::Str),
            ],
            &["c_custkey"],
        )
        .expect("static schema"),
    )
}

/// The `orders` schema: key `o_orderkey`, FK `o_custkey`.
pub fn orders_schema() -> Arc<Schema> {
    Arc::new(
        Schema::from_pairs_keyed(
            &[
                ("o_orderkey", DataType::Int),
                ("o_custkey", DataType::Int),
                ("o_orderdate", DataType::Date),
                ("o_year", DataType::Int),
                ("o_totalprice", DataType::Float),
            ],
            &["o_orderkey"],
        )
        .expect("static schema"),
    )
}

/// The `lineitem` schema: key `(l_orderkey, l_linenumber)`, FK `l_orderkey`.
pub fn lineitem_schema() -> Arc<Schema> {
    Arc::new(
        Schema::from_pairs_keyed(
            &[
                ("l_orderkey", DataType::Int),
                ("l_linenumber", DataType::Int),
                ("l_partkey", DataType::Int),
                ("l_quantity", DataType::Int),
                ("l_extendedprice", DataType::Float),
                ("l_shipdate", DataType::Date),
            ],
            &["l_orderkey", "l_linenumber"],
        )
        .expect("static schema"),
    )
}

/// The `part` schema: key `p_partkey` (used by examples).
pub fn part_schema() -> Arc<Schema> {
    Arc::new(
        Schema::from_pairs_keyed(
            &[
                ("p_partkey", DataType::Int),
                ("p_name", DataType::Str),
                ("p_brand", DataType::Str),
                ("p_retailprice", DataType::Float),
            ],
            &["p_partkey"],
        )
        .expect("static schema"),
    )
}

const SEGMENTS: [&str; 5] = [
    "BUILDING",
    "AUTOMOBILE",
    "MACHINERY",
    "HOUSEHOLD",
    "FURNITURE",
];
const BRANDS: [&str; 5] = ["Brand#11", "Brand#22", "Brand#33", "Brand#44", "Brand#55"];
/// Order years span 1992–1998 like TPC-H.
pub const YEARS: [i32; 7] = [1992, 1993, 1994, 1995, 1996, 1997, 1998];

/// Generate a catalog with `customer`, `orders`, `lineitem` and `part`.
/// Each table's rows are generated first and loaded in one
/// [`Table::from_rows`], which sizes and builds its key index once.
pub fn generate(config: &TpchConfig) -> Catalog {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut catalog = Catalog::new();

    // part
    let n_parts = (200.0 * config.scale_factor).round().max(1.0) as i64;
    let mut parts = Vec::new();
    for pk in 1..=n_parts {
        let brand = BRANDS[rng.gen_range(0..BRANDS.len())];
        parts.push(gpivot_storage::Row::new(vec![
            Value::Int(pk),
            Value::str(format!("part#{pk}")),
            Value::str(brand),
            Value::Float(rng.gen_range(900..2_000) as f64),
        ]));
    }
    let parts = Table::from_rows(part_schema(), parts).expect("unique partkey");
    catalog.register("part", parts).expect("fresh catalog");

    // customer
    let n_cust = config.customers();
    let mut customers = Vec::new();
    for ck in 1..=n_cust {
        customers.push(gpivot_storage::Row::new(vec![
            Value::Int(ck),
            Value::str(format!("Customer#{ck:09}")),
            Value::Int(rng.gen_range(0..25)),
            Value::Float(rng.gen_range(-999..9_999) as f64),
            Value::str(SEGMENTS[rng.gen_range(0..SEGMENTS.len())]),
        ]));
    }
    let customers = Table::from_rows(customer_schema(), customers).expect("unique custkey");
    catalog
        .register("customer", customers)
        .expect("fresh catalog");

    // orders + lineitem
    let n_orders = config.orders();
    let mut orders = Vec::new();
    let mut lineitems = Vec::new();
    for ok in 1..=n_orders {
        let year = YEARS[rng.gen_range(0..YEARS.len())];
        let month = rng.gen_range(1..=12u32);
        let day = rng.gen_range(1..=28u32);
        let date = days_from_date(year, month, day);
        orders.push(gpivot_storage::Row::new(vec![
            Value::Int(ok),
            Value::Int(rng.gen_range(1..=n_cust)),
            Value::Date(date),
            Value::Int(year as i64),
            Value::Float(rng.gen_range(1_000..500_000) as f64),
        ]));

        if rng.gen_bool(config.empty_order_fraction) {
            continue; // insert-only workload target: an order with no lines
        }
        let n_lines = rng.gen_range(1..=config.max_lines_per_order);
        for ln in 1..=n_lines {
            lineitems.push(gpivot_storage::Row::new(vec![
                Value::Int(ok),
                Value::Int(ln as i64),
                Value::Int(rng.gen_range(1..=n_parts)),
                Value::Int(rng.gen_range(1..=50)),
                Value::Float(rng.gen_range(1_000..100_000) as f64),
                Value::Date(date + rng.gen_range(1..=120)),
            ]));
        }
    }
    let orders = Table::from_rows(orders_schema(), orders).expect("unique orderkey");
    let lineitems =
        Table::from_rows(lineitem_schema(), lineitems).expect("unique (orderkey, linenumber)");
    catalog.register("orders", orders).expect("fresh catalog");
    catalog
        .register("lineitem", lineitems)
        .expect("fresh catalog");
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = TpchConfig::scale(0.02);
        let a = generate(&cfg);
        let b = generate(&cfg);
        for t in ["customer", "orders", "lineitem", "part"] {
            assert!(
                a.table(t).unwrap().bag_eq(b.table(t).unwrap()),
                "{t} differs"
            );
        }
    }

    #[test]
    fn cardinality_ratios_hold() {
        let cfg = TpchConfig::scale(0.1);
        let c = generate(&cfg);
        let n_cust = c.table("customer").unwrap().len();
        let n_orders = c.table("orders").unwrap().len();
        let n_lines = c.table("lineitem").unwrap().len();
        assert_eq!(n_cust, 150);
        assert_eq!(n_orders, 1_500);
        // ~4 lines/order with ~10% empty orders.
        assert!(
            n_lines > n_orders * 2 && n_lines < n_orders * 7,
            "lines = {n_lines}"
        );
    }

    #[test]
    fn some_orders_have_no_lineitems() {
        let cfg = TpchConfig::scale(0.05);
        let c = generate(&cfg);
        let lineitem = c.table("lineitem").unwrap();
        let with_lines: std::collections::HashSet<i64> =
            lineitem.iter().map(|r| r[0].as_i64().unwrap()).collect();
        let n_orders = c.table("orders").unwrap().len();
        assert!(with_lines.len() < n_orders, "expected some empty orders");
    }

    #[test]
    fn keys_are_enforced() {
        let cfg = TpchConfig::scale(0.01);
        let c = generate(&cfg);
        // Key index lookups work.
        let orders = c.table("orders").unwrap();
        assert!(orders.get_by_key(&gpivot_storage::row![1]).is_some());
        let lineitem = c.table("lineitem").unwrap();
        assert!(lineitem.schema().key().is_some());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TpchConfig {
            seed: 1,
            ..TpchConfig::scale(0.01)
        });
        let b = generate(&TpchConfig {
            seed: 2,
            ..TpchConfig::scale(0.01)
        });
        assert!(!a
            .table("lineitem")
            .unwrap()
            .bag_eq(b.table("lineitem").unwrap()));
    }
}
