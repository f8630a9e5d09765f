//! The paper's three evaluation view families (Figures 32, 36, 39).

use gpivot_algebra::{AggSpec, Expr, PivotSpec, Plan};
use gpivot_storage::Value;

/// Line numbers pivoted by views (1) and (2). The paper pivots the first
/// few lineitem prices per order into columns.
pub const LINE_NUMBERS: [i64; 3] = [1, 2, 3];

/// Years pivoted by view (3): five years × (sum, count) + 2 key columns =
/// the "100,000 rows with 12 columns" of §7.3.
pub const VIEW_YEARS: [i64; 5] = [1994, 1995, 1996, 1997, 1998];

/// The pivot spec shared by views (1) and (2): lineitem prices by line
/// number.
pub fn line_pivot_spec() -> PivotSpec {
    PivotSpec::simple(
        "l_linenumber",
        "l_extendedprice",
        LINE_NUMBERS.iter().map(|&n| Value::Int(n)).collect(),
    )
}

/// Name of the pivoted price column for a line number.
pub fn price_col(line: i64) -> String {
    gpivot_algebra::encode_pivot_col(&[Value::Int(line)], "l_extendedprice")
}

/// **View (1)** — Figure 32: non-aggregate.
///
/// `GPIVOT(lineitem) ⋈ orders ⋈ customer`: pivot each order's first three
/// line prices into columns, then join order and customer attributes.
pub fn view1() -> Plan {
    Plan::scan("lineitem")
        .project_cols(&["l_orderkey", "l_linenumber", "l_extendedprice"])
        .gpivot(line_pivot_spec())
        .join(Plan::scan("orders"), vec![("l_orderkey", "o_orderkey")])
        .join(Plan::scan("customer"), vec![("o_custkey", "c_custkey")])
}

/// **View (2)** — Figure 36: non-aggregate with a SELECT over the pivot.
///
/// Like view (1) but keeping only orders whose *first* line price exceeds
/// `threshold` (the paper uses 30,000).
pub fn view2(threshold: f64) -> Plan {
    Plan::scan("lineitem")
        .project_cols(&["l_orderkey", "l_linenumber", "l_extendedprice"])
        .gpivot(line_pivot_spec())
        .select(Expr::col(price_col(1)).gt(Expr::lit(threshold)))
        .join(Plan::scan("orders"), vec![("l_orderkey", "o_orderkey")])
        .join(Plan::scan("customer"), vec![("o_custkey", "c_custkey")])
}

/// The default view (2) threshold from the paper.
pub const VIEW2_THRESHOLD: f64 = 30_000.0;

/// **View (3)** — Figure 39: aggregate crosstab.
///
/// Join the three tables, compute total price and count per (customer,
/// nation, year), then pivot the per-year aggregates into columns.
pub fn view3() -> Plan {
    Plan::scan("lineitem")
        .join(Plan::scan("orders"), vec![("l_orderkey", "o_orderkey")])
        .join(Plan::scan("customer"), vec![("o_custkey", "c_custkey")])
        .group_by(
            &["c_custkey", "c_nationkey", "o_year"],
            vec![
                AggSpec::sum("l_extendedprice", "sum_price"),
                AggSpec::count_star("cnt"),
            ],
        )
        .gpivot(PivotSpec::new(
            vec!["o_year"],
            vec!["sum_price", "cnt"],
            VIEW_YEARS.iter().map(|&y| vec![Value::Int(y)]).collect(),
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TpchConfig};
    use gpivot_exec::Executor;

    fn catalog() -> gpivot_storage::Catalog {
        generate(&TpchConfig::scale(0.02))
    }

    #[test]
    fn view1_executes_with_one_row_per_lined_order() {
        let c = catalog();
        let out = Executor::new().run(&view1(), &c).unwrap();
        let lined_orders: std::collections::HashSet<i64> = c
            .table("lineitem")
            .unwrap()
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        assert_eq!(out.len(), lined_orders.len());
        // Key: l_orderkey.
        assert!(out.schema().key().is_some());
    }

    #[test]
    fn view2_is_a_filtered_view1() {
        let c = catalog();
        let v1 = Executor::new().run(&view1(), &c).unwrap();
        let v2 = Executor::new().run(&view2(VIEW2_THRESHOLD), &c).unwrap();
        assert!(v2.len() < v1.len());
        assert!(!v2.is_empty(), "threshold should keep some rows");
        let price1 = v2.schema().index_of(&price_col(1)).unwrap();
        for r in v2.iter() {
            assert!(r[price1].as_f64().unwrap() > VIEW2_THRESHOLD);
        }
    }

    #[test]
    fn view3_has_twelve_columns() {
        let c = catalog();
        let out = Executor::new().run(&view3(), &c).unwrap();
        assert_eq!(out.schema().arity(), 12);
        assert!(!out.is_empty());
        assert_eq!(
            out.schema().key_names().unwrap(),
            vec!["c_custkey", "c_nationkey"]
        );
    }
}
