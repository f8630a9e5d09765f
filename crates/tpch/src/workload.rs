//! Delta-workload generators — the three change shapes of §7.2:
//!
//! * [`delete_fraction`] — delete x% of `lineitem` (Figures 33, 37, 40);
//! * [`insert_updates_only`] — inserts that only *update* existing view
//!   rows: new lineitems with a free pivoted line number for orders already
//!   in the view (Figure 34);
//! * [`insert_new_rows`] — inserts that only *insert* new view rows: first
//!   lineitems for orders that had none (Figure 35).
//!
//! All generators are deterministic in `(catalog contents, fraction, seed)`
//! — whatever physical row order earlier deltas left the tables in — and
//! return a [`SourceDeltas`] batch ready for `ViewManager::refresh`.

use crate::views::LINE_NUMBERS;
use gpivot_core::SourceDeltas;
use gpivot_storage::{Catalog, Row, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// `fraction` of `table`'s rows, sampled uniformly from the rows in sorted
/// order — so the sample depends on the table's contents and the seed, not
/// on the physical row order an `apply_delta` history left behind.
fn sample_rows(catalog: &Catalog, table: &str, fraction: f64, rng: &mut StdRng) -> Vec<Row> {
    let mut rows = catalog.table(table).expect("table exists").sorted_rows();
    let n = ((rows.len() as f64) * fraction).round() as usize;
    rows.shuffle(rng);
    rows.truncate(n);
    rows
}

/// Delete `fraction` of the rows of `table` (sampled uniformly).
pub fn delete_fraction(catalog: &Catalog, table: &str, fraction: f64, seed: u64) -> SourceDeltas {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = SourceDeltas::new();
    d.delete_rows(table, sample_rows(catalog, table, fraction, &mut rng));
    d
}

/// Insert `fraction × |lineitem|` new lineitems that each *update* an
/// existing view row: the target orders already have a line number 1
/// (so they are in views (1)–(3)) and receive a new line at a free pivoted
/// line number (2 or 3).
pub fn insert_updates_only(catalog: &Catalog, fraction: f64, seed: u64) -> SourceDeltas {
    let mut rng = StdRng::seed_from_u64(seed);
    let lineitem = catalog.table("lineitem").expect("lineitem exists");
    let n_parts = catalog.table("part").expect("part exists").len().max(1) as i64;
    let target = ((lineitem.len() as f64) * fraction).round() as usize;

    // Which line numbers does each order already use?
    let mut used: HashMap<i64, HashSet<i64>> = HashMap::new();
    for r in lineitem.iter() {
        used.entry(r[0].as_i64().expect("orderkey"))
            .or_default()
            .insert(r[1].as_i64().expect("linenumber"));
    }
    let mut candidates: Vec<(i64, i64)> = Vec::new();
    for (&ok, lines) in &used {
        for &ln in &LINE_NUMBERS[1..] {
            if !lines.contains(&ln) {
                candidates.push((ok, ln));
            }
        }
    }
    candidates.sort_unstable();
    candidates.shuffle(&mut rng);
    candidates.truncate(target);

    let rows: Vec<Row> = candidates
        .into_iter()
        .map(|(ok, ln)| {
            Row::new(vec![
                Value::Int(ok),
                Value::Int(ln),
                Value::Int(rng.gen_range(1..=n_parts)),
                Value::Int(rng.gen_range(1..=50)),
                Value::Float(rng.gen_range(1_000..100_000) as f64),
                Value::Date(rng.gen_range(8_000..10_000)),
            ])
        })
        .collect();
    let mut d = SourceDeltas::new();
    d.insert_rows("lineitem", rows);
    d
}

/// Insert `fraction × |lineitem|` new lineitems that each *create* a new
/// view row: line number 1 for orders that currently have no lineitems —
/// or as many as there are such orders left, down to an empty batch.
pub fn insert_new_rows(catalog: &Catalog, fraction: f64, seed: u64) -> SourceDeltas {
    let mut rng = StdRng::seed_from_u64(seed);
    let lineitem = catalog.table("lineitem").expect("lineitem exists");
    let orders = catalog.table("orders").expect("orders exists");
    let n_parts = catalog.table("part").expect("part exists").len().max(1) as i64;
    let target = ((lineitem.len() as f64) * fraction).round() as usize;

    let lined: HashSet<i64> = lineitem
        .iter()
        .map(|r| r[0].as_i64().expect("orderkey"))
        .collect();
    let mut empty_orders: Vec<i64> = orders
        .iter()
        .map(|r| r[0].as_i64().expect("orderkey"))
        .filter(|ok| !lined.contains(ok))
        .collect();
    empty_orders.sort_unstable();
    empty_orders.shuffle(&mut rng);
    empty_orders.truncate(target);

    let rows: Vec<Row> = empty_orders
        .into_iter()
        .map(|ok| {
            Row::new(vec![
                Value::Int(ok),
                Value::Int(1),
                Value::Int(rng.gen_range(1..=n_parts)),
                Value::Int(rng.gen_range(1..=50)),
                Value::Float(rng.gen_range(1_000..100_000) as f64),
                Value::Date(rng.gen_range(8_000..10_000)),
            ])
        })
        .collect();
    let mut d = SourceDeltas::new();
    d.insert_rows("lineitem", rows);
    d
}

/// A mixed batch: `fraction/2` deletes plus `fraction/2` new-row inserts on
/// `lineitem` — the general case every strategy must handle in one refresh.
pub fn mixed_batch(catalog: &Catalog, fraction: f64, seed: u64) -> SourceDeltas {
    let mut d = delete_fraction(catalog, "lineitem", fraction / 2.0, seed);
    let ins = insert_new_rows(catalog, fraction / 2.0, seed.wrapping_add(1));
    if let Some(delta) = ins.delta("lineitem") {
        d.add_delta("lineitem", delta.clone());
    }
    d
}

/// Churn on the `orders` dimension side: re-date a fraction of orders
/// (in-place updates decomposed as delete+insert). The paper notes that
/// deltas on the non-pivoted side "need not pull up the GPIVOT" — this
/// workload exercises exactly that propagation path (the `A_pre ⋈ ΔB`
/// join term).
pub fn order_churn(catalog: &Catalog, fraction: f64, seed: u64) -> SourceDeltas {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = SourceDeltas::new();
    for old in sample_rows(catalog, "orders", fraction, &mut rng) {
        let mut new = old.to_vec();
        // Re-price and shift the year within the pivoted range.
        new[4] = Value::Float(rng.gen_range(1_000..500_000) as f64);
        d.delete_rows("orders", vec![old]);
        d.insert_rows("orders", vec![Row::new(new)]);
    }
    d
}

/// Churn on `customer`: move a fraction of customers to a new nation — the
/// grouping column of view (3), so group-pivot maintenance must migrate
/// their crosstab rows between keys.
pub fn customer_churn(catalog: &Catalog, fraction: f64, seed: u64) -> SourceDeltas {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = SourceDeltas::new();
    for old in sample_rows(catalog, "customer", fraction, &mut rng) {
        let mut new = old.to_vec();
        let old_nation = new[2].as_i64().expect("nationkey");
        new[2] = Value::Int((old_nation + 1 + rng.gen_range(0..23i64)) % 25);
        d.delete_rows("customer", vec![old]);
        d.insert_rows("customer", vec![Row::new(new)]);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TpchConfig};
    use crate::views::{price_col, view1};
    use gpivot_exec::Executor;

    fn catalog() -> Catalog {
        generate(&TpchConfig {
            empty_order_fraction: 0.25,
            ..TpchConfig::scale(0.02)
        })
    }

    #[test]
    fn delete_fraction_sizes_and_determinism() {
        let c = catalog();
        let n = c.table("lineitem").unwrap().len();
        let d = delete_fraction(&c, "lineitem", 0.01, 7);
        let expected = ((n as f64) * 0.01).round() as u64;
        assert_eq!(d.total_changes(), expected);
        let d2 = delete_fraction(&c, "lineitem", 0.01, 7);
        assert_eq!(d.delta("lineitem"), d2.delta("lineitem"));
    }

    #[test]
    fn insert_new_rows_runs_dry_without_panicking() {
        let mut c = catalog();
        let mut batches = 0;
        loop {
            let d = insert_new_rows(&c, 0.03, batches);
            if d.is_empty() {
                break;
            }
            c.apply_delta("lineitem", d.delta("lineitem").unwrap())
                .unwrap();
            batches += 1;
        }
        assert!(batches > 1, "the catalog starts with empty orders to fill");
        // Dry for good, and the mixed batch degrades to its delete half.
        assert!(insert_new_rows(&c, 0.1, 99).is_empty());
        let mixed = mixed_batch(&c, 0.02, 9);
        assert!(mixed.delta("lineitem").unwrap().iter().all(|(_, &w)| w < 0));
    }

    /// Two catalogs holding the same bags in different physical row order
    /// (one took a delete-and-reinsert detour through `apply_delta`) yield
    /// the same delta from every generator.
    #[test]
    fn generators_ignore_physical_row_order() {
        let c = catalog();
        let mut shuffled = c.clone();
        for (table, seed) in [("lineitem", 1), ("orders", 2), ("customer", 3)] {
            let out = delete_fraction(&shuffled, table, 0.3, seed);
            let removed = out.delta(table).unwrap().clone();
            shuffled.apply_delta(table, &removed).unwrap();
            shuffled.apply_delta(table, &removed.negated()).unwrap();
            assert!(shuffled
                .table(table)
                .unwrap()
                .bag_eq(c.table(table).unwrap()));
            assert_ne!(
                shuffled.table(table).unwrap().rows(),
                c.table(table).unwrap().rows()
            );
        }
        type Generator = fn(&Catalog, f64, u64) -> SourceDeltas;
        let generators: [(&str, Generator); 6] = [
            ("delete_fraction", |c, f, s| {
                delete_fraction(c, "lineitem", f, s)
            }),
            ("insert_updates_only", insert_updates_only),
            ("insert_new_rows", insert_new_rows),
            ("mixed_batch", mixed_batch),
            ("order_churn", order_churn),
            ("customer_churn", customer_churn),
        ];
        for (name, generate) in generators {
            let (a, b) = (generate(&c, 0.05, 17), generate(&shuffled, 0.05, 17));
            assert!(!a.is_empty(), "{name}");
            for table in ["lineitem", "orders", "customer"] {
                assert_eq!(a.delta(table), b.delta(table), "{name}/{table}");
            }
        }
    }

    #[test]
    fn update_only_inserts_touch_existing_view_rows() {
        let c = catalog();
        let before = Executor::new().run(&view1(), &c).unwrap();
        let d = insert_updates_only(&c, 0.01, 7);
        assert!(d.total_changes() > 0);

        let mut post = c.clone();
        post.apply_delta("lineitem", d.delta("lineitem").unwrap())
            .unwrap();
        let after = Executor::new().run(&view1(), &post).unwrap();
        // Same keys — only cells changed.
        assert_eq!(before.len(), after.len());
        assert!(!before.bag_eq(&after));
    }

    #[test]
    fn new_row_inserts_grow_the_view() {
        let c = catalog();
        let before = Executor::new().run(&view1(), &c).unwrap();
        let d = insert_new_rows(&c, 0.01, 7);
        let n = d.total_changes() as usize;
        assert!(n > 0);

        let mut post = c.clone();
        post.apply_delta("lineitem", d.delta("lineitem").unwrap())
            .unwrap();
        let after = Executor::new().run(&view1(), &post).unwrap();
        assert_eq!(after.len(), before.len() + n);
    }

    #[test]
    fn mixed_batch_carries_both_signs() {
        let c = catalog();
        let d = mixed_batch(&c, 0.02, 9);
        let delta = d.delta("lineitem").unwrap();
        assert!(delta.iter().any(|(_, &w)| w > 0));
        assert!(delta.iter().any(|(_, &w)| w < 0));
    }

    #[test]
    fn order_churn_preserves_order_count() {
        let c = catalog();
        let d = order_churn(&c, 0.05, 9);
        let mut post = c.clone();
        post.apply_delta("orders", d.delta("orders").unwrap())
            .unwrap();
        assert_eq!(
            post.table("orders").unwrap().len(),
            c.table("orders").unwrap().len()
        );
    }

    #[test]
    fn customer_churn_changes_nations_only() {
        let c = catalog();
        let d = customer_churn(&c, 0.05, 9);
        let delta = d.delta("customer").unwrap();
        assert!(!delta.is_empty());
        // Every insert has a delete twin differing only in nationkey.
        for (row, &w) in delta.iter() {
            if w > 0 {
                let mut twin_found = false;
                for (other, &w2) in delta.iter() {
                    if w2 < 0
                        && other[0] == row[0]
                        && other[1] == row[1]
                        && other[2] != row[2]
                        && other[3] == row[3]
                        && other[4] == row[4]
                    {
                        twin_found = true;
                        break;
                    }
                }
                assert!(twin_found, "insert {row:?} has no churn twin");
            }
        }
    }

    #[test]
    fn churn_workloads_maintain_view3() {
        use crate::views::view3;
        use gpivot_core::ViewManager;
        let c = catalog();
        let mut vm = ViewManager::new(c.clone());
        vm.register_view("v3", view3()).unwrap();
        vm.refresh(&order_churn(&c, 0.02, 11)).unwrap();
        assert!(vm.verify_view("v3").unwrap());
        let c2 = vm.catalog().clone();
        vm.refresh(&customer_churn(&c2, 0.02, 12)).unwrap();
        assert!(vm.verify_view("v3").unwrap());
    }

    #[test]
    fn inserted_rows_land_in_pivoted_columns() {
        let c = catalog();
        let d = insert_updates_only(&c, 0.005, 3);
        let delta = d.delta("lineitem").unwrap();
        for (r, &w) in delta.iter() {
            assert_eq!(w, 1);
            let ln = r[1].as_i64().unwrap();
            assert!(LINE_NUMBERS.contains(&ln));
            assert!(ln != 1, "update-only workload must not create line 1");
        }
        let _ = price_col(1);
    }
}
