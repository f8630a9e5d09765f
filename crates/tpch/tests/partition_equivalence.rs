//! Sequential vs hash-partitioned kernel equivalence over the paper's
//! evaluation views (§7: Figures 32, 36, 39).
//!
//! Results must be bit-identical — same rows, same order, same float bits
//! — at every thread count. This suite pins that on the three TPC-H view
//! families, on the pristine catalog and again after a mixed delta batch
//! has mutated the base tables, at 1 and 4 worker threads, on both the
//! sequential and the hash-partitioned kernels. Which kernels run is the
//! executor's own choice from the input size (1 024 rows into an operator,
//! both join sides together), so each case runs at two scales: one where
//! no operator of any view reads that many rows, and one where `lineitem`
//! alone holds more. At each scale the single-threaded run is the
//! reference the four-thread run must equal.

use gpivot_exec::Executor;
use gpivot_storage::Catalog;
use gpivot_tpch::views::VIEW2_THRESHOLD;
use gpivot_tpch::{generate, mixed_batch, view1, view2, view3, TpchConfig};

/// The executor's partitioning threshold (`PARALLEL_THRESHOLD` in
/// `crates/exec/src/engine.rs`).
const PARALLEL_THRESHOLD: usize = 1024;

/// `(kernel path, TPC-H scale)`: ~290 and ~2 700 `lineitem` rows.
const SCALES: [(&str, f64); 2] = [("sequential", 0.005), ("partitioned", 0.05)];

fn views() -> Vec<(&'static str, gpivot_algebra::Plan)> {
    vec![
        ("view1", view1()),
        ("view2", view2(VIEW2_THRESHOLD)),
        ("view3", view3()),
    ]
}

/// The most rows any one operator of `plan` reads (a join reads both
/// sides), from the executor's own trace: entries list each parent before
/// its children, one level deeper.
fn largest_operator_input(plan: &gpivot_algebra::Plan, catalog: &Catalog) -> usize {
    let (_, trace) = Executor::new().run_traced(plan, catalog).unwrap();
    let e = &trace.entries;
    (0..e.len())
        .map(|i| {
            e[i + 1..]
                .iter()
                .take_while(|c| c.depth > e[i].depth)
                .filter(|c| c.depth == e[i].depth + 1)
                .map(|c| c.rows_out)
                .sum::<usize>()
        })
        .max()
        .unwrap_or(0)
}

/// Assert every view produces bit-identical rows (values *and* order)
/// at 1 and 4 threads, on the kernel `path` the catalog's size selects.
fn assert_equivalent(catalog: &Catalog, path: &str, label: &str) {
    for (name, plan) in views() {
        let widest = largest_operator_input(&plan, catalog);
        assert_eq!(
            widest >= PARALLEL_THRESHOLD,
            path == "partitioned",
            "{label}/{name}: widest operator input {widest} is on the wrong side for {path}"
        );
        let reference = Executor::new()
            .run(&plan, catalog)
            .unwrap_or_else(|e| panic!("{label}/{name}/{path} at 1 thread: {e}"));
        let got = Executor::new()
            .with_threads(4)
            .run(&plan, catalog)
            .unwrap_or_else(|e| panic!("{label}/{name}/{path} at 4 threads: {e}"));
        assert_eq!(
            got.rows(),
            reference.rows(),
            "{label}/{name}/{path}: diverged at 4 threads"
        );
    }
}

#[test]
fn three_views_bit_identical_across_threads() {
    for (path, scale) in SCALES {
        let catalog = generate(&TpchConfig::scale(scale));
        assert_equivalent(&catalog, path, "pristine");
    }
}

#[test]
fn three_views_bit_identical_after_base_table_mutation() {
    for (path, scale) in SCALES {
        let mut catalog = generate(&TpchConfig::scale(scale));
        let deltas = mixed_batch(&catalog, 0.05, 0xC0FFEE);
        for table in deltas.tables().map(str::to_string).collect::<Vec<_>>() {
            let delta = deltas.delta(&table).cloned().unwrap_or_default();
            catalog.apply_delta(&table, &delta).unwrap();
        }
        assert_equivalent(&catalog, path, "post-delta");
    }
}
