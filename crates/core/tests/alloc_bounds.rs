//! Allocation bounds on the keyed hot path, counted by a global allocator.
//!
//! A key probe reads the key where it sits — in a borrowed row or in
//! borrowed values — so it allocates nothing. The MERGE groups its delta
//! rows by view key in place, so what it allocates grows with the keys it
//! touches, not with the rows that touch them. A delta program's joins
//! carry borrowed rows and build each output row once, at the core's root,
//! so what it allocates is a small constant per row it emits.
//!
//! Counts are per thread: the test harness runs tests in parallel, and
//! only the measuring thread's allocations are read.

use gpivot_algebra::{PivotSpec, Plan};
use gpivot_core::maintain::apply::{plan_merge, MergeLayout};
use gpivot_core::maintain::{DeltaProgram, PropagationCtx, SourceDeltas};
use gpivot_core::normalize_view;
use gpivot_exec::Executor;
use gpivot_storage::{Catalog, DataType, Row, Schema, Table, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// (allocations, bytes) made by this thread.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = ALLOCATED.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor locks.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the (allocations, bytes) this thread made running it.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let (n0, b0) = ALLOCATED.with(Cell::get);
    let out = f();
    let (n1, b1) = ALLOCATED.with(Cell::get);
    (out, (n1 - n0, b1 - b0))
}

#[test]
fn a_key_probe_allocates_nothing() {
    // The key (id, tag) is not a prefix: a string column sits between.
    let schema = Schema::from_pairs_keyed(
        &[
            ("id", DataType::Int),
            ("note", DataType::Str),
            ("tag", DataType::Str),
        ],
        &["id", "tag"],
    )
    .unwrap();
    let rows = (0..1_000i64).map(|i| {
        let tag = Value::str(["x", "y"][i as usize % 2]);
        Row::new(vec![Value::Int(i / 2), Value::str(format!("n{i}")), tag])
    });
    let table = Table::from_rows(Arc::new(schema), rows.collect()).unwrap();
    let probes: Vec<Row> = (0..600i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::str("other"), Value::str("y")]))
        .collect();
    let (hits, (n, bytes)) = allocations(|| {
        let mut hits = 0;
        for probe in &probes {
            let by_values = table.get_by_key_values([&probe[0], &probe[2]].into_iter());
            let by_row = table.get_by_key_of(probe);
            assert_eq!(by_values, by_row);
            hits += usize::from(by_row.is_some());
        }
        hits
    });
    assert_eq!(hits, 500, "ids 0..500 hold a `y` row");
    assert_eq!((n, bytes), (0, 0), "key probes allocated");
}

/// `items` (id, attr, val) keyed (id, attr), and its Fig. 23 pivot on
/// `attr` as a materialized view over ids `0..held`.
fn pivot_view(held: i64) -> (Catalog, Plan, Table) {
    let schema = Schema::from_pairs_keyed(
        &[
            ("id", DataType::Int),
            ("attr", DataType::Str),
            ("val", DataType::Int),
        ],
        &["id", "attr"],
    )
    .unwrap();
    let rows = (0..held).map(|id| Row::new(vec![Value::Int(id), Value::str("a"), Value::Int(id)]));
    let mut catalog = Catalog::new();
    let items = Table::from_rows(Arc::new(schema), rows.collect()).unwrap();
    catalog.register("items", items).unwrap();
    let spec = PivotSpec::simple("attr", "val", vec![Value::str("a"), Value::str("b")]);
    let plan = Plan::scan("items").gpivot(spec);
    let bag = Executor::new().run(&plan, &catalog).unwrap();
    let schema = bag.schema().clone();
    (catalog, plan, bag.into_keyed(schema).unwrap())
}

/// `n` signed core rows on the 64 ids `0..64`: every id gets both cells,
/// each with one value, as unconsolidated repeats of +1 and −1.
fn delta_on_64_keys(n: usize) -> Vec<(Row, i64)> {
    (0..n)
        .map(|i| {
            let id = (i % 64) as i64;
            let attr = ["a", "b"][(i / 64) % 2];
            let row = Row::new(vec![
                Value::Int(id),
                Value::str(attr),
                Value::Int(id + 1_000),
            ]);
            (row, if i % 3 == 0 { -1 } else { 1 })
        })
        .collect()
}

#[test]
fn a_merge_allocates_per_key_not_per_row() {
    // Half the 64 keys are held (updates), half are not (inserts).
    let (catalog, plan, mv) = pivot_view(32);
    let layout = MergeLayout::pivot(&plan, &catalog).unwrap();
    let (small, large) = (delta_on_64_keys(1_024), delta_on_64_keys(8_192));
    let ((ops_small, stats_small, _), (n_small, bytes_small)) =
        allocations(|| plan_merge(&mv, &layout, &small, None));
    let ((ops_large, stats_large, _), (n_large, bytes_large)) =
        allocations(|| plan_merge(&mv, &layout, &large, None));
    // Same keys, same patch shape: 32 updates and 32 inserts.
    assert_eq!(stats_small, stats_large);
    assert_eq!(
        (ops_small.len(), stats_small.updated, stats_small.inserted),
        (64, 32, 32)
    );
    assert_eq!(ops_large.len(), 64);
    assert!(
        n_large < 2 * n_small,
        "allocations grew with the rows: {n_small} for 1 024, {n_large} for 8 192"
    );
    assert!(
        bytes_large < 2 * bytes_small,
        "bytes grew with the rows: {bytes_small} for 1 024, {bytes_large} for 8 192"
    );
}

/// `n` new lineitems of existing orders (line numbers past the generated
/// ones), each joining one order and its customer.
fn new_lineitems(catalog: &Catalog, n: usize) -> SourceDeltas {
    let orders = catalog.table("orders").unwrap().rows();
    let rows = (0..n).map(|i| {
        let order = &orders[i % orders.len()];
        let line = 100 + (i / orders.len()) as i64;
        Row::new(vec![
            order[0].clone(),
            Value::Int(line),
            Value::Int(1),
            Value::Int(1),
            Value::Float(1_000.0 + i as f64),
            Value::Date(9_000),
        ])
    });
    let mut deltas = SourceDeltas::new();
    deltas.insert_rows("lineitem", rows.collect());
    deltas
}

#[test]
fn a_delta_program_allocates_a_constant_per_emitted_row() {
    // View (1)'s MERGE core: `π(lineitem) ⋈ orders ⋈ customer`.
    let catalog = gpivot_tpch::generate(&gpivot_tpch::TpchConfig::scale(0.05));
    let normalized = normalize_view(&gpivot_tpch::view1(), &catalog).unwrap();
    let Plan::GPivot { input: core, .. } = &normalized.plan else {
        panic!("view (1) normalizes to a top pivot: {}", normalized.plan);
    };
    let program = DeltaProgram::compile(core, &catalog).unwrap();
    program.declare(&catalog).unwrap();
    let per_row = |n: usize| {
        let deltas = new_lineitems(&catalog, n);
        let ctx = PropagationCtx::new(&catalog, &deltas);
        let (rows, (allocs, _)) = allocations(|| program.propagate(&ctx).unwrap());
        assert_eq!(rows.len(), n, "every new lineitem joins once");
        allocs as f64 / n as f64
    };
    let (small, large) = (per_row(1_024), per_row(8_192));
    // Each output row is one `Vec` and one `Arc<[Value]>`; the rest are
    // the few growing vectors of the run, amortized.
    assert!(small <= 3.0, "{small} allocations per row at 1 024 rows");
    assert!(
        large <= 1.25 * small,
        "allocations per row grew with the delta: {small} at 1 024, {large} at 8 192"
    );
}
