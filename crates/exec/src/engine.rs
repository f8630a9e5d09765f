//! The plan dispatcher: recursively evaluates a [`Plan`] bottom-up.
//!
//! An [`Executor`] is configured once — `Executor::new().with_threads(4)`
//! — and holds the worker pool every partitioned operator kernel submits
//! its jobs to. [`Executor::run`] returns just the result table;
//! [`Executor::run_traced`] additionally returns an [`ExecTrace`] — a
//! per-operator row-count profile rendered like `EXPLAIN ANALYZE`, which
//! the examples use to show where maintenance plans spend their rows.
//!
//! **Determinism.** Results are bit-identical across thread counts: the
//! choice between the sequential and hash-partitioned kernel of an
//! operator depends only on the input size (`PARALLEL_THRESHOLD`), the
//! partition count is a constant (`PARTITIONS`, never derived from the
//! thread count), partitioning uses a fixed-key hash, and partition
//! outputs merge in partition-index order. Threads only change which
//! worker runs which partition — see DESIGN.md §"Parallel execution".

use crate::columnar::{
    gpivot_columnar, gpivot_columnar_partitioned, hash_group_by_columnar,
    hash_group_by_columnar_partitioned, hash_join_columnar, hash_join_columnar_partitioned,
};
use crate::error::Result;
use crate::group::{hash_group_by, hash_group_by_partitioned};
use crate::join::{hash_join, hash_join_partitioned};
use crate::pivot::{gpivot, gpivot_partitioned, gunpivot};
use crate::pool::{morsels, WorkerPool};
use crate::provider::{ProviderSchemas, TableProvider};
use gpivot_algebra::Plan;
use gpivot_storage::{Row, RowMap, Table};

/// One operator's entry in an execution trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Nesting depth in the plan tree.
    pub depth: usize,
    /// Operator label (`op_name`).
    pub op: &'static str,
    /// Rows produced by this operator.
    pub rows_out: usize,
}

/// An `EXPLAIN ANALYZE`-style profile: operators in plan order with their
/// output cardinalities.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecTrace {
    pub entries: Vec<TraceEntry>,
}

impl ExecTrace {
    /// Total rows produced across all operators (a proxy for work done).
    pub fn total_rows(&self) -> usize {
        self.entries.iter().map(|e| e.rows_out).sum()
    }

    /// Render indented, one operator per line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{}{} → {} rows",
                "  ".repeat(e.depth),
                e.op,
                e.rows_out
            );
        }
        out
    }
}

impl std::fmt::Display for ExecTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Fixed hash-partition count for Join/GroupBy/GPivot. Deliberately a
/// constant and **not** derived from the thread count: the partitioning
/// (and with it the merged output order) must be identical across thread
/// counts.
const PARTITIONS: usize = 16;
/// Inputs with fewer rows than this stay on the sequential kernels. The
/// kernel choice depends on the input size only — never on the thread
/// count — so output order is identical across thread counts.
const PARALLEL_THRESHOLD: usize = 1024;
/// Rows per morsel for the order-preserving Select/Project split.
const MORSEL_ROWS: usize = 4096;

/// Should an operator over `input_rows` rows take the partitioned kernel?
fn partitioned(input_rows: usize) -> bool {
    input_rows >= PARALLEL_THRESHOLD
}

/// Batch plan executor: the [`WorkerPool`] the partitioned kernels submit
/// jobs to, the kernel family, and the recursive dispatcher. All data
/// comes from the provider; the executor holds only its settings and its
/// pool, so it is cheap to clone and share — clones share the pool's
/// workers. The pool installs the calling thread's tracing collector on
/// its worker for each task, so per-partition spans land in the caller's
/// store.
#[derive(Debug, Clone)]
pub struct Executor {
    pool: WorkerPool,
    columnar: bool,
}

impl Default for Executor {
    fn default() -> Self {
        Executor {
            pool: WorkerPool::new(1),
            columnar: true,
        }
    }
}

impl Executor {
    /// A single-threaded executor on the columnar kernels.
    pub fn new() -> Self {
        Executor::default()
    }

    /// Set the worker-thread count (1 = run partitions inline).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = WorkerPool::new(threads);
        self
    }

    /// Choose between the vectorized [`crate::columnar`] kernels over each
    /// table's cached columnar [`gpivot_storage::Chunk`] (`true`, default)
    /// and the row-at-a-time reference kernels (`false`) for
    /// Join/GroupBy/GPivot. Output is bit-identical either way.
    pub fn with_columnar(mut self, columnar: bool) -> Self {
        self.columnar = columnar;
        self
    }

    /// Evaluate `plan` against `provider`, returning the result as a bag
    /// table whose schema (including key metadata) comes from schema
    /// inference.
    pub fn run<P: TableProvider>(&self, plan: &Plan, provider: &P) -> Result<Table> {
        let mut trace = None;
        self.eval(plan, provider, 0, &mut trace)
    }

    /// Like [`Executor::run`], also returning the per-operator trace.
    pub fn run_traced<P: TableProvider>(
        &self,
        plan: &Plan,
        provider: &P,
    ) -> Result<(Table, ExecTrace)> {
        let mut trace = Some(ExecTrace::default());
        let table = self.eval(plan, provider, 0, &mut trace)?;
        let mut trace = trace.unwrap_or_default();
        // Entries were pushed post-order (children first); reversing puts
        // each parent before its children (for binary operators the right
        // subtree then lists before the left one).
        trace.entries.reverse();
        Ok((table, trace))
    }

    fn eval<P: TableProvider>(
        &self,
        plan: &Plan,
        provider: &P,
        depth: usize,
        trace: &mut Option<ExecTrace>,
    ) -> Result<Table> {
        let schemas = ProviderSchemas(provider);
        // Each operator's kernel work runs under an `op.*` span entered
        // only after its children have been evaluated, so the recorded
        // durations are per-operator self-times, not inclusive subtree
        // times (see DESIGN.md §"Observability"). Partitioned kernels skip
        // the RAII span and instead record `op.*` as the max partition
        // duration plus an `op.*.partition` sub-span per partition — the
        // self-time stays the operator's critical path, comparable with
        // the sequential reading.
        let result: Result<Table> = match plan {
            Plan::Scan { table } => {
                let _s = tracing::span("op.Scan").enter();
                let t = provider.get_table(table)?;
                // Share the base table's row storage instead of copying
                // O(|base|) rows per execution (copy-on-write `Arc`) —
                // and its cached columnar chunk, so repeated executions
                // over an unchanged base table vectorize it only once.
                Ok(t.as_bag())
            }

            Plan::Select { input, predicate } => {
                let child = self.eval(input, provider, depth + 1, trace)?;
                if partitioned(child.len()) {
                    let bound = predicate.bind(child.schema())?;
                    let jobs = morsels(child.len(), MORSEL_ROWS);
                    let outs = self.pool.run_timed(
                        "Select",
                        "op.Select",
                        "op.Select.partition",
                        jobs,
                        |range| {
                            Ok(child.rows()[range]
                                .iter()
                                .filter(|r| bound.holds(r))
                                .cloned()
                                .collect::<Vec<Row>>())
                        },
                    )?;
                    Ok(Table::bag(
                        child.schema().clone(),
                        outs.into_iter().flatten().collect(),
                    ))
                } else {
                    let _s = tracing::span("op.Select").enter();
                    let bound = predicate.bind(child.schema())?;
                    let rows = child
                        .rows()
                        .iter()
                        .filter(|r| bound.holds(r))
                        .cloned()
                        .collect();
                    Ok(Table::bag(child.schema().clone(), rows))
                }
            }

            Plan::Project { input, items } => {
                let child = self.eval(input, provider, depth + 1, trace)?;
                let out_schema = plan.schema(&schemas)?;
                let bound: Vec<_> = items
                    .iter()
                    .map(|(e, _)| e.bind(child.schema()))
                    .collect::<gpivot_algebra::Result<_>>()?;
                if partitioned(child.len()) {
                    let jobs = morsels(child.len(), MORSEL_ROWS);
                    let outs = self.pool.run_timed(
                        "Project",
                        "op.Project",
                        "op.Project.partition",
                        jobs,
                        |range| {
                            Ok(child.rows()[range]
                                .iter()
                                .map(|r| Row::new(bound.iter().map(|b| b.eval(r)).collect()))
                                .collect::<Vec<Row>>())
                        },
                    )?;
                    Ok(Table::bag(out_schema, outs.into_iter().flatten().collect()))
                } else {
                    let _s = tracing::span("op.Project").enter();
                    let rows = child
                        .rows()
                        .iter()
                        .map(|r| Row::new(bound.iter().map(|b| b.eval(r)).collect()))
                        .collect();
                    Ok(Table::bag(out_schema, rows))
                }
            }

            Plan::Join {
                left,
                right,
                kind,
                on,
                residual,
            } => {
                let l = self.eval(left, provider, depth + 1, trace)?;
                let r = self.eval(right, provider, depth + 1, trace)?;
                let out_schema = plan.schema(&schemas)?;
                let left_on: Vec<usize> = on
                    .iter()
                    .map(|(lc, _)| l.schema().index_of(lc))
                    .collect::<gpivot_storage::Result<_>>()?;
                let right_on: Vec<usize> = on
                    .iter()
                    .map(|(_, rc)| r.schema().index_of(rc))
                    .collect::<gpivot_storage::Result<_>>()?;
                let bound_res = residual.as_ref().map(|e| e.bind(&out_schema)).transpose()?;
                match (partitioned(l.len() + r.len()), self.columnar) {
                    (true, true) => hash_join_columnar_partitioned(
                        &l,
                        &r,
                        *kind,
                        &left_on,
                        &right_on,
                        bound_res.as_ref(),
                        out_schema,
                        &self.pool,
                        PARTITIONS,
                    ),
                    (true, false) => hash_join_partitioned(
                        &l,
                        &r,
                        *kind,
                        &left_on,
                        &right_on,
                        bound_res.as_ref(),
                        out_schema,
                        &self.pool,
                        PARTITIONS,
                    ),
                    (false, true) => {
                        let _s = tracing::span("op.Join").enter();
                        hash_join_columnar(
                            &l,
                            &r,
                            *kind,
                            &left_on,
                            &right_on,
                            bound_res.as_ref(),
                            out_schema,
                        )
                    }
                    (false, false) => {
                        let _s = tracing::span("op.Join").enter();
                        hash_join(
                            &l,
                            &r,
                            *kind,
                            &left_on,
                            &right_on,
                            bound_res.as_ref(),
                            out_schema,
                        )
                    }
                }
            }

            Plan::GroupBy {
                input,
                group_by,
                aggs,
            } => {
                let child = self.eval(input, provider, depth + 1, trace)?;
                let out_schema = plan.schema(&schemas)?;
                let group_idx: Vec<usize> = group_by
                    .iter()
                    .map(|g| child.schema().index_of(g))
                    .collect::<gpivot_storage::Result<_>>()?;
                let agg_inputs: Vec<usize> = aggs
                    .iter()
                    .map(|a| {
                        if a.func == gpivot_algebra::AggFunc::CountStar {
                            Ok(usize::MAX)
                        } else {
                            child.schema().index_of(&a.input)
                        }
                    })
                    .collect::<gpivot_storage::Result<_>>()?;
                match (partitioned(child.len()), self.columnar) {
                    (true, true) => hash_group_by_columnar_partitioned(
                        &child,
                        &group_idx,
                        aggs,
                        &agg_inputs,
                        out_schema,
                        &self.pool,
                        PARTITIONS,
                    ),
                    (true, false) => hash_group_by_partitioned(
                        &child,
                        &group_idx,
                        aggs,
                        &agg_inputs,
                        out_schema,
                        &self.pool,
                        PARTITIONS,
                    ),
                    (false, true) => {
                        let _s = tracing::span("op.GroupBy").enter();
                        hash_group_by_columnar(&child, &group_idx, aggs, &agg_inputs, out_schema)
                    }
                    (false, false) => {
                        let _s = tracing::span("op.GroupBy").enter();
                        hash_group_by(&child, &group_idx, aggs, &agg_inputs, out_schema)
                    }
                }
            }

            Plan::Union { left, right } => {
                let l = self.eval(left, provider, depth + 1, trace)?;
                let r = self.eval(right, provider, depth + 1, trace)?;
                let _s = tracing::span("op.Union").enter();
                let out_schema = plan.schema(&schemas)?;
                let mut rows = l.rows().to_vec();
                rows.extend(r.rows().iter().cloned());
                Ok(Table::bag(out_schema, rows))
            }

            Plan::Diff { left, right } => {
                let l = self.eval(left, provider, depth + 1, trace)?;
                let r = self.eval(right, provider, depth + 1, trace)?;
                let _s = tracing::span("op.Diff").enter();
                let out_schema = plan.schema(&schemas)?;
                // Bag difference: subtract up to multiplicity.
                let mut counts: RowMap<&Row, usize> = RowMap::default();
                for row in r.iter() {
                    *counts.entry(row).or_insert(0) += 1;
                }
                let mut rows = Vec::with_capacity(l.len().saturating_sub(r.len()));
                for row in l.iter() {
                    match counts.get_mut(row) {
                        Some(c) if *c > 0 => *c -= 1,
                        _ => rows.push(row.clone()),
                    }
                }
                Ok(Table::bag(out_schema, rows))
            }

            Plan::GPivot { input, spec } => {
                let child = self.eval(input, provider, depth + 1, trace)?;
                let out_schema = plan.schema(&schemas)?;
                match (partitioned(child.len()), self.columnar) {
                    (true, true) => gpivot_columnar_partitioned(
                        &child, spec, out_schema, &self.pool, PARTITIONS,
                    ),
                    (true, false) => {
                        gpivot_partitioned(&child, spec, out_schema, &self.pool, PARTITIONS)
                    }
                    (false, true) => {
                        let _s = tracing::span("op.GPivot").enter();
                        gpivot_columnar(&child, spec, out_schema)
                    }
                    (false, false) => {
                        let _s = tracing::span("op.GPivot").enter();
                        gpivot(&child, spec, out_schema)
                    }
                }
            }

            Plan::GUnpivot { input, spec } => {
                let child = self.eval(input, provider, depth + 1, trace)?;
                let _s = tracing::span("op.GUnpivot").enter();
                let out_schema = plan.schema(&schemas)?;
                gunpivot(&child, spec, out_schema)
            }
        };
        let result = result?;
        if let Some(t) = trace.as_mut() {
            t.entries.push(TraceEntry {
                depth,
                op: plan.op_name(),
                rows_out: result.len(),
            });
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_algebra::{AggSpec, Expr, PivotSpec, Plan};
    use gpivot_storage::{row, Catalog, DataType, Schema, Value};
    use std::sync::Arc;

    /// Figure 2's Payment/Product scenario, cut down.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let payment = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("ID", DataType::Int),
                    ("Payment", DataType::Str),
                    ("Price", DataType::Int),
                ],
                &["ID", "Payment"],
            )
            .unwrap(),
        );
        c.register(
            "payment",
            Table::from_rows(
                payment,
                vec![
                    row![1, "Credit", 180],
                    row![1, "ByAir", 20],
                    row![2, "Credit", 300],
                    row![3, "ByAir", 50],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let product = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("PID", DataType::Int),
                    ("Manu", DataType::Str),
                    ("Type", DataType::Str),
                ],
                &["PID"],
            )
            .unwrap(),
        );
        c.register(
            "product",
            Table::from_rows(
                product,
                vec![
                    row![1, "Sony", "TV"],
                    row![2, "Sony", "VCR"],
                    row![3, "Panasonic", "TV"],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    #[test]
    fn scan_select_project() {
        let c = catalog();
        let plan = Plan::scan("payment")
            .select(Expr::col("Price").gt(Expr::lit(100)))
            .project_cols(&["ID", "Price"]);
        let out = Executor::new().run(&plan, &c).unwrap();
        assert_eq!(out.sorted_rows(), vec![row![1, 180], row![2, 300]]);
    }

    #[test]
    fn pivot_then_join_pipeline() {
        let c = catalog();
        let spec = PivotSpec::simple(
            "Payment",
            "Price",
            vec![Value::str("Credit"), Value::str("ByAir")],
        );
        let plan = Plan::scan("payment")
            .gpivot(spec)
            .join(Plan::scan("product"), vec![("ID", "PID")]);
        let out = Executor::new().run(&plan, &c).unwrap();
        assert_eq!(out.len(), 3);
        let r1 = out.iter().find(|r| r[0] == Value::Int(1)).unwrap();
        // ID, Credit**Price, ByAir**Price, PID, Manu, Type
        assert_eq!(r1[1], Value::Int(180));
        assert_eq!(r1[2], Value::Int(20));
        assert_eq!(r1[4], Value::str("Sony"));
        let r2 = out.iter().find(|r| r[0] == Value::Int(2)).unwrap();
        assert!(r2[2].is_null());
    }

    #[test]
    fn group_by_over_join() {
        let c = catalog();
        let plan = Plan::scan("payment")
            .join(Plan::scan("product"), vec![("ID", "PID")])
            .group_by(&["Manu"], vec![AggSpec::sum("Price", "total")]);
        let out = Executor::new().run(&plan, &c).unwrap();
        assert_eq!(
            out.sorted_rows(),
            vec![row!["Panasonic", 50], row!["Sony", 500]]
        );
    }

    #[test]
    fn union_and_diff_bag_semantics() {
        let c = catalog();
        let u = Plan::scan("payment").union(Plan::scan("payment"));
        assert_eq!(Executor::new().run(&u, &c).unwrap().len(), 8);
        let d = u.clone().diff(Plan::scan("payment"));
        let out = Executor::new().run(&d, &c).unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn execute_traced_profiles_operators() {
        let c = catalog();
        let plan = Plan::scan("payment")
            .select(Expr::col("Price").gt(Expr::lit(100)))
            .gpivot(PivotSpec::simple(
                "Payment",
                "Price",
                vec![Value::str("Credit"), Value::str("ByAir")],
            ));
        let (table, trace) = Executor::new().run_traced(&plan, &c).unwrap();
        // Plan order: GPivot (depth 0), Select (1), Scan (2).
        let ops: Vec<&str> = trace.entries.iter().map(|e| e.op).collect();
        assert_eq!(ops, vec!["GPivot", "Select", "Scan"]);
        assert_eq!(trace.entries[2].rows_out, 4); // scan
        assert_eq!(trace.entries[1].rows_out, 2); // price > 100
        assert_eq!(trace.entries[0].rows_out, table.len());
        assert!(trace.render().contains("Scan → 4 rows"));
        assert_eq!(trace.total_rows(), 4 + 2 + table.len());
        // Untraced execution agrees.
        let plain = Executor::new().run(&plan, &c).unwrap();
        assert!(plain.bag_eq(&table));
    }

    #[test]
    fn scan_shares_base_table_rows_without_copy() {
        let c = catalog();
        let plan = Plan::scan("payment");
        let out = Executor::new().run(&plan, &c).unwrap();
        let base = c.get_table("payment").unwrap();
        // Regression: Scan used to clone every base row per execution.
        // The result must point at the very same row allocation.
        assert!(
            Arc::ptr_eq(&out.shared_rows(), &base.shared_rows()),
            "Scan copied the base table instead of sharing it"
        );
        // Two executions share the same storage too.
        let again = Executor::new().run(&plan, &c).unwrap();
        assert!(Arc::ptr_eq(&out.shared_rows(), &again.shared_rows()));
        // And the same cached columnar chunk: vectorizing the base table
        // in one execution pays for every later one.
        assert!(Arc::ptr_eq(&out.chunk(), &base.chunk()));
    }

    /// The columnar kernels produce bit-identical rows in bit-identical
    /// order to the row kernels, end to end through the engine, at both
    /// sequential and partitioned sizes.
    #[test]
    fn columnar_and_row_kernels_are_bit_identical_end_to_end() {
        let c = catalog();
        let plan = Plan::scan("payment")
            .gpivot(PivotSpec::simple(
                "Payment",
                "Price",
                vec![Value::str("Credit"), Value::str("ByAir")],
            ))
            .join(Plan::scan("product"), vec![("ID", "PID")])
            .group_by(&["Manu"], vec![AggSpec::sum("Credit**Price", "total")]);
        // Small input: sequential kernels.
        let rowk = Executor::new().with_columnar(false).run(&plan, &c).unwrap();
        let colk = Executor::new().with_columnar(true).run(&plan, &c).unwrap();
        assert_eq!(colk.rows(), rowk.rows());
        // Wide input: partitioned kernels, across thread counts.
        let mut c = Catalog::new();
        let schema = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("ID", DataType::Int),
                    ("Payment", DataType::Str),
                    ("Price", DataType::Int),
                ],
                &["ID", "Payment"],
            )
            .unwrap(),
        );
        let rows: Vec<Row> = (0..3000)
            .map(|i| {
                row![
                    i / 2,
                    if i % 2 == 0 { "Credit" } else { "ByAir" },
                    (i * 37) % 500
                ]
            })
            .collect();
        c.register("payment", Table::from_rows(schema, rows).unwrap())
            .unwrap();
        let plan = Plan::scan("payment").gpivot(PivotSpec::simple(
            "Payment",
            "Price",
            vec![Value::str("Credit"), Value::str("ByAir")],
        ));
        let rowk = Executor::new().with_columnar(false).run(&plan, &c).unwrap();
        for threads in [1, 4] {
            let colk = Executor::new()
                .with_columnar(true)
                .with_threads(threads)
                .run(&plan, &c)
                .unwrap();
            assert_eq!(colk.rows(), rowk.rows(), "threads={threads}");
        }
    }

    /// Wide inputs (≥ `PARALLEL_THRESHOLD`) produce bit-identical rows in
    /// bit-identical order at every pool width, and agree bag-wise with a
    /// purely sequential executor.
    #[test]
    fn parallel_execution_is_thread_invariant_end_to_end() {
        let mut c = Catalog::new();
        let schema = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("ID", DataType::Int),
                    ("Payment", DataType::Str),
                    ("Price", DataType::Int),
                ],
                &["ID", "Payment"],
            )
            .unwrap(),
        );
        let rows: Vec<Row> = (0..2000)
            .map(|i| {
                row![
                    i / 2,
                    if i % 2 == 0 { "Credit" } else { "ByAir" },
                    (i * 37) % 500
                ]
            })
            .collect();
        c.register(
            "payment",
            Table::from_rows(schema.clone(), rows.clone()).unwrap(),
        )
        .unwrap();
        let spec = PivotSpec::simple(
            "Payment",
            "Price",
            vec![Value::str("Credit"), Value::str("ByAir")],
        );
        let plan = Plan::scan("payment")
            .select(Expr::col("Price").gt(Expr::lit(10)))
            .gpivot(spec.clone());
        // The sequential reference: the same filter and the sequential
        // pivot kernel, called directly.
        let kept: Vec<Row> = rows
            .iter()
            .filter(|r| r[2] > Value::Int(10))
            .cloned()
            .collect();
        assert!(kept.len() >= PARALLEL_THRESHOLD, "must take the pool");
        let sequential = gpivot(
            &Table::bag(schema.clone(), kept),
            &spec,
            plan.schema(&ProviderSchemas(&c)).unwrap(),
        )
        .unwrap();
        let mut outputs = Vec::new();
        for threads in [1, 2, 8] {
            let out = Executor::new()
                .with_threads(threads)
                .run(&plan, &c)
                .unwrap();
            assert!(out.bag_eq(&sequential), "threads={threads}");
            outputs.push(out.rows().to_vec());
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
    }

    /// Parallel operators reconcile with the span store: one `op.X`
    /// parent reading (the max partition duration) plus an
    /// `op.X.partition` sub-span per partition.
    #[test]
    fn parallel_spans_reconcile_max_of_partitions() {
        let mut c = Catalog::new();
        let schema =
            Arc::new(Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Int)]).unwrap());
        let rows: Vec<Row> = (0..4000).map(|i| row![i % 97, i]).collect();
        c.register("t", Table::from_rows(schema, rows).unwrap())
            .unwrap();
        let plan = Plan::scan("t").group_by(&["g"], vec![AggSpec::sum("v", "s")]);
        let exec = Executor::new().with_threads(2);
        let sub = tracing::TimingSubscriber::shared();
        tracing::with_collector(sub.clone(), || {
            exec.run(&plan, &c).unwrap();
        });
        let parent = sub.histogram("op.GroupBy").unwrap();
        let parts = sub.histogram("op.GroupBy.partition").unwrap();
        assert_eq!(parent.count(), 1, "exactly one parent self-time reading");
        assert_eq!(
            parts.count(),
            PARTITIONS as u64,
            "one sub-span per partition"
        );
        assert!(
            parent.max() <= parts.max(),
            "parent self-time is the max partition duration"
        );
    }

    #[test]
    fn full_view_of_figure_2_shape() {
        // GPIVOT(payment) ⋈ product, then GROUPBY(Manu,Type), then pivot
        // the sums by Type — the paper's Figure 2 view.
        let c = catalog();
        let lower = Plan::scan("payment")
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
            );
        let top = lower.gpivot(PivotSpec::new(
            vec!["Type"],
            vec!["CreditSum", "ByAirSum"],
            vec![vec![Value::str("TV")], vec![Value::str("VCR")]],
        ));
        let out = Executor::new().run(&top, &c).unwrap();
        // Manu, TV**CreditSum, TV**ByAirSum, VCR**CreditSum, VCR**ByAirSum
        assert_eq!(out.schema().arity(), 5);
        let sony = out.iter().find(|r| r[0] == Value::str("Sony")).unwrap();
        assert_eq!(sony[1], Value::Int(180));
        assert_eq!(sony[2], Value::Int(20));
        assert_eq!(sony[3], Value::Int(300));
        assert!(sony[4].is_null());
    }
}
