//! The **propagate phase**: push source deltas up a plan tree as signed
//! multisets, one rule per operator (§6.2; relational rules after [11, 18],
//! GPIVOT/GUNPIVOT rules after Fig. 22).
//!
//! Conventions:
//!
//! * The catalog holds the **pre-update** state; source deltas are the
//!   pending changes. `propagate_signed(plan)` returns `Δ(plan) =
//!   plan(post) − plan(pre)` as [`SignedRows`]: a flat list of weighted
//!   rows in which equal rows may repeat and their weights add.
//!   [`propagate`] is that list consolidated into a [`Delta`].
//! * **Consolidation happens only where a rule needs it.** σ, π, ⋈, ∪ and
//!   `GUNPIVOT` are linear in a signed multiset, so they map, filter, join
//!   and concatenate the list without ever adding up equal rows. The rules
//!   that build a post state (`GROUPBY`, an intermediate `GPIVOT`, `Diff`)
//!   consolidate their input first, because [`post_state_table`] needs
//!   each row once; so do the apply rules that test a row's presence
//!   (`collect_cell_changes`, Fig. 29's candidate recompute, the
//!   insert/delete patch).
//! * Join propagation uses the exact three-term bag identity
//!   `Δ(A ⋈ B) = ΔA ⋈ B_pre ⊎ A_pre ⋈ ΔB ⊎ ΔA ⋈ ΔB` (signed weights
//!   multiply in the last term). Only pre states appear, and only the rows
//!   of them a delta's join keys can reach are ever fetched. Each term
//!   builds a hash table on the delta side, keyed by the join columns read
//!   in place, and pushes the joined rows straight to the output list.
//! * `GROUPBY` inside the tree uses the insert/delete rules of \[18\]:
//!   identify affected groups, recompute them from pre and post states, and
//!   emit delete+insert pairs — exactly the "costly identification and then
//!   recomputation of affected groups" the paper measures (§7.3).
//! * An intermediate `GPIVOT` uses the Fig. 22 insert/delete rules: the
//!   affected keys' old output rows are re-derived from the pre state
//!   (delete side) and new rows from the post state (insert side). This is
//!   the expensive path the GPIVOT pullup exists to avoid.
//! * `GUNPIVOT` is linear (Fig. 22's union-distribution): the delta is
//!   unpivoted row-wise.
//!
//! Every rule that needs pre-state rows gets them from one primitive,
//! [`PropagationCtx::eval_pre_matching`]: evaluate a subplan keeping only
//! the rows whose projection onto some columns is in a key set, with the
//! restriction pushed down to hash-index probes on the base tables
//! ([`Table::index_on`]) — the index lookups the paper assumes of its host
//! DBMS (§6.2, §7). Propagation therefore costs O(|Δ| · fan-out), not
//! O(|base|).

use crate::error::{CoreError, Result};
use crate::maintain::SourceDeltas;
use gpivot_algebra::plan::{JoinKind, Plan};
use gpivot_algebra::{AggFunc, Expr};
use gpivot_exec::pivot::{PivotLayout, UnpivotLayout};
use gpivot_exec::{Executor, Overlay, TableProvider};
use gpivot_storage::{Catalog, Delta, Row, RowMap, RowSet, RowState, Schema, Table, Value};
use std::cell::Cell;
use std::hash::{BuildHasher, Hash, Hasher};

/// A signed multiset as a flat list: each row carries a non-zero weight
/// (negative = deleted), equal rows may repeat, and their weights add.
/// Propagation produces it; a rule that needs each row once calls
/// [`consolidate`].
pub type SignedRows = Vec<(Row, i64)>;

/// Add up the weights of equal rows, dropping the ones that cancel.
pub fn consolidate(rows: impl IntoIterator<Item = (Row, i64)>) -> Delta {
    rows.into_iter().collect()
}

/// Overlay names of the restricted children a single operator node runs
/// over in [`PropagationCtx::eval_pre_matching`].
const RESTRICTED: [&str; 2] = ["__restricted_0", "__restricted_1"];

/// Propagation context: pre-state catalog plus pending source deltas.
/// Every pre/post subplan evaluation runs on an [`Executor`].
pub struct PropagationCtx<'a> {
    pub catalog: &'a Catalog,
    pub deltas: &'a SourceDeltas,
    /// Rows flowing through plan operators across every pre/post subplan
    /// evaluation in this propagation (observability; see
    /// [`PropagationCtx::rows_evaluated`]).
    rows_evaluated: Cell<usize>,
}

impl<'a> PropagationCtx<'a> {
    pub fn new(catalog: &'a Catalog, deltas: &'a SourceDeltas) -> Self {
        PropagationCtx {
            catalog,
            deltas,
            rows_evaluated: Cell::new(0),
        }
    }

    /// Total operator-output rows evaluated so far, over every
    /// [`PropagationCtx::eval_pre_matching`] / [`PropagationCtx::eval_pre`]
    /// / [`PropagationCtx::eval_post`] call — the propagate phase's work
    /// proxy surfaced in `MaintenanceOutcome::rows_propagated`.
    pub fn rows_evaluated(&self) -> usize {
        self.rows_evaluated.get()
    }

    fn count_rows(&self, rows: usize) {
        self.rows_evaluated.set(self.rows_evaluated.get() + rows);
    }

    /// Does any base table under `plan` have a pending delta?
    pub fn touches(&self, plan: &Plan) -> bool {
        plan.base_tables()
            .iter()
            .any(|t| self.deltas.delta(t).is_some_and(|d| !d.is_empty()))
    }

    /// Evaluate a subplan against the pre-update state, in full. The
    /// maintenance rules use [`PropagationCtx::eval_pre_matching`]; this is
    /// its fallback arm, the `Diff` rule and the test oracle.
    pub fn eval_pre(&self, plan: &Plan) -> Result<Table> {
        let (table, trace) = Executor::new().run_traced(plan, self.catalog)?;
        self.count_rows(trace.total_rows());
        Ok(table)
    }

    /// Evaluate `plan` against the pre-update state, keeping only the rows
    /// whose projection onto `cols` (output column names) is in `keys` —
    /// bag-equal to filtering [`PropagationCtx::eval_pre`], but with the
    /// restriction pushed down so the work follows `keys`, not the base
    /// tables:
    ///
    /// * `Scan` probes the table's hash index on `cols`
    ///   ([`Table::index_on`]), resolved through the provider so the
    ///   `Scan` fault site fires as for any scan;
    /// * `Select` passes the restriction through; `Project` passes it
    ///   through pass-through columns (`Expr::Col`), renaming `cols`;
    /// * `GroupBy` / `GPivot` pass it through when `cols` are group keys /
    ///   pivot `K` columns (whole groups are in or out);
    /// * an inner `Join` restricts the side carrying `cols`, collects that
    ///   result's non-`NULL` join keys, restricts the other side by them,
    ///   and joins the two small results;
    /// * anything else — a computed column, an outer join, `cols` spanning
    ///   both join sides, `Union`/`Diff`/`GUnpivot` — evaluates the node in
    ///   full and filters: the same function's degenerate case.
    ///
    /// Each operator above a restricted child is run by the executor's own
    /// kernel, as that single node over an [`Overlay`] holding the child —
    /// operator semantics are never re-implemented here. `keys` match by
    /// [`Value`]'s `Hash`/`Eq` (`NULL` = `NULL`, as GROUPBY needs); join
    /// rules strip `NULL`-bearing keys before calling.
    pub fn eval_pre_matching<S: BuildHasher>(
        &self,
        plan: &Plan,
        cols: &[String],
        keys: &RowSet<Row, S>,
    ) -> Result<Table> {
        let _s = tracing::span("maintain.probe").enter();
        self.restrict(plan, cols, keys)
    }

    fn restrict<S: BuildHasher>(
        &self,
        plan: &Plan,
        cols: &[String],
        keys: &RowSet<Row, S>,
    ) -> Result<Table> {
        let subset_of = |names: &[String]| cols.iter().all(|c| names.contains(c));
        let stub = |i: usize| Box::new(Plan::scan(RESTRICTED[i]));
        match plan {
            Plan::Scan { table } => {
                let base = self.catalog.get_table(table)?;
                let index = base.index_on(&positions(base.schema(), cols)?);
                let rows: Vec<Row> = keys.iter().flat_map(|k| index.get(k)).cloned().collect();
                self.count_rows(rows.len());
                Ok(Table::bag(base.schema().clone(), rows))
            }
            Plan::Select { input, predicate } => {
                let child = self.restrict(input, cols, keys)?;
                let node = Plan::Select {
                    input: stub(0),
                    predicate: predicate.clone(),
                };
                self.run_node(node, [child])
            }
            Plan::Project { input, items } => {
                // Each restricted column must be a pure pass-through.
                let renamed: Option<Vec<String>> = cols
                    .iter()
                    .map(|c| {
                        items.iter().find_map(|(e, name)| match e {
                            Expr::Col(from) if name == c => Some(from.clone()),
                            _ => None,
                        })
                    })
                    .collect();
                let Some(renamed) = renamed else {
                    return self.eval_pre_filtered(plan, cols, keys);
                };
                let child = self.restrict(input, &renamed, keys)?;
                let node = Plan::Project {
                    input: stub(0),
                    items: items.clone(),
                };
                self.run_node(node, [child])
            }
            Plan::GroupBy {
                input,
                group_by,
                aggs,
            } if subset_of(group_by) => {
                let child = self.restrict(input, cols, keys)?;
                let node = Plan::GroupBy {
                    input: stub(0),
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                };
                self.run_node(node, [child])
            }
            Plan::GPivot { input, spec }
                if subset_of(&spec.validate(&*input.schema(self.catalog)?)?) =>
            {
                let child = self.restrict(input, cols, keys)?;
                let node = Plan::GPivot {
                    input: stub(0),
                    spec: spec.clone(),
                };
                self.run_node(node, [child])
            }
            Plan::Join {
                left,
                right,
                kind: JoinKind::Inner,
                on,
                residual,
            } => {
                let (left_on, right_on): (Vec<String>, Vec<String>) = on.iter().cloned().unzip();
                let has_cols = |side: &Plan| -> Result<bool> {
                    let schema = side.schema(self.catalog)?;
                    Ok(cols.iter().all(|c| schema.index_of(c).is_ok()))
                };
                // Restrict the side carrying `cols`, then the other side
                // by the join keys that survived.
                let (l, r) = if has_cols(left)? {
                    let l = self.restrict(left, cols, keys)?;
                    let r = self.restrict(right, &right_on, &join_keys(&l, &left_on)?)?;
                    (l, r)
                } else if has_cols(right)? {
                    let r = self.restrict(right, cols, keys)?;
                    let l = self.restrict(left, &left_on, &join_keys(&r, &right_on)?)?;
                    (l, r)
                } else {
                    return self.eval_pre_filtered(plan, cols, keys);
                };
                let node = Plan::Join {
                    left: stub(0),
                    right: stub(1),
                    kind: JoinKind::Inner,
                    on: on.clone(),
                    residual: residual.clone(),
                };
                self.run_node(node, [l, r])
            }
            _ => self.eval_pre_filtered(plan, cols, keys),
        }
    }

    /// Run one operator `node`, whose inputs are [`RESTRICTED`] scans, over
    /// the already restricted `children`.
    fn run_node<const N: usize>(&self, node: Plan, children: [Table; N]) -> Result<Table> {
        let mut overlay = Overlay::new(self.catalog);
        for (name, child) in RESTRICTED.iter().zip(children) {
            overlay.put(*name, child);
        }
        let out = Executor::new().run(&node, &overlay)?;
        // The children were counted when they were produced.
        self.count_rows(out.len());
        Ok(out)
    }

    /// The fallback arm of [`PropagationCtx::eval_pre_matching`]: evaluate
    /// `plan` in full, then filter.
    fn eval_pre_filtered<S: BuildHasher>(
        &self,
        plan: &Plan,
        cols: &[String],
        keys: &RowSet<Row, S>,
    ) -> Result<Table> {
        let full = self.eval_pre(plan)?;
        let idx = positions(full.schema(), cols)?;
        let rows = full
            .iter()
            .filter(|r| keys.contains(&r.project(&idx)))
            .cloned()
            .collect();
        Ok(Table::bag(full.schema().clone(), rows))
    }

    /// Evaluate a subplan against the post-update state (pre ⊕ deltas).
    pub fn eval_post(&self, plan: &Plan) -> Result<Table> {
        let mut overlay = Overlay::new(self.catalog);
        for table in plan.base_tables() {
            if let Some(delta) = self.deltas.delta(&table) {
                if !delta.is_empty() {
                    let pre = self.catalog.table(&table)?;
                    let rows = delta.iter().map(|(r, &w)| (r, w));
                    overlay.put(table.clone(), post_state_table(pre, rows));
                }
            }
        }
        let (table, trace) = Executor::new().run_traced(plan, &overlay)?;
        self.count_rows(trace.total_rows());
        Ok(table)
    }
}

/// Positions of the named columns in `schema`.
fn positions(schema: &Schema, cols: &[String]) -> Result<Vec<usize>> {
    Ok(cols
        .iter()
        .map(|c| schema.index_of(c))
        .collect::<gpivot_storage::Result<_>>()?)
}

/// The distinct join keys of `rows` on the named columns, without the
/// `NULL`-bearing ones (which never join).
fn join_keys(rows: &Table, on: &[String]) -> Result<RowSet<Row>> {
    let idx = positions(rows.schema(), on)?;
    Ok(non_null_keys(rows.iter(), &idx))
}

/// Distinct `NULL`-free projections of `rows` onto `idx`.
fn non_null_keys<'r>(rows: impl Iterator<Item = &'r Row>, idx: &[usize]) -> RowSet<Row> {
    rows.map(|r| r.project(idx))
        .filter(|k| !k.iter().any(Value::is_null))
        .collect()
}

/// Build the post-update state of one table as a bag (pre ⊕ delta).
/// `delta` must be consolidated — each row at most once, as a [`Delta`]
/// iterates — since a row's weight says how many copies to drop or add.
pub fn post_state_table<'r>(pre: &Table, delta: impl IntoIterator<Item = (&'r Row, i64)>) -> Table {
    let mut deleted: RowMap<&Row, i64> = RowMap::default();
    let mut inserted = Vec::new();
    for (row, w) in delta {
        if w < 0 {
            deleted.insert(row, -w);
        } else {
            inserted.extend(std::iter::repeat_n(row, w as usize));
        }
    }
    let mut rows = Vec::with_capacity(pre.len() + inserted.len());
    for row in pre.iter() {
        match deleted.get_mut(row) {
            Some(c) if *c > 0 => *c -= 1,
            _ => rows.push(row.clone()),
        }
    }
    rows.extend(inserted.into_iter().cloned());
    Table::bag(pre.schema().clone(), rows)
}

/// Propagate source deltas through `plan`, returning the output delta
/// consolidated: [`propagate_signed`] with equal rows' weights added.
pub fn propagate(plan: &Plan, ctx: &PropagationCtx<'_>) -> Result<Delta> {
    Ok(consolidate(propagate_signed(plan, ctx)?))
}

/// The old rows retracted and the new rows inserted, unconsolidated: the
/// output of the rules that recompute affected groups or keys.
fn replace_rows(old: &Table, new: &Table) -> SignedRows {
    let old = old.iter().map(|r| (r.clone(), -1));
    old.chain(new.iter().map(|r| (r.clone(), 1))).collect()
}

/// Propagate source deltas through `plan`, returning the output delta as
/// signed rows that are not consolidated (equal rows may repeat).
pub fn propagate_signed(plan: &Plan, ctx: &PropagationCtx<'_>) -> Result<SignedRows> {
    // Untouched subtrees contribute no delta.
    if !ctx.touches(plan) {
        return Ok(SignedRows::new());
    }
    match plan {
        Plan::Scan { table } => Ok(ctx.deltas.delta(table).map_or_else(SignedRows::new, |d| {
            d.iter().map(|(r, &w)| (r.clone(), w)).collect()
        })),

        Plan::Select { input, predicate } => {
            let mut din = propagate_signed(input, ctx)?;
            if din.is_empty() {
                return Ok(din);
            }
            let schema = input.schema(ctx.catalog)?;
            let bound = predicate.bind(&schema)?;
            din.retain(|(r, _)| bound.holds(r));
            Ok(din)
        }

        Plan::Project { input, items } => {
            let mut din = propagate_signed(input, ctx)?;
            if din.is_empty() {
                return Ok(din);
            }
            let schema = input.schema(ctx.catalog)?;
            let bound: Vec<_> = items
                .iter()
                .map(|(e, _)| e.bind(&schema))
                .collect::<gpivot_algebra::Result<_>>()?;
            for (r, _) in &mut din {
                *r = Row::new(bound.iter().map(|b| b.eval(r)).collect());
            }
            Ok(din)
        }

        Plan::Join {
            left,
            right,
            kind,
            on,
            residual,
        } => {
            if *kind != JoinKind::Inner {
                return Err(CoreError::NotMaintainable(format!(
                    "delta propagation through {kind} joins is not supported; \
                     use full recomputation"
                )));
            }
            let dl = propagate_signed(left, ctx)?;
            let dr = propagate_signed(right, ctx)?;
            let (left_names, right_names): (Vec<String>, Vec<String>) = on.iter().cloned().unzip();
            let left_on = positions(&*left.schema(ctx.catalog)?, &left_names)?;
            let right_on = positions(&*right.schema(ctx.catalog)?, &right_names)?;
            let out_schema = plan.schema(ctx.catalog)?;
            let bound_res = residual.as_ref().map(|e| e.bind(&out_schema)).transpose()?;

            let mut out = SignedRows::new();
            // ΔA ⋈ B_pre: probe B with ΔA's join keys.
            if !dl.is_empty() {
                let keys = non_null_keys(dl.iter().map(|(r, _)| r), &left_on);
                let b_pre = ctx.eval_pre_matching(right, &right_names, &keys)?;
                delta_join_into(
                    &dl,
                    &left_on,
                    b_pre.iter().map(|r| (r, 1)),
                    &right_on,
                    /*delta_left=*/ true,
                    bound_res.as_ref(),
                    &mut out,
                );
            }
            // A_post ⋈ ΔB = A_pre ⋈ ΔB ⊎ ΔA ⋈ ΔB: probe A with ΔB's join
            // keys, then correct by the (small) delta–delta join, whose
            // signed weights multiply.
            if !dr.is_empty() {
                let keys = non_null_keys(dr.iter().map(|(r, _)| r), &right_on);
                let a_pre = ctx.eval_pre_matching(left, &left_names, &keys)?;
                delta_join_into(
                    &dr,
                    &right_on,
                    a_pre.iter().map(|r| (r, 1)),
                    &left_on,
                    /*delta_left=*/ false,
                    bound_res.as_ref(),
                    &mut out,
                );
                if !dl.is_empty() {
                    delta_join_into(
                        &dr,
                        &right_on,
                        dl.iter().map(|(r, w)| (r, *w)),
                        &left_on,
                        /*delta_left=*/ false,
                        bound_res.as_ref(),
                        &mut out,
                    );
                }
            }
            Ok(out)
        }

        Plan::GroupBy {
            input,
            group_by,
            aggs,
        } => {
            let din = consolidate(propagate_signed(input, ctx)?);
            if din.is_empty() {
                return Ok(SignedRows::new());
            }
            // Insert/delete rules of [18]: recompute affected groups.
            let in_schema = input.schema(ctx.catalog)?;
            let group_idx = positions(&in_schema, group_by)?;
            let affected: RowSet<Row> = din.distinct_values_at(&group_idx).into_iter().collect();

            // Only the affected groups' input rows are fetched; every row
            // of `din` belongs to one of them.
            let pre_in = ctx.eval_pre_matching(input, group_by, &affected)?;
            let post_in = post_state_table(&pre_in, din.iter().map(|(r, &w)| (r, w)));
            let out_schema = plan.schema(ctx.catalog)?;
            let agg_inputs: Vec<usize> = aggs
                .iter()
                .map(|a| {
                    if a.func == AggFunc::CountStar {
                        Ok(usize::MAX)
                    } else {
                        in_schema.index_of(&a.input)
                    }
                })
                .collect::<gpivot_storage::Result<_>>()?;
            let old_groups = gpivot_exec::group::hash_group_by(
                &pre_in,
                &group_idx,
                aggs,
                &agg_inputs,
                out_schema.clone(),
            )?;
            let new_groups = gpivot_exec::group::hash_group_by(
                &post_in,
                &group_idx,
                aggs,
                &agg_inputs,
                out_schema,
            )?;
            Ok(replace_rows(&old_groups, &new_groups))
        }

        Plan::Union { left, right } => {
            let mut d = propagate_signed(left, ctx)?;
            d.extend(propagate_signed(right, ctx)?);
            Ok(d)
        }

        Plan::Diff { .. } => {
            // Bag difference is not delta-linear; recompute both states.
            // Consolidated, so what flows on is the difference, not two
            // whole results.
            let pre = ctx.eval_pre(plan)?;
            let post = ctx.eval_post(plan)?;
            Ok(consolidate(replace_rows(&pre, &post))
                .into_counts()
                .collect())
        }

        Plan::GPivot { input, spec } => {
            // Fig. 22 insert/delete rules: re-derive the affected keys'
            // pivot rows from the pre state (deletes) and the post state
            // (inserts). Accessing "the original pivoted result" is exactly
            // the cost the paper attributes to intermediate pivots (§2.3).
            let din = consolidate(propagate_signed(input, ctx)?);
            if din.is_empty() {
                return Ok(SignedRows::new());
            }
            let in_schema = input.schema(ctx.catalog)?;
            let layout = PivotLayout::resolve(spec, &in_schema)?;
            // Only delta rows whose dimension tuple is an output parameter
            // (and with a non-⊥ measure) affect the output.
            let relevant = din.filter_rows(|r| {
                layout.group_lookup.contains_key(&r.project(&layout.by_idx))
                    && !layout.on_idx.iter().all(|&oi| r[oi].is_null())
            });
            if relevant.is_empty() {
                return Ok(SignedRows::new());
            }
            let affected: RowSet<Row> = relevant
                .distinct_values_at(&layout.k_idx)
                .into_iter()
                .collect();

            // Fetch the affected keys' pre-state input rows, and form their
            // post state from the part of `din` that touches those keys.
            let k_names: Vec<String> = layout
                .k_idx
                .iter()
                .map(|&i| in_schema.field_at(i).name.clone())
                .collect();
            let pre_in = ctx.eval_pre_matching(input, &k_names, &affected)?;
            let din_affected = din.filter_rows(|r| affected.contains(&r.project(&layout.k_idx)));
            let post_in = post_state_table(&pre_in, din_affected.iter().map(|(r, &w)| (r, w)));
            let out_schema = plan.schema(ctx.catalog)?;
            let old_rows = gpivot_exec::pivot::gpivot(&pre_in, spec, out_schema.clone())?;
            let new_rows = gpivot_exec::pivot::gpivot(&post_in, spec, out_schema)?;
            Ok(replace_rows(&old_rows, &new_rows))
        }

        Plan::GUnpivot { input, spec } => {
            // Fig. 22: GUNPIVOT distributes over bag union/difference.
            let din = propagate_signed(input, ctx)?;
            if din.is_empty() {
                return Ok(din);
            }
            let in_schema = input.schema(ctx.catalog)?;
            let layout = UnpivotLayout::resolve(spec, &in_schema)?;
            let mut out = SignedRows::new();
            for (row, w) in &din {
                for (g, cols) in spec.groups.iter().zip(&layout.group_cols) {
                    if cols.iter().all(|&c| row[c].is_null()) {
                        continue;
                    }
                    let mut v = Vec::with_capacity(layout.k_idx.len() + g.tags.len() + cols.len());
                    v.extend(layout.k_idx.iter().map(|&i| row[i].clone()));
                    v.extend(g.tags.iter().cloned());
                    v.extend(cols.iter().map(|&c| row[c].clone()));
                    out.push((Row::new(v), *w));
                }
            }
            Ok(out)
        }
    }
}

/// "No position": the end of a chain in [`delta_join_into`]'s table.
const NIL: usize = usize::MAX;

/// `delta ⋈ other`, pushing the signed joined rows onto `out`. `other`
/// is a bag of weighted rows: a fetched pre state (every weight 1) or the
/// other side's delta (signed weights, which multiply with `delta`'s).
///
/// `delta_left` selects the output column order: `true` → delta columns
/// first (delta is the plan's left side), `false` → `other`'s first.
fn delta_join_into<'r>(
    delta: &[(Row, i64)],
    delta_on: &[usize],
    other: impl Iterator<Item = (&'r Row, i64)>,
    other_on: &[usize],
    delta_left: bool,
    residual: Option<&gpivot_algebra::BoundExpr>,
    out: &mut SignedRows,
) {
    let _s = tracing::span("maintain.delta_join").enter();
    // Build on the delta (the small side): bucket heads plus a chain of
    // positions into `delta`, hashed on the join columns read in place.
    // No key is materialized: candidates are confirmed column by column on
    // probe. A `NULL` join value never matches, so it hashes to `None`.
    let hasher = RowState::default();
    let hash_on = |row: &Row, on: &[usize]| -> Option<u64> {
        let mut h = hasher.build_hasher();
        for &c in on {
            if row[c].is_null() {
                return None;
            }
            row[c].hash(&mut h);
        }
        Some(h.finish())
    };
    let mask = delta.len().next_power_of_two() - 1;
    let mut heads = vec![NIL; mask + 1];
    let mut next = vec![NIL; delta.len()];
    for (pos, (row, _)) in delta.iter().enumerate() {
        if let Some(h) = hash_on(row, delta_on) {
            let bucket = &mut heads[h as usize & mask];
            next[pos] = *bucket;
            *bucket = pos;
        }
    }
    for (orow, ow) in other {
        let Some(h) = hash_on(orow, other_on) else {
            continue;
        };
        let mut pos = heads[h as usize & mask];
        while pos != NIL {
            let (drow, w) = &delta[pos];
            pos = next[pos];
            // A bucket holds every key that hashes to it.
            if !delta_on
                .iter()
                .zip(other_on)
                .all(|(&d, &o)| drow[d] == orow[o])
            {
                continue;
            }
            let joined = if delta_left {
                drow.concat(orow)
            } else {
                orow.concat(drow)
            };
            if residual.is_none_or(|p| p.holds(&joined)) {
                out.push((joined, w * ow));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_algebra::{AggSpec, Expr, PivotSpec, Plan};
    use gpivot_storage::{row, DataType, Schema};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let items = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("id", DataType::Int),
                    ("attr", DataType::Str),
                    ("val", DataType::Int),
                ],
                &["id", "attr"],
            )
            .unwrap(),
        );
        c.register(
            "items",
            Table::from_rows(
                items,
                vec![
                    row![1, "a", 10],
                    row![1, "b", 20],
                    row![2, "a", 30],
                    row![3, "b", 40],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let names = Arc::new(
            Schema::from_pairs_keyed(&[("nid", DataType::Int), ("name", DataType::Str)], &["nid"])
                .unwrap(),
        );
        c.register(
            "names",
            Table::from_rows(
                names,
                vec![row![1, "one"], row![2, "two"], row![3, "three"]],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    /// Incremental-vs-recompute oracle: Δ(plan) must equal
    /// plan(post) − plan(pre).
    fn assert_delta_correct(plan: &Plan, catalog: &Catalog, deltas: &SourceDeltas) {
        let ctx = PropagationCtx::new(catalog, deltas);
        let got = propagate(plan, &ctx).unwrap();
        let pre = ctx.eval_pre(plan).unwrap();
        let post = ctx.eval_post(plan).unwrap();
        let mut expected = Delta::from_deletes(pre.rows().iter().cloned());
        expected.merge(&Delta::from_inserts(post.rows().iter().cloned()));
        assert_eq!(got, expected, "delta mismatch for plan:\n{plan}");
    }

    fn mixed_deltas() -> SourceDeltas {
        let mut d = SourceDeltas::new();
        d.delete_rows("items", vec![row![1, "b", 20]]);
        d.insert_rows("items", vec![row![1, "b", 99], row![4, "a", 7]]);
        d
    }

    #[test]
    fn select_propagation() {
        let plan = Plan::scan("items").select(Expr::col("val").gt(Expr::lit(15)));
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn project_propagation() {
        let plan = Plan::scan("items").project_cols(&["id", "val"]);
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn join_propagation_left_delta() {
        let plan = Plan::scan("items").join(Plan::scan("names"), vec![("id", "nid")]);
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn join_propagation_both_sides() {
        let plan = Plan::scan("items").join(Plan::scan("names"), vec![("id", "nid")]);
        let mut d = mixed_deltas();
        d.delete_rows("names", vec![row![2, "two"]]);
        d.insert_rows("names", vec![row![4, "four"]]);
        assert_delta_correct(&plan, &catalog(), &d);
    }

    // --- The three-term join identity `ΔA ⋈ B ⊎ A ⋈ ΔB ⊎ ΔA ⋈ ΔB` ---

    fn items_join_names() -> Plan {
        Plan::scan("items").join(Plan::scan("names"), vec![("id", "nid")])
    }

    #[test]
    fn join_both_sides_inserted_on_the_same_key() {
        // A new name *and* its items in one batch: every output row comes
        // from the ΔA ⋈ ΔB term alone.
        let mut d = SourceDeltas::new();
        d.insert_rows("names", vec![row![4, "four"]]);
        d.insert_rows("items", vec![row![4, "a", 7], row![4, "b", 8]]);
        assert_delta_correct(&items_join_names(), &catalog(), &d);
    }

    #[test]
    fn join_both_sides_deleted_on_the_same_key() {
        // ΔA ⋈ B_pre and A_pre ⋈ ΔB each retract the joined rows once;
        // ΔA ⋈ ΔB (−1 · −1) adds them back once.
        let mut d = SourceDeltas::new();
        d.delete_rows("names", vec![row![1, "one"]]);
        d.delete_rows("items", vec![row![1, "a", 10], row![1, "b", 20]]);
        assert_delta_correct(&items_join_names(), &catalog(), &d);
    }

    #[test]
    fn join_both_sides_updated_on_the_same_key() {
        // Rename id 2 while re-valuing its item.
        let mut d = SourceDeltas::new();
        d.update_row("names", row![2, "two"], row![2, "deux"]);
        d.update_row("items", row![2, "a", 30], row![2, "a", 31]);
        assert_delta_correct(&items_join_names(), &catalog(), &d);
    }

    #[test]
    fn self_join_needs_the_delta_delta_term() {
        // items ⋈ items on id: both sides carry the same delta, so a new
        // id's pairs exist only in ΔA ⋈ ΔB.
        let renamed = Plan::scan("items").project(vec![
            (Expr::col("id"), "id2".into()),
            (Expr::col("attr"), "attr2".into()),
            (Expr::col("val"), "val2".into()),
        ]);
        let plan = Plan::scan("items").join(renamed, vec![("id", "id2")]);
        let mut d = mixed_deltas();
        d.insert_rows("items", vec![row![4, "b", 8]]);
        assert_delta_correct(&plan, &catalog(), &d);
    }

    /// Un-keyed bags with duplicate rows on both join sides.
    fn bag_catalog() -> Catalog {
        let mut c = Catalog::new();
        let l =
            Arc::new(Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]).unwrap());
        c.register(
            "l",
            Table::bag(l, vec![row![1, 10], row![1, 10], row![2, 20]]),
        )
        .unwrap();
        let r =
            Arc::new(Schema::from_pairs(&[("k2", DataType::Int), ("w", DataType::Int)]).unwrap());
        c.register(
            "r",
            Table::bag(r, vec![row![1, 5], row![1, 5], row![1, 6], row![2, 30]]),
        )
        .unwrap();
        c
    }

    #[test]
    fn join_bag_multiplicities_above_one_on_both_sides() {
        let plan = Plan::scan("l").join(Plan::scan("r"), vec![("k", "k2")]);
        let mut d = SourceDeltas::new();
        // +2 copies of an existing row, −1 of a duplicated one, +2 fresh.
        d.insert_rows("l", vec![row![1, 10], row![1, 10], row![3, 1]]);
        d.delete_rows("r", vec![row![1, 5]]);
        d.insert_rows("r", vec![row![3, 9], row![3, 9]]);
        assert_delta_correct(&plan, &bag_catalog(), &d);
    }

    #[test]
    fn join_residual_rejects_some_delta_delta_pairs() {
        let plan = Plan::Join {
            left: Box::new(Plan::scan("l")),
            right: Box::new(Plan::scan("r")),
            kind: JoinKind::Inner,
            on: vec![("k".into(), "k2".into())],
            residual: Some(Expr::col("v").gt(Expr::col("w"))),
        };
        let mut d = SourceDeltas::new();
        // Of the four new (l, r) pairs on key 3 only (8,7) and (8,2) pass.
        d.insert_rows("l", vec![row![3, 8], row![3, 1]]);
        d.insert_rows("r", vec![row![3, 7], row![3, 2]]);
        d.delete_rows("l", vec![row![2, 20]]);
        assert_delta_correct(&plan, &bag_catalog(), &d);
    }

    #[test]
    fn group_by_propagation() {
        let plan = Plan::scan("items").group_by(
            &["attr"],
            vec![AggSpec::sum("val", "total"), AggSpec::count_star("cnt")],
        );
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn group_by_group_death_and_birth() {
        let plan = Plan::scan("items").group_by(&["attr"], vec![AggSpec::count_star("cnt")]);
        let mut d = SourceDeltas::new();
        // Kill group "b" entirely, create group "z".
        d.delete_rows("items", vec![row![1, "b", 20], row![3, "b", 40]]);
        d.insert_rows("items", vec![row![5, "z", 1]]);
        assert_delta_correct(&plan, &catalog(), &d);
    }

    #[test]
    fn intermediate_pivot_propagation() {
        let plan = Plan::scan("items")
            .gpivot(PivotSpec::simple(
                "attr",
                "val",
                vec![Value::str("a"), Value::str("b")],
            ))
            .join(Plan::scan("names"), vec![("id", "nid")]);
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn pivot_key_disappearance() {
        let plan = Plan::scan("items").gpivot(PivotSpec::simple(
            "attr",
            "val",
            vec![Value::str("a"), Value::str("b")],
        ));
        let mut d = SourceDeltas::new();
        // Remove every row of id=1: the pivot row must disappear.
        d.delete_rows("items", vec![row![1, "a", 10], row![1, "b", 20]]);
        assert_delta_correct(&plan, &catalog(), &d);
    }

    #[test]
    fn unpivot_propagation_is_linear() {
        let pivot = PivotSpec::simple("attr", "val", vec![Value::str("a"), Value::str("b")]);
        let unspec = gpivot_algebra::plan::UnpivotSpec::reversing(&pivot);
        let plan = Plan::scan("items").gpivot(pivot).gunpivot(unspec);
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    /// Deleting a name and one of its items in one batch: the join's
    /// signed rows retract that item's joined row twice and restore it
    /// once, so an operator that builds a post state must add the weights
    /// up first.
    fn deleted_on_both_join_sides() -> SourceDeltas {
        let mut d = SourceDeltas::new();
        d.delete_rows("names", vec![row![1, "one"]]);
        d.delete_rows("items", vec![row![1, "a", 10]]);
        d
    }

    #[test]
    fn group_by_over_a_two_sided_join_consolidates_its_input() {
        let plan = items_join_names().group_by(
            &["name"],
            vec![AggSpec::sum("val", "total"), AggSpec::count_star("cnt")],
        );
        let deltas = deleted_on_both_join_sides();
        let cat = catalog();
        let ctx = PropagationCtx::new(&cat, &deltas);
        let join = propagate_signed(&items_join_names(), &ctx).unwrap();
        assert!(join.len() > consolidate(join.clone()).distinct_len());
        assert_delta_correct(&plan, &cat, &deltas);
    }

    #[test]
    fn pivot_over_a_two_sided_join_consolidates_its_input() {
        let plan = items_join_names().gpivot(PivotSpec::simple(
            "attr",
            "val",
            vec![Value::str("a"), Value::str("b")],
        ));
        assert_delta_correct(&plan, &catalog(), &deleted_on_both_join_sides());
    }

    #[test]
    fn union_propagation() {
        let plan = Plan::scan("items").union(Plan::scan("items"));
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn untouched_tree_yields_empty_delta() {
        let plan = Plan::scan("names");
        let deltas = mixed_deltas(); // only touches `items`
        let cat = catalog();
        let ctx = PropagationCtx::new(&cat, &deltas);
        assert!(propagate(&plan, &ctx).unwrap().is_empty());
    }

    #[test]
    fn post_state_table_applies_signed_delta() {
        let c = catalog();
        let pre = c.table("items").unwrap();
        let mut d = Delta::new();
        d.add(row![1, "a", 10], -1);
        d.add(row![9, "z", 9], 1);
        let post = post_state_table(pre, d.iter().map(|(r, &w)| (r, w)));
        assert_eq!(post.len(), 4);
        assert!(post.rows().contains(&row![9, "z", 9]));
        assert!(!post.rows().contains(&row![1, "a", 10]));
    }
}
