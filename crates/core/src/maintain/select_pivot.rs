//! Combined update propagation rules for **SELECT over GPIVOT** (Fig. 29).
//!
//! For a view `σc(GPivot(core))` with σc null-intolerant over pivoted
//! columns, pulling the pivot above the selection would cost multiple
//! self-joins (Eq. 7). The combined rules instead keep the pair on top:
//!
//! * **Keys present in the view**: apply the Fig. 23 cell changes in place,
//!   then re-test σc — delete the row if it no longer satisfies (or became
//!   all-⊥), else update. Keys absent from the view that only receive
//!   deletes stay absent (null-intolerance: nulling more cells cannot make
//!   a failing row pass).
//! * **Insert candidates**: a key not in the view may newly satisfy σc only
//!   if some *inserted* row touches a σc-referenced cell (the σc′ prefilter
//!   of Fig. 29). Those keys' pivot rows are recomputed from the post-state
//!   core *restricted to exactly those keys* — the keys' pre-state rows are
//!   fetched by index probe ([`PropagationCtx::eval_pre_matching`]) and the
//!   core delta's rows for them added, mirroring the paper's
//!   `GPIVOT(π_K(σc′(ΔV)) ⋈ (V ⊎ ΔV))` plan.

use crate::error::{CoreError, Result};
use crate::maintain::apply::{collect_cell_changes, merge_key, overwrite_cells, ApplyStats, RowOp};
use crate::maintain::delta_prop::{consolidate, post_state_table, PropagationCtx};
use gpivot_algebra::plan::Plan;
use gpivot_algebra::{decode_pivot_col, Expr, PivotSpec};
use gpivot_exec::pivot::PivotLayout;
use gpivot_storage::{Row, Table};
use std::collections::HashSet;

/// The Fig. 29 combined rules as a patch against `mv`, which is left
/// untouched (`apply_row_ops` installs it).
///
/// * `mv` — the materialized `σc(GPivot(core))` (keyed by the pivot's K);
/// * `spec` / `predicate` — the top pair's parameters;
/// * `core` — the pivot input plan;
/// * `ctx` — pre-state catalog + source deltas (for the restricted
///   candidate keys' pre-state fetch);
/// * `delta_core` — the already-propagated delta over `core`, as signed
///   rows that need not be consolidated.
pub fn plan_select_pivot_update(
    mv: &Table,
    spec: &PivotSpec,
    predicate: &Expr,
    core: &Plan,
    ctx: &PropagationCtx<'_>,
    delta_core: &[(Row, i64)],
) -> Result<(Vec<RowOp>, ApplyStats)> {
    if !predicate.is_null_intolerant() {
        return Err(CoreError::StrategyNotApplicable {
            strategy: "select-pivot-update (Fig. 29)".into(),
            reason: format!("predicate `{predicate}` is not null-intolerant"),
        });
    }
    let core_schema = core.schema(ctx.catalog)?;
    let layout = PivotLayout::resolve(spec, &core_schema)?;
    let n_k = layout.k_idx.len();
    let n_on = layout.on_idx.len();
    let bound_pred = predicate.bind(mv.schema())?;

    let changes = collect_cell_changes(delta_core, &layout);
    let mut stats = ApplyStats::default();
    let mut ops = Vec::with_capacity(changes.len());

    // σc′ prefilter: which pivot groups does the predicate reference?
    let referenced_groups = predicate_groups(predicate, spec);

    let mut recompute_keys: Vec<Row> = Vec::new();
    for (key, mut cell_changes) in changes {
        match mv.get_by_key(&key) {
            Some(existing) => {
                // In-view key: in-place MERGE then σc re-test.
                let mut cells = existing.to_vec();
                overwrite_cells(&mut cells, &mut cell_changes, n_k, n_on);
                merge_key(&mut ops, &mut stats, key, cells, n_k, true, |row| {
                    bound_pred.holds(row)
                });
            }
            None => {
                // Absent key: only inserts into σc-referenced cells can make
                // it newly satisfy the predicate.
                let relevant = cell_changes
                    .iter()
                    .any(|(gi, w, _)| *w > 0 && referenced_groups.contains(gi));
                if relevant {
                    recompute_keys.push(key);
                }
            }
        }
    }

    if !recompute_keys.is_empty() {
        let _s = tracing::span("maintain.candidates").enter();
        // Recompute the candidate keys' full pivot rows from the post-state
        // core, restricted to those keys. Restricting by the *full* pivot K
        // (which, after pullup, spans every joined column) could not be
        // pushed below any join — a recomputation in disguise. Instead
        // restrict by the core's minimal key columns within K (they
        // functionally determine the rest, mirroring the paper's
        // `π_orderkey(σc′(ΔL)) ⋈ (L ⊎ ΔL)` plan) and post-filter the pivoted
        // rows back to the exact candidate set.
        let k_names: Vec<String> = layout
            .k_idx
            .iter()
            .map(|&i| core_schema.fields()[i].name.clone())
            .collect();
        // The core-key columns that survive into K: restricting by them is
        // a (possibly proper) superset restriction — always sound with the
        // post-filter below, and it pushes to the delta'd fact table.
        let (restrict_names, restrict_pos): (Vec<String>, Vec<usize>) = {
            let key_in_k: Vec<(String, usize)> = core_schema
                .key()
                .map(|key| {
                    key.iter()
                        .filter_map(|&i| {
                            let name = core_schema.fields()[i].name.as_str();
                            k_names
                                .iter()
                                .position(|k| k == name)
                                .map(|pos| (name.to_string(), pos))
                        })
                        .collect()
                })
                .unwrap_or_default();
            if key_in_k.is_empty() {
                (k_names.clone(), (0..k_names.len()).collect())
            } else {
                key_in_k.into_iter().unzip()
            }
        };
        let candidate_set: HashSet<Row> = recompute_keys.iter().cloned().collect();
        let restrict_keys: HashSet<Row> = recompute_keys
            .iter()
            .map(|k| k.project(&restrict_pos))
            .collect();

        // Post state of the restricted core = its pre state ⊕ the part of
        // the core delta under the same restriction, consolidated.
        let restrict_idx: Vec<usize> = restrict_pos.iter().map(|&p| layout.k_idx[p]).collect();
        let delta_restricted = consolidate(
            delta_core
                .iter()
                .filter(|(r, _)| restrict_keys.contains(&r.project(&restrict_idx)))
                .cloned(),
        );
        let restricted = post_state_table(
            &ctx.eval_pre_matching(core, &restrict_names, &restrict_keys)?,
            delta_restricted.iter().map(|(r, &w)| (r, w)),
        );
        // σc passes its input's schema through: the view's is the pivot's.
        let pivoted = gpivot_exec::pivot::gpivot(&restricted, spec, mv.schema().clone())?;
        let k_out: Vec<usize> = (0..k_names.len()).collect();
        for row in pivoted.iter() {
            // Post-filter: only the exact candidate keys may be inserted
            // (the minimal-key restriction can bring along other rows).
            if !candidate_set.contains(&row.project(&k_out)) {
                continue;
            }
            if bound_pred.holds(row) {
                ops.push(RowOp::Insert(row.clone()));
                stats.inserted += 1;
            }
        }
    }
    Ok((ops, stats))
}

/// The set of pivot group indices whose cells the predicate references.
fn predicate_groups(predicate: &Expr, spec: &PivotSpec) -> HashSet<usize> {
    let mut out = HashSet::new();
    for col in predicate.columns() {
        if let Some((tags, measure)) = decode_pivot_col(&col, spec.dims()) {
            // Re-encode each group to compare against the column name.
            for (gi, g) in spec.groups.iter().enumerate() {
                let tag_strings: Vec<String> = g.iter().map(|v| v.to_string()).collect();
                if tag_strings == tags && spec.on.contains(&measure) {
                    out.insert(gi);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::apply::apply_row_ops;
    use crate::maintain::delta_prop::propagate_signed;
    use crate::maintain::SourceDeltas;
    use gpivot_exec::Executor;
    use gpivot_storage::{row, Catalog, DataType, Schema, Value};
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
                    row![1, "a", 100],
                    row![1, "b", 20],
                    row![2, "a", 5],
                    row![3, "b", 40],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    fn spec() -> PivotSpec {
        PivotSpec::simple("attr", "val", vec![Value::str("a"), Value::str("b")])
    }

    /// σc: a**val > 50.
    fn pred() -> Expr {
        Expr::col("a**val").gt(Expr::lit(50))
    }

    /// Materialize σc(GPivot(items)) from scratch.
    fn materialize(c: &Catalog) -> Table {
        let plan = Plan::scan("items").gpivot(spec()).select(pred());
        let bag = Executor::new().run(&plan, c).unwrap();
        let mut t = Table::new(bag.schema().clone());
        for r in bag.iter() {
            t.insert(r.clone()).unwrap();
        }
        t
    }

    fn run(deltas: SourceDeltas) {
        // Oracle: incremental result == recompute on post state.
        let c = catalog();
        let mut mv = materialize(&c);
        let ctx = PropagationCtx::new(&c, &deltas);
        let core = Plan::scan("items");
        let delta_core = propagate_signed(&core, &ctx).unwrap();
        let (ops, _) =
            plan_select_pivot_update(&mv, &spec(), &pred(), &core, &ctx, &delta_core).unwrap();
        apply_row_ops(&mut mv, ops, None);

        let mut post_catalog = c.clone();
        for t in deltas.tables() {
            let d = deltas.delta(t).unwrap().clone();
            post_catalog.apply_delta(t, &d).unwrap();
        }
        let expected = materialize(&post_catalog);
        assert!(
            mv.bag_eq(&expected),
            "incremental:\n{mv}\nexpected:\n{expected}"
        );
    }

    #[test]
    fn delete_makes_row_fail_condition() {
        let mut d = SourceDeltas::new();
        d.delete_rows("items", vec![row![1, "a", 100]]);
        run(d);
    }

    #[test]
    fn insert_makes_row_newly_satisfy() {
        let mut d = SourceDeltas::new();
        // id=3 had no 'a' cell; this insert makes a**val = 99 > 50.
        d.insert_rows("items", vec![row![3, "a", 99]]);
        run(d);
    }

    #[test]
    fn irrelevant_insert_does_not_create_row() {
        let mut d = SourceDeltas::new();
        // id=2 fails σc (a**val = 5); inserting a 'b' cell cannot fix that.
        d.insert_rows("items", vec![row![2, "b", 1]]);
        run(d);
    }

    #[test]
    fn update_in_place_keeps_satisfying_row() {
        let mut d = SourceDeltas::new();
        d.delete_rows("items", vec![row![1, "b", 20]]);
        d.insert_rows("items", vec![row![1, "b", 21]]);
        run(d);
    }

    #[test]
    fn brand_new_key_satisfying_condition() {
        let mut d = SourceDeltas::new();
        d.insert_rows("items", vec![row![9, "a", 500]]);
        run(d);
    }

    #[test]
    fn brand_new_key_failing_condition() {
        let mut d = SourceDeltas::new();
        d.insert_rows("items", vec![row![9, "a", 1]]);
        run(d);
    }

    #[test]
    fn mixed_batch() {
        let mut d = SourceDeltas::new();
        // Replace id=2's failing 'a' cell (5 → 400: newly satisfies σc),
        // drop id=1's satisfying cell, give id=3 a satisfying cell, and add
        // an irrelevant new key.
        d.delete_rows(
            "items",
            vec![row![1, "a", 100], row![3, "b", 40], row![2, "a", 5]],
        );
        d.insert_rows(
            "items",
            vec![row![2, "a", 400], row![3, "a", 60], row![5, "b", 2]],
        );
        run(d);
    }

    #[test]
    fn unconsolidated_rows_plan_the_patch_of_their_consolidation() {
        let c = catalog();
        let mv = materialize(&c);
        let no_deltas = SourceDeltas::new();
        let ctx = PropagationCtx::new(&c, &no_deltas);
        let core = Plan::scan("items");
        let plan = |d: &[(Row, i64)]| {
            plan_select_pivot_update(&mv, &spec(), &pred(), &core, &ctx, d).unwrap()
        };
        // Keys 9 and 3 are outside the view: a satisfying `a` cell makes
        // each an insert candidate (3 from its pre-state row too). Key 1
        // is in the view.
        let cases = [row![9, "a", 500], row![3, "a", 99], row![1, "b", 20]]
            .into_iter()
            .flat_map(|r| {
                [
                    vec![(r.clone(), 1), (r.clone(), -1)],
                    vec![(r.clone(), 1), (r.clone(), 1), (r.clone(), -1)],
                ]
            });
        for rows in cases {
            let consolidated: Vec<(Row, i64)> =
                consolidate(rows.iter().cloned()).into_counts().collect();
            assert_eq!(plan(&rows), plan(&consolidated), "{rows:?}");
        }
    }
}
