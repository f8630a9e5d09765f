//! The Fig. 29 candidates: **σ over GPIVOT** keeps the pair on top and
//! MERGEs like Fig. 23 (pulling the pivot above σ would cost the Eq. 7
//! self-joins), re-testing σc on every touched row it holds.
//!
//! A key absent from the view may hold cells σc rejected, so its cells
//! are not known and it is not folded. It may newly satisfy σc only if an
//! *inserted* row touches a σc-read cell (the σc′ prefilter of Fig. 29);
//! such a candidate's pivot row is recomputed from the post-state core
//! *restricted to exactly the candidates* — their pre-state rows fetched by
//! the restriction the view's delta program compiled at registration
//! ([`DeltaProgram::with_candidates`](crate::maintain::DeltaProgram::with_candidates))
//! and the core delta's rows for them added, mirroring the paper's
//! `GPIVOT(π_K(σc′(ΔV)) ⋈ (V ⊎ ΔV))` plan. A key that only receives
//! deletes stays absent: σc is null-intolerant, so nulling more cells
//! cannot make a failing row pass.

use crate::error::Result;
use crate::maintain::apply::{not_applicable, MergeLayout};
use crate::maintain::delta_prop::{consolidate, post_state_table};
use gpivot_algebra::{encode_pivot_col, BoundExpr, Expr, PivotSpec};
use gpivot_storage::{Row, RowSet, Schema, Table, Value};

/// What Fig. 29's candidate recompute needs, resolved at registration.
#[derive(Debug, Clone)]
pub(crate) struct Candidates {
    spec: PivotSpec,
    /// Per group: does σ read one of its cells?
    pub(super) read: Vec<bool>,
    /// The core columns a recompute is restricted by: the core's key
    /// columns inside `K` (they determine the rest, so the restriction
    /// pushes to the delta'd fact table), else all of `K`. The view's
    /// delta program compiles this restriction at registration.
    pub(super) restrict: Vec<String>,
    /// Those columns' positions within the view key.
    restrict_pos: Vec<usize>,
}

impl Candidates {
    /// Resolve `sigma` over `GPivot(core)`, where `k_idx` are the view-key
    /// positions in a row of `core`'s `schema`.
    pub(super) fn new(sigma: &Expr, spec: &PivotSpec, schema: &Schema, k_idx: &[usize]) -> Self {
        let k_pos = |i: &usize| k_idx.iter().position(|k| k == i);
        let mut restrict_pos: Vec<usize> = (schema.key().unwrap_or(&[]).iter())
            .filter_map(k_pos)
            .collect();
        if restrict_pos.is_empty() {
            restrict_pos = (0..k_idx.len()).collect();
        }
        let name = |&p: &usize| schema.field_at(k_idx[p]).name.clone();
        let cols = sigma.columns();
        let reads = |g: &Vec<Value>| {
            spec.on
                .iter()
                .any(|on| cols.contains(&encode_pivot_col(g, on)))
        };
        Candidates {
            spec: spec.clone(),
            read: spec.groups.iter().map(reads).collect(),
            restrict: restrict_pos.iter().map(name).collect(),
            restrict_pos,
        }
    }
}

impl MergeLayout {
    /// Fig. 29's candidate recompute: the post-state pivot rows of `keys`
    /// (absent from `mv`) that `sigma` accepts. Restricted to the keys'
    /// core rows — their pre-state read by `fetch` from the keys on the
    /// restricted columns (the view's compiled candidate restriction,
    /// [`DeltaProgram::candidates`](crate::maintain::DeltaProgram::candidates))
    /// plus `delta`'s rows for them — mirroring the paper's
    /// `GPIVOT(π_K(σc′(ΔV)) ⋈ (V ⊎ ΔV))`.
    pub fn candidate_rows(
        &self,
        mv: &Table,
        keys: Vec<Row>,
        fetch: impl FnOnce(&RowSet<Row>) -> Result<Table>,
        delta: &[(Row, i64)],
        sigma: &BoundExpr,
    ) -> Result<Vec<Row>> {
        let c = self.sigma.as_ref();
        let c = c.ok_or_else(|| not_applicable("select-pivot-update", "a view without σ"))?;
        let restrict_keys: RowSet<Row> = keys.iter().map(|k| k.project(&c.restrict_pos)).collect();
        let restrict_idx: Vec<usize> = c.restrict_pos.iter().map(|&p| self.key[p]).collect();
        let delta_restricted = consolidate(
            (delta.iter())
                .filter(|(r, _)| restrict_keys.contains(&r.project(&restrict_idx)))
                .cloned(),
        );
        let restricted = post_state_table(
            &fetch(&restrict_keys)?,
            delta_restricted.iter().map(|(r, &w)| (r, w)),
        );
        // σ passes its input's schema through: the view's is the pivot's.
        let pivoted = gpivot_exec::pivot::gpivot(&restricted, &c.spec, mv.schema().clone())?;
        // The restriction can bring along keys that are not candidates.
        let candidates: RowSet<Row> = keys.into_iter().collect();
        let k_out: Vec<usize> = (0..self.key.len()).collect();
        Ok(pivoted
            .iter()
            .filter(|row| candidates.contains(&row.project(&k_out)) && sigma.holds(row))
            .cloned()
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::apply::tests::{items, signed};
    use crate::maintain::apply::{apply_row_ops, plan_merge, RowOp};
    use crate::maintain::delta_prop::{DeltaProgram, PropagationCtx};
    use crate::maintain::{ApplyStats, SourceDeltas};
    use gpivot_algebra::plan::Plan;
    use gpivot_exec::Executor;
    use gpivot_storage::{row, Catalog};

    fn catalog() -> Catalog {
        let rows = vec![
            row![1, "a", 100],
            row![1, "b", 20],
            row![2, "a", 5],
            row![3, "b", 40],
        ];
        items(rows)
    }

    fn plan() -> Plan {
        let spec = PivotSpec::simple("attr", "val", vec![Value::str("a"), Value::str("b")]);
        Plan::scan("items")
            .gpivot(spec)
            .select(Expr::col("a**val").gt(Expr::lit(50)))
    }

    /// Materialize the view from scratch.
    fn materialize(c: &Catalog) -> Table {
        let bag = Executor::new().run(&plan(), c).unwrap();
        let schema = bag.schema().clone();
        bag.into_keyed(schema).unwrap()
    }

    /// The core's delta program, with the candidate restriction.
    fn program(layout: &MergeLayout, catalog: &Catalog) -> DeltaProgram {
        let restrict = &layout.sigma.as_ref().unwrap().restrict;
        DeltaProgram::with_candidates(&layout.core, catalog, restrict).unwrap()
    }

    /// The whole Fig. 29 patch: the MERGE, then the candidates' rows.
    fn plan_patch(
        mv: &Table,
        ctx: &PropagationCtx<'_>,
        delta: &[(Row, i64)],
    ) -> (Vec<RowOp>, ApplyStats) {
        let layout = MergeLayout::pivot(&plan(), ctx.catalog).unwrap();
        let program = program(&layout, ctx.catalog);
        let Plan::Select { predicate, .. } = plan() else {
            unreachable!()
        };
        let sigma = predicate.bind(mv.schema()).unwrap();
        let (mut ops, mut stats, candidates) = plan_merge(mv, &layout, delta, Some(&sigma));
        let restriction = program.candidates().unwrap();
        let fetch = |keys: &RowSet<Row>| program.fetch(restriction, ctx, keys);
        let rows = layout
            .candidate_rows(mv, candidates, fetch, delta, &sigma)
            .unwrap();
        stats.inserted += rows.len();
        ops.extend(rows.into_iter().map(RowOp::Insert));
        (ops, stats)
    }

    fn run(deltas: SourceDeltas) {
        // Oracle: incremental result == recompute on post state.
        let c = catalog();
        let mut mv = materialize(&c);
        let ctx = PropagationCtx::new(&c, &deltas);
        let layout = MergeLayout::pivot(&plan(), &c).unwrap();
        let delta_core = program(&layout, &c).propagate(&ctx).unwrap();
        let (ops, _) = plan_patch(&mv, &ctx, &delta_core);
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
    fn sigma_reads_only_the_a_cell() {
        let layout = MergeLayout::pivot(&plan(), &catalog()).unwrap();
        assert_eq!(layout.sigma.unwrap().read, [true, false]);
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
        // drop id=1's satisfying cell, give id=3 a satisfying cell, and
        // add an irrelevant new key.
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
            let consolidated = signed(&consolidate(rows.iter().cloned()));
            assert_eq!(
                plan_patch(&mv, &ctx, &rows),
                plan_patch(&mv, &ctx, &consolidated),
                "{rows:?}"
            );
        }
    }
}
