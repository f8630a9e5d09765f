//! Transposition (enabler) rules used by the normalization driver.
//!
//! These are not paper equations by themselves; they are the standard
//! algebraic commutations that let the Fig. 4 normalization reach the
//! paper's rules: hoisting a pivot-carrying SELECT or PROJECT through a
//! JOIN, commuting SELECT with a rename PROJECT, and sliding a pure rename
//! PROJECT below a GPIVOT so two pivots become adjacent for the combination
//! rules.

use super::{check, na};
use crate::error::Result;
use gpivot_algebra::plan::{JoinKind, PivotSpec, Plan};
use gpivot_algebra::{Expr, SchemaProvider};
use gpivot_analyze::DiagCode;
use std::collections::HashMap;

/// Does this subtree end (ignoring pure projections and selections) in a
/// GPivot? Used to hoist only pivot-carrying wrappers.
fn carries_pivot(plan: &Plan) -> bool {
    match plan {
        Plan::GPivot { .. } => true,
        Plan::Select { input, .. } | Plan::Project { input, .. } => carries_pivot(input),
        _ => false,
    }
}

/// Pure column projection? Returns the `output name → source column` map.
fn pure_items(items: &[(Expr, String)]) -> Option<HashMap<String, String>> {
    let mut map = HashMap::with_capacity(items.len());
    for (e, n) in items {
        match e {
            Expr::Col(c) => {
                map.insert(n.clone(), c.clone());
            }
            _ => return None,
        }
    }
    Some(map)
}

/// `Join(Select(p, A), B)` ⇒ `Select(p, Join(A, B))` (inner joins only),
/// applied when `A` carries a pivot — this is how a SELECT-over-GPIVOT pair
/// travels to the top together (§6.3.2's prerequisite: "we pull both SELECT
/// and GPIVOT up to the top of the query tree").
pub fn hoist_select_through_join<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "hoist-select-join";
    let Plan::Join {
        left,
        right,
        kind: JoinKind::Inner,
        on,
        residual,
    } = plan
    else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "not an inner join",
        ));
    };
    if let Plan::Select { input, predicate } = left.as_ref() {
        if carries_pivot(input) {
            let rewritten = Plan::Join {
                left: Box::new(input.as_ref().clone()),
                right: right.clone(),
                kind: JoinKind::Inner,
                on: on.clone(),
                residual: residual.clone(),
            }
            .select(predicate.clone());
            return check(rewritten, provider, RULE);
        }
    }
    if let Plan::Select { input, predicate } = right.as_ref() {
        if carries_pivot(input) {
            let rewritten = Plan::Join {
                left: left.clone(),
                right: Box::new(input.as_ref().clone()),
                kind: JoinKind::Inner,
                on: on.clone(),
                residual: residual.clone(),
            }
            .select(predicate.clone());
            return check(rewritten, provider, RULE);
        }
    }
    Err(na(
        RULE,
        DiagCode::Gp020RuleShapeMismatch,
        "no pivot-carrying Select directly under the join",
    ))
}

/// `Join(Project(items, A), B)` ⇒ `Project(items ++ B columns, Join(A, B))`
/// for pure column projections over a pivot-carrying side. Join columns are
/// remapped through the rename.
pub fn hoist_project_through_join<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "hoist-project-join";
    let Plan::Join {
        left,
        right,
        kind: JoinKind::Inner,
        on,
        residual,
    } = plan
    else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "not an inner join",
        ));
    };
    // Left side only (the symmetric case is reached after join reordering,
    // which we do not do — keep the rule minimal).
    let Plan::Project { input, items } = left.as_ref() else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "left join side is not a Project",
        ));
    };
    if !carries_pivot(input) {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "projected side carries no pivot",
        ));
    }
    let Some(map) = pure_items(items) else {
        return Err(na(
            RULE,
            DiagCode::Gp012ProjectDropsCells,
            "projection is not pure columns",
        ));
    };
    if residual.is_some() {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "join has a residual predicate",
        ));
    }
    // Remap join columns through the rename.
    let new_on: Vec<(String, String)> = on
        .iter()
        .map(|(l, r)| {
            map.get(l)
                .map(|src| (src.clone(), r.clone()))
                .ok_or_else(|| {
                    na(
                        RULE,
                        DiagCode::Gp012ProjectDropsCells,
                        format!("join column `{l}` not in projection"),
                    )
                })
        })
        .collect::<Result<_>>()?;
    let right_cols: Vec<String> = right
        .schema(provider)?
        .column_names()
        .into_iter()
        .map(str::to_string)
        .collect();
    let mut new_items: Vec<(Expr, String)> = items.clone();
    for c in right_cols {
        new_items.push((Expr::col(&c), c));
    }
    let rewritten = Plan::Join {
        left: Box::new(input.as_ref().clone()),
        right: right.clone(),
        kind: JoinKind::Inner,
        on: new_on,
        residual: None,
    }
    .project(new_items);
    check(rewritten, provider, RULE)
}

/// `Select(p, Project(pure items, Z))` ⇒ `Project(items, Select(p', Z))`
/// with `p'` renamed through the projection — bubbles rename projections
/// above selections so the driver can absorb them at the top.
pub fn select_through_project<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "select-through-project";
    let Plan::Select { input, predicate } = plan else {
        return Err(na(RULE, DiagCode::Gp020RuleShapeMismatch, "not a Select"));
    };
    let Plan::Project { input: z, items } = input.as_ref() else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no Project under the Select",
        ));
    };
    if !carries_pivot(z) {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "projected input carries no pivot",
        ));
    }
    let Some(map) = pure_items(items) else {
        return Err(na(
            RULE,
            DiagCode::Gp012ProjectDropsCells,
            "projection is not pure columns",
        ));
    };
    let renamed =
        predicate.rename_columns(&|c| map.get(c).cloned().unwrap_or_else(|| c.to_string()));
    // Every predicate column must be resolvable through the projection.
    if !predicate.columns().iter().all(|c| map.contains_key(c)) {
        return Err(na(
            RULE,
            DiagCode::Gp012ProjectDropsCells,
            "predicate references a column the projection drops",
        ));
    }
    let rewritten = z.as_ref().clone().select(renamed).project(items.clone());
    check(rewritten, provider, RULE)
}

/// `GroupBy(K'; aggs)(Project(pure items, Z))` ⇒ `GroupBy(K″; aggs′)(Z)`
/// with grouping columns and aggregate inputs renamed through the
/// projection. A GROUPBY only reads the columns it names, so a pure-column
/// projection below it (even a dropping one) can always be absorbed —
/// this un-blocks the Eq. 8 pullup when an order-restoring `Project` sits
/// between the GROUPBY and a pivot.
pub fn groupby_through_project<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "groupby-through-project";
    let Plan::GroupBy {
        input,
        group_by,
        aggs,
    } = plan
    else {
        return Err(na(RULE, DiagCode::Gp020RuleShapeMismatch, "not a GroupBy"));
    };
    let Plan::Project { input: z, items } = input.as_ref() else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no Project under the GroupBy",
        ));
    };
    if !carries_pivot(z) {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "projected input carries no pivot",
        ));
    }
    let Some(map) = pure_items(items) else {
        return Err(na(
            RULE,
            DiagCode::Gp012ProjectDropsCells,
            "projection is not pure columns",
        ));
    };
    let rename = |c: &String| -> Result<String> {
        map.get(c).cloned().ok_or_else(|| {
            na(
                RULE,
                DiagCode::Gp012ProjectDropsCells,
                format!("column `{c}` not in projection"),
            )
        })
    };
    // Grouping columns keep their *output* names only if the rename is
    // trivial for them; otherwise the output schema would change. Require
    // group columns and aggregate inputs to map to identically-named source
    // columns OR wrap nothing — simplest sound version: allow arbitrary
    // renames for aggregate inputs (their output names are ours) but
    // require identity for group columns.
    for g in group_by {
        let src = rename(g)?;
        if &src != g {
            return Err(na(
                RULE,
                DiagCode::Gp012ProjectDropsCells,
                format!(
                    "grouping column `{g}` is renamed from `{src}`; absorbing would \
                         change the output schema"
                ),
            ));
        }
    }
    let new_aggs = aggs
        .iter()
        .map(|a| {
            Ok(gpivot_algebra::AggSpec {
                func: a.func,
                input: if a.func == gpivot_algebra::AggFunc::CountStar {
                    a.input.clone()
                } else {
                    rename(&a.input)?
                },
                output: a.output.clone(),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let rewritten = Plan::GroupBy {
        input: z.clone(),
        group_by: group_by.clone(),
        aggs: new_aggs,
    };
    check(rewritten, provider, RULE)
}

/// `GPivot(Project(pure rename, Z), spec)` ⇒
/// `Project(cell renames, GPivot(Z, spec'))` where `spec'` uses the
/// pre-rename column names. Requires the projection to be a *bijective
/// rename keeping every column* (dropping columns before a pivot changes
/// its `K`, §5.2.2). This makes stacked pivots adjacent so Eq. 6 applies.
pub fn pivot_through_rename<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "pivot-through-rename";
    let Plan::GPivot { input, spec } = plan else {
        return Err(na(RULE, DiagCode::Gp020RuleShapeMismatch, "not a GPivot"));
    };
    let Plan::Project { input: z, items } = input.as_ref() else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no Project under the GPivot",
        ));
    };
    let Some(map) = pure_items(items) else {
        return Err(na(
            RULE,
            DiagCode::Gp012ProjectDropsCells,
            "projection is not pure columns",
        ));
    };
    let z_schema = z.schema(provider)?;
    // Must keep every column exactly once (pure rename / permutation).
    if items.len() != z_schema.arity() {
        return Err(na(
            RULE,
            DiagCode::Gp012ProjectDropsCells,
            "projection drops or duplicates columns; sliding the pivot below \
             it would change the pivot's K",
        ));
    }
    let mut seen_sources = std::collections::HashSet::new();
    for src in map.values() {
        if !seen_sources.insert(src.as_str()) {
            return Err(na(
                RULE,
                DiagCode::Gp012ProjectDropsCells,
                format!("source column `{src}` projected twice"),
            ));
        }
    }

    // Rewrite the spec through the rename (output name → source name).
    let rename = |c: &String| -> Result<String> {
        map.get(c).cloned().ok_or_else(|| {
            na(
                RULE,
                DiagCode::Gp012ProjectDropsCells,
                format!("pivot column `{c}` not in projection"),
            )
        })
    };
    let new_spec = PivotSpec {
        by: spec.by.iter().map(rename).collect::<Result<_>>()?,
        on: spec.on.iter().map(rename).collect::<Result<_>>()?,
        groups: spec.groups.clone(),
    };

    // Outer projection: restore the original output names. K columns of the
    // original pivot output are projection output names; cells re-encode.
    let orig_schema = plan.schema(provider)?;
    let new_cells: Vec<String> = new_spec.output_col_names();
    let old_cells: Vec<String> = spec.output_col_names();
    let mut out_items: Vec<(Expr, String)> = Vec::with_capacity(orig_schema.arity());
    for name in orig_schema.column_names() {
        if let Some(pos) = old_cells.iter().position(|c| c == name) {
            out_items.push((Expr::col(&new_cells[pos]), name.to_string()));
        } else {
            // K column: its pre-rename source name.
            let src = map.get(name).ok_or_else(|| {
                na(
                    RULE,
                    DiagCode::Gp012ProjectDropsCells,
                    format!("K column `{name}` not in projection"),
                )
            })?;
            out_items.push((Expr::col(src), name.to_string()));
        }
    }
    let rewritten = z.as_ref().clone().gpivot(new_spec).project(out_items);
    check(rewritten, provider, RULE)
}
