//! Rewriting rules for GUNPIVOT (§5.3 pullups, §5.4 pushdowns; Eq. 13–18).
//!
//! Terminology from the paper: in a GUNPIVOT output, the *name columns* are
//! the new dimension columns decoded from column names (`A1..Am`) and the
//! *value columns* are the measures (`B1..Bn`); everything else is carried
//! through (`K`).

use super::{check, na};
use crate::error::Result;
use gpivot_algebra::plan::{JoinKind, Plan, UnpivotSpec};
use gpivot_algebra::{AggFunc, AggSpec, CmpOp, Expr, SchemaProvider};
use gpivot_analyze::DiagCode;
use gpivot_storage::Value;

/// Eq. 13 / §5.3.1: push a SELECT below a GUNPIVOT (equivalently: pull the
/// GUNPIVOT above the SELECT). `Select(pred, GUnpivot(H))` with `pred` a
/// conjunction of:
///
/// * atoms over carried (K) columns — pushed through unchanged;
/// * `name_col = x` atoms — resolved *statically* by filtering the unpivot
///   groups;
/// * `value_col op y` atoms — turned into per-group CASE projections that
///   `⊥`-out a group's cells when the condition fails.
pub fn push_select_below_unpivot<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "select-below-gunpivot (Eq. 13)";
    let Plan::Select { input, predicate } = plan else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            format!("top is {}, not Select", plan.op_name()),
        ));
    };
    let Plan::GUnpivot { input: h, spec } = input.as_ref() else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no GUnpivot directly under the Select",
        ));
    };
    let h_schema = h.schema(provider)?;
    let k_cols = spec.validate(&h_schema)?;

    enum Atom {
        OnK(Expr),
        NameEq {
            name_idx: usize,
            value: Value,
        },
        ValueCmp {
            value_idx: usize,
            op: CmpOp,
            lit: Value,
        },
    }

    let mut atoms = Vec::new();
    for c in predicate.conjuncts() {
        let cols = c.columns();
        if cols.iter().all(|x| k_cols.contains(x)) {
            atoms.push(Atom::OnK(c));
            continue;
        }
        match &c {
            Expr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Col(col), Expr::Lit(val)) | (Expr::Lit(val), Expr::Col(col)) => {
                    let op = if matches!(a.as_ref(), Expr::Col(_)) {
                        *op
                    } else {
                        op.flipped()
                    };
                    if let Some(i) = spec.name_cols.iter().position(|x| x == col) {
                        if op != CmpOp::Eq {
                            return Err(na(
                                RULE,
                                DiagCode::Gp011SelectOverCells,
                                format!("name-column atom `{c}` must be an equality"),
                            ));
                        }
                        atoms.push(Atom::NameEq {
                            name_idx: i,
                            value: val.clone(),
                        });
                    } else if let Some(i) = spec.value_cols.iter().position(|x| x == col) {
                        atoms.push(Atom::ValueCmp {
                            value_idx: i,
                            op,
                            lit: val.clone(),
                        });
                    } else {
                        return Err(na(
                            RULE,
                            DiagCode::Gp011SelectOverCells,
                            format!("unknown column `{col}` in atom `{c}`"),
                        ));
                    }
                }
                _ => {
                    return Err(na(
                        RULE,
                        DiagCode::Gp011SelectOverCells,
                        format!("unsupported atom shape `{c}`"),
                    ))
                }
            },
            _ => {
                return Err(na(
                    RULE,
                    DiagCode::Gp011SelectOverCells,
                    format!("unsupported atom `{c}`"),
                ))
            }
        }
    }

    // Static group filtering by name atoms (§5.3.1 third case).
    let kept_groups: Vec<_> = spec
        .groups
        .iter()
        .filter(|g| {
            atoms.iter().all(|a| match a {
                Atom::NameEq { name_idx, value } => &g.tags[*name_idx] == value,
                _ => true,
            })
        })
        .cloned()
        .collect();
    if kept_groups.is_empty() {
        return Err(na(
            RULE,
            DiagCode::Gp011SelectOverCells,
            "no unpivot group satisfies the name-column atoms",
        ));
    }

    // Dynamic value atoms become a CASE projection over H (§5.3.1 second
    // case): a group's cells are ⊥-ed out when its value condition fails.
    let value_atoms: Vec<(usize, CmpOp, Value)> = atoms
        .iter()
        .filter_map(|a| match a {
            Atom::ValueCmp { value_idx, op, lit } => Some((*value_idx, *op, lit.clone())),
            _ => None,
        })
        .collect();

    let mut base = h.as_ref().clone();
    if !value_atoms.is_empty() {
        let mut items: Vec<(Expr, String)> =
            k_cols.iter().map(|k| (Expr::col(k), k.clone())).collect();
        for g in &kept_groups {
            let cond = Expr::conjunction(
                value_atoms
                    .iter()
                    .map(|(vi, op, lit)| {
                        Expr::Cmp(
                            *op,
                            Box::new(Expr::col(&g.cols[*vi])),
                            Box::new(Expr::Lit(lit.clone())),
                        )
                    })
                    .collect(),
            );
            for c in &g.cols {
                items.push((
                    Expr::Case {
                        branches: vec![(cond.clone(), Expr::col(c))],
                        otherwise: Box::new(Expr::Lit(Value::Null)),
                    },
                    c.clone(),
                ));
            }
        }
        base = base.project(items);
    } else if kept_groups.len() < spec.groups.len() {
        // Only name filtering: drop the unused groups' columns (negative
        // projection, §5.3.2-style).
        let mut keep: Vec<String> = k_cols.clone();
        for g in &kept_groups {
            keep.extend(g.cols.iter().cloned());
        }
        base = base.project(keep.iter().map(|c| (Expr::col(c), c.clone())).collect());
    }

    let new_spec = UnpivotSpec {
        groups: kept_groups,
        name_cols: spec.name_cols.clone(),
        value_cols: spec.value_cols.clone(),
    };
    let mut rewritten = base.gunpivot(new_spec);
    let k_atoms: Vec<Expr> = atoms
        .into_iter()
        .filter_map(|a| match a {
            Atom::OnK(e) => Some(e),
            _ => None,
        })
        .collect();
    if !k_atoms.is_empty() {
        rewritten = rewritten.select(Expr::conjunction(k_atoms));
    }
    // Residual dynamic value atoms: the CASE projection nulls out failing
    // cells, and GUNPIVOT drops all-⊥ groups — but a group with *several*
    // value columns may keep non-⊥ cells for other measures; the CASE nulls
    // the whole group, matching the Select semantics only when the atoms
    // constrain the row as a whole, which they do (the Select removes the
    // whole output row). No residual needed.
    check(rewritten, provider, RULE)
}

/// §5.3.3, K-join case + Eq. 14's value-join case: pull a GUNPIVOT above a
/// JOIN. `Join(GUnpivot(H), T, on)`:
///
/// * join on carried (K) columns ⇒ `GUnpivot(Join(H, T, on))`;
/// * join on a value column `B_l = K1` ⇒ `GUnpivot(π_case(H ⋈ T))` where
///   the case nulls a group's cells unless its `B_l` column matches.
pub fn pull_unpivot_above_join<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "pull-gunpivot-join (§5.3.3 / Eq. 14)";
    let Plan::Join {
        left,
        right,
        kind: JoinKind::Inner,
        on,
        residual: None,
    } = plan
    else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "not a plain inner join",
        ));
    };
    let Plan::GUnpivot { input: h, spec } = left.as_ref() else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "left join side is not a GUnpivot",
        ));
    };
    let h_schema = h.schema(provider)?;
    let k_cols = spec.validate(&h_schema)?;

    // Case 1: all join columns are carried K columns.
    if on.iter().all(|(l, _)| k_cols.contains(l)) {
        let rewritten = Plan::Join {
            left: Box::new(h.as_ref().clone()),
            right: right.clone(),
            kind: JoinKind::Inner,
            on: on.clone(),
            residual: None,
        }
        .gunpivot(spec.clone());
        // GUnpivot K columns now include T's columns; column order is
        // K(H), K(T), names, values vs original K(H), names, values, K(T).
        let orig_schema = plan.schema(provider)?;
        let items: Vec<(Expr, String)> = orig_schema
            .column_names()
            .iter()
            .map(|c| (Expr::col(*c), c.to_string()))
            .collect();
        return check(rewritten.project(items), provider, RULE);
    }

    // Case 2 (Eq. 14): a single join column is a value column.
    if on.len() == 1 && spec.value_cols.contains(&on[0].0) {
        let vi = spec
            .value_cols
            .iter()
            .position(|c| c == &on[0].0)
            .expect("checked");
        let t_key = &on[0].1;
        // Cross-join H with T, then null out each group's cells unless its
        // B_l column equals T's join column.
        let joined = Plan::Join {
            left: Box::new(h.as_ref().clone()),
            right: right.clone(),
            kind: JoinKind::Inner,
            on: vec![],
            residual: Some(Expr::disjunction(
                spec.groups
                    .iter()
                    .map(|g| Expr::col(&g.cols[vi]).eq(Expr::col(t_key)))
                    .collect(),
            )),
        };
        let right_cols: Vec<String> = right
            .schema(provider)?
            .column_names()
            .into_iter()
            .map(str::to_string)
            .collect();
        let mut items: Vec<(Expr, String)> = k_cols
            .iter()
            .chain(right_cols.iter())
            .map(|c| (Expr::col(c), c.clone()))
            .collect();
        for g in &spec.groups {
            let cond = Expr::col(&g.cols[vi]).eq(Expr::col(t_key));
            for c in &g.cols {
                items.push((
                    Expr::Case {
                        branches: vec![(cond.clone(), Expr::col(c))],
                        otherwise: Box::new(Expr::Lit(Value::Null)),
                    },
                    c.clone(),
                ));
            }
        }
        let cased = joined.project(items);
        let rewritten = cased.gunpivot(spec.clone());
        let orig_schema = plan.schema(provider)?;
        let out_items: Vec<(Expr, String)> = orig_schema
            .column_names()
            .iter()
            .map(|c| (Expr::col(*c), c.to_string()))
            .collect();
        return check(rewritten.project(out_items), provider, RULE);
    }

    Err(na(
        RULE,
        DiagCode::Gp013JoinOnCells,
        "join involves name columns (higher-order join, §5.3.3 third case) or \
         multiple value columns",
    ))
}

/// Eq. 15 / §5.3.4: pull a GUNPIVOT above a GROUPBY via two-level
/// aggregation. `GroupBy(K', f(value_col))(GUnpivot(H))` where `K' ⊆ K ∪
/// name columns and `f ∈ {SUM, COUNT}` ⇒ aggregate each unpivot column
/// inside `H` first, unpivot the partial aggregates, then re-aggregate.
pub fn pull_unpivot_above_group_by<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "pull-gunpivot-groupby (Eq. 15)";
    let Plan::GroupBy {
        input,
        group_by,
        aggs,
    } = plan
    else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            format!("top is {}, not GroupBy", plan.op_name()),
        ));
    };
    let Plan::GUnpivot { input: h, spec } = input.as_ref() else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no GUnpivot directly under the GroupBy",
        ));
    };
    let h_schema = h.schema(provider)?;
    let k_cols = spec.validate(&h_schema)?;

    // Grouping columns: subset of K ∪ name columns (never value columns —
    // §5.3.4: "we cannot group same values in different columns").
    for g in group_by {
        if !k_cols.contains(g) && !spec.name_cols.contains(g) {
            return Err(na(
                RULE,
                DiagCode::Gp019GroupByOnCells,
                format!("grouping column `{g}` is a value column or unknown"),
            ));
        }
    }
    // Aggregates: f(value_col), f ∈ {SUM, COUNT} (paper's simplification).
    for a in aggs {
        if !matches!(a.func, AggFunc::Sum | AggFunc::Count) {
            return Err(na(
                RULE,
                DiagCode::Gp015AggNotBottomRespecting,
                format!("aggregate {} not supported here", a.func),
            ));
        }
        if !spec.value_cols.contains(&a.input) {
            return Err(na(
                RULE,
                DiagCode::Gp015AggNotBottomRespecting,
                format!(
                    "aggregate input `{}` is not a value column (§5.3.4: cannot \
                     aggregate name columns)",
                    a.input
                ),
            ));
        }
    }

    // Inner aggregation over H: group by K'' = group_by ∩ K, computing
    // f(col) for every unpivot source column used by some aggregate.
    let k2: Vec<&str> = group_by
        .iter()
        .filter(|g| k_cols.contains(*g))
        .map(String::as_str)
        .collect();
    let mut inner_aggs = Vec::new();
    let mut partial_groups = Vec::new();
    for g in &spec.groups {
        let mut cols = Vec::new();
        for a in aggs {
            let vi = spec
                .value_cols
                .iter()
                .position(|c| c == &a.input)
                .expect("checked");
            let partial = format!("__p_{}_{}", a.output, g.cols[vi]);
            inner_aggs.push(AggSpec {
                func: a.func,
                input: g.cols[vi].clone(),
                output: partial.clone(),
            });
            cols.push(partial);
        }
        partial_groups.push(gpivot_algebra::plan::UnpivotGroup {
            tags: g.tags.clone(),
            cols,
        });
    }
    let inner = h.as_ref().clone().group_by(&k2, inner_aggs);

    // COUNT partials must re-aggregate with SUM; a COUNT partial of 0 must
    // not survive as a row — SQL count returns 0, and unpivot would carry
    // it. Guard: refuse COUNT when any group could be empty... we instead
    // map COUNT partials of 0 to ⊥ with a CASE so the unpivot drops them.
    let mut case_items: Vec<(Expr, String)> = k2
        .iter()
        .map(|k| (Expr::col(*k), (*k).to_string()))
        .collect();
    let mut needs_case = false;
    for (g, pg) in spec.groups.iter().zip(&partial_groups) {
        let _ = g;
        for (a, col) in aggs.iter().zip(&pg.cols) {
            if a.func == AggFunc::Count {
                needs_case = true;
                case_items.push((
                    Expr::Case {
                        branches: vec![(Expr::col(col).gt(Expr::lit(0)), Expr::col(col))],
                        otherwise: Box::new(Expr::Lit(Value::Null)),
                    },
                    col.clone(),
                ));
            } else {
                case_items.push((Expr::col(col), col.clone()));
            }
        }
    }
    let inner = if needs_case {
        inner.project(case_items)
    } else {
        inner
    };

    // Unpivot the partial aggregates, then re-aggregate.
    let value_names: Vec<String> = aggs.iter().map(|a| format!("__v_{}", a.output)).collect();
    let mid = inner.gunpivot(UnpivotSpec {
        groups: partial_groups,
        name_cols: spec.name_cols.clone(),
        value_cols: value_names.clone(),
    });
    let outer_aggs: Vec<AggSpec> = aggs
        .iter()
        .zip(&value_names)
        .map(|(a, v)| AggSpec {
            // COUNT partials are re-aggregated with SUM.
            func: AggFunc::Sum,
            input: v.clone(),
            output: a.output.clone(),
        })
        .collect();
    let rewritten = mid.group_by(
        &group_by.iter().map(String::as_str).collect::<Vec<_>>(),
        outer_aggs,
    );
    check(rewritten, provider, RULE)
}

/// Eq. 16: push a GUNPIVOT below a SELECT over to-be-unpivoted columns via
/// a key semijoin: `GUnpivot(Select(σ, H))` ⇒
/// `(π_K(σ(H)) ⋉) GUnpivot(H)` — realized as
/// `GUnpivot(π_K(σ(H)) ⋈ H)` after pushing the key join in (§5.3.3).
pub fn push_unpivot_below_select<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "push-gunpivot-select (Eq. 16)";
    let Plan::GUnpivot { input, spec } = plan else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            format!("top is {}, not GUnpivot", plan.op_name()),
        ));
    };
    let Plan::Select {
        input: h,
        predicate,
    } = input.as_ref()
    else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no Select directly under the GUnpivot",
        ));
    };
    let h_schema = h.schema(provider)?;
    let k_cols = spec.validate(&h_schema)?;
    // The predicate must touch at least one to-be-unpivoted column (else
    // the trivial §5.4.1 commute applies — also handled here).
    let consumed: Vec<&String> = spec.groups.iter().flat_map(|g| g.cols.iter()).collect();
    let touches_cells = predicate.columns().iter().any(|c| consumed.contains(&c));
    if !touches_cells {
        // §5.4.1 first case: plain commute.
        let rewritten = h
            .as_ref()
            .clone()
            .gunpivot(spec.clone())
            .select(predicate.clone());
        return check(rewritten, provider, RULE);
    }
    if !h_schema.has_key() {
        return Err(na(
            RULE,
            DiagCode::Gp001PivotInputNoKey,
            "input carries no key for the semijoin",
        ));
    }
    // Key semijoin: qualifying keys from σ(H), joined back into H before
    // unpivoting.
    let keys = h
        .as_ref()
        .clone()
        .select(predicate.clone())
        .project_cols(&k_cols.iter().map(String::as_str).collect::<Vec<_>>());
    let rename: Vec<(Expr, String)> = k_cols
        .iter()
        .map(|k| (Expr::col(k), format!("__key_{k}")))
        .collect();
    let keys = Plan::GroupBy {
        input: Box::new(keys),
        group_by: k_cols.clone(),
        aggs: vec![],
    }
    .project(rename);
    let on: Vec<(String, String)> = k_cols
        .iter()
        .map(|k| (k.clone(), format!("__key_{k}")))
        .collect();
    let filtered = Plan::Join {
        left: Box::new(h.as_ref().clone()),
        right: Box::new(keys),
        kind: JoinKind::Inner,
        on,
        residual: None,
    }
    .project(
        h_schema
            .column_names()
            .iter()
            .map(|c| (Expr::col(*c), c.to_string()))
            .collect(),
    );
    check(filtered.gunpivot(spec.clone()), provider, RULE)
}

/// Eq. 18: push a GUNPIVOT below a GROUPBY when it unpivots the aggregate
/// outputs: `GUnpivot(f-outputs)(GroupBy(K; f(B_i)))` ⇒
/// `GroupBy(K ∪ names; f(value))(GUnpivot([B_i])(T))`.
pub fn push_unpivot_below_group_by<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "push-gunpivot-groupby (Eq. 18)";
    let Plan::GUnpivot { input, spec } = plan else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            format!("top is {}, not GUnpivot", plan.op_name()),
        ));
    };
    let Plan::GroupBy {
        input: t,
        group_by,
        aggs,
    } = input.as_ref()
    else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no GroupBy directly under the GUnpivot",
        ));
    };
    // Every unpivoted column must be an aggregate output; grouping columns
    // must be untouched (§5.4.4: unpivoting group-by columns is not
    // pushable).
    let consumed: Vec<&String> = spec.groups.iter().flat_map(|g| g.cols.iter()).collect();
    for c in &consumed {
        if group_by.contains(c) {
            return Err(na(
                RULE,
                DiagCode::Gp022PivotUnpivotMismatch,
                format!("unpivot consumes grouping column `{c}` (§5.4.4)"),
            ));
        }
        if !aggs.iter().any(|a| &a.output == *c) {
            return Err(na(
                RULE,
                DiagCode::Gp022PivotUnpivotMismatch,
                format!("unpivot consumes non-aggregate column `{c}`"),
            ));
        }
    }
    // One value column (the paper's Figure 21 shape); each group reads one
    // aggregate output, all computed with the same function over different
    // inputs. `f` must disregard ⊥ (SUM/COUNT/MIN/MAX all qualify; COUNT of
    // an empty group would produce 0 either way since groups here exist).
    if spec.value_cols.len() != 1 {
        return Err(na(
            RULE,
            DiagCode::Gp015AggNotBottomRespecting,
            "only single-measure unpivots supported (Figure 21 shape)",
        ));
    }
    let mut func: Option<AggFunc> = None;
    let mut inner_groups = Vec::new();
    for g in &spec.groups {
        let a = aggs
            .iter()
            .find(|a| a.output == g.cols[0])
            .expect("checked above");
        match func {
            None => func = Some(a.func),
            Some(f) if f == a.func => {}
            Some(f) => {
                return Err(na(
                    RULE,
                    DiagCode::Gp015AggNotBottomRespecting,
                    format!("mixed aggregate functions {f} and {}", a.func),
                ))
            }
        }
        if a.func == AggFunc::CountStar {
            return Err(na(
                RULE,
                DiagCode::Gp015AggNotBottomRespecting,
                "count(*) has no input column to unpivot",
            ));
        }
        inner_groups.push(gpivot_algebra::plan::UnpivotGroup {
            tags: g.tags.clone(),
            cols: vec![a.input.clone()],
        });
    }
    let func = func.ok_or_else(|| na(RULE, DiagCode::Gp020RuleShapeMismatch, "no groups"))?;
    // All aggregate outputs must be consumed (otherwise the leftover
    // aggregates would need duplicating — keep the rule exact).
    if aggs.len() != spec.groups.len() {
        return Err(na(
            RULE,
            DiagCode::Gp015AggNotBottomRespecting,
            "unpivot does not consume every aggregate output",
        ));
    }

    let value_col = &spec.value_cols[0];
    let inner = t.as_ref().clone().gunpivot(UnpivotSpec {
        groups: inner_groups,
        name_cols: spec.name_cols.clone(),
        value_cols: vec![value_col.clone()],
    });
    let mut outer_group: Vec<&str> = group_by.iter().map(String::as_str).collect();
    let name_cols: Vec<&str> = spec.name_cols.iter().map(String::as_str).collect();
    outer_group.extend(name_cols);
    let rewritten = inner.group_by(
        &outer_group,
        vec![AggSpec {
            func,
            input: value_col.clone(),
            output: value_col.clone(),
        }],
    );
    check(rewritten, provider, RULE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_algebra::plan::UnpivotGroup;
    use gpivot_storage::{DataType, Schema, SchemaRef, Value};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn provider() -> BTreeMap<String, SchemaRef> {
        let mut m = BTreeMap::new();
        m.insert(
            "wide".to_string(),
            Arc::new(
                Schema::from_pairs_keyed(
                    &[
                        ("k", DataType::Int),
                        ("x_v", DataType::Int),
                        ("y_v", DataType::Int),
                    ],
                    &["k"],
                )
                .unwrap(),
            ),
        );
        m
    }

    fn unspec() -> UnpivotSpec {
        UnpivotSpec::new(
            vec![
                UnpivotGroup {
                    tags: vec![Value::str("x")],
                    cols: vec!["x_v".into()],
                },
                UnpivotGroup {
                    tags: vec![Value::str("y")],
                    cols: vec!["y_v".into()],
                },
            ],
            vec!["which"],
            vec!["v"],
        )
    }

    #[test]
    fn rules_reject_wrong_shapes() {
        let p = provider();
        let scan = Plan::scan("wide");
        assert!(push_select_below_unpivot(&scan, &p).is_err());
        assert!(pull_unpivot_above_join(&scan, &p).is_err());
        assert!(pull_unpivot_above_group_by(&scan, &p).is_err());
        assert!(push_unpivot_below_select(&scan, &p).is_err());
        assert!(push_unpivot_below_group_by(&scan, &p).is_err());
    }

    #[test]
    fn select_pushdown_rejects_unsatisfiable_name_atoms() {
        let p = provider();
        let plan = Plan::scan("wide")
            .gunpivot(unspec())
            .select(Expr::col("which").eq(Expr::lit("zzz")));
        // No group matches 'zzz': the rule refuses (the plan is constant-
        // empty; the optimizer has nothing to push).
        assert!(push_select_below_unpivot(&plan, &p).is_err());
    }

    #[test]
    fn groupby_pullup_rejects_value_column_grouping() {
        let p = provider();
        // §5.3.4: cannot group by the value column.
        let plan = Plan::scan("wide")
            .gunpivot(unspec())
            .group_by(&["v"], vec![gpivot_algebra::AggSpec::count_star("n")]);
        assert!(pull_unpivot_above_group_by(&plan, &p).is_err());
    }

    #[test]
    fn groupby_pullup_rejects_min_max() {
        let p = provider();
        let plan = Plan::scan("wide")
            .gunpivot(unspec())
            .group_by(&["which"], vec![gpivot_algebra::AggSpec::max("v", "m")]);
        assert!(pull_unpivot_above_group_by(&plan, &p).is_err());
    }
}
