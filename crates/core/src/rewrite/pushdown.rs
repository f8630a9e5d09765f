//! Pushdown rules for GPIVOT (§5.2): the query-optimization direction.
//!
//! Where the pullup rules normalize a view for maintenance, the pushdown
//! rules let a cost-based optimizer move a GPIVOT *below* other operators —
//! e.g. to filter early (Eq. 11 keeps a selection below the pivot as a
//! case-projection) or to pivot before a blow-up join (§5.2.3).

use super::{check, na};
use crate::error::Result;
use gpivot_algebra::plan::{JoinKind, Plan};
use gpivot_algebra::{CmpOp, Expr, SchemaProvider};
use gpivot_analyze::DiagCode;
use gpivot_storage::Value;

/// One atom of a conjunctive selection under a pivot.
enum PushAtom {
    /// Over K columns — commutes freely.
    OnK(Expr),
    /// `A_u = x`: dimension column equals a literal (statically decidable
    /// per output group).
    ByEq { by_idx: usize, value: Value },
    /// `B_v op y`: measure column compared to a literal (becomes a CASE
    /// over each group's cells).
    OnCmp {
        on_idx: usize,
        op: CmpOp,
        lit: Value,
    },
}

/// Eq. 11 (plus the trivial K-column case): push a GPIVOT below a SELECT.
///
/// `GPivot(Select(pred, V))` where `pred` is a conjunction of atoms over
/// `K` columns, `A_u = x` dimension atoms, and `B_v op y` measure atoms ⇒
///
/// ```text
/// Select(not-all-⊥, Project(K, case-cells, GPivot(V)))   [with K-atoms as a plain Select]
/// ```
pub fn pushdown_through_select<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "pushdown-select (Eq. 11)";
    let Plan::GPivot { input, spec } = plan else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            format!("top is {}, not GPivot", plan.op_name()),
        ));
    };
    let Plan::Select {
        input: v,
        predicate,
    } = input.as_ref()
    else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no Select directly under the GPivot",
        ));
    };
    let v_schema = v.schema(provider)?;
    let k_cols = spec.validate(&v_schema)?;

    // Classify each conjunct.
    let mut atoms = Vec::new();
    for c in predicate.conjuncts() {
        let cols = c.columns();
        if cols.iter().all(|x| k_cols.contains(x)) {
            atoms.push(PushAtom::OnK(c));
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
                    if let Some(i) = spec.by.iter().position(|x| x == col) {
                        if op != CmpOp::Eq {
                            return Err(na(
                                RULE,
                                DiagCode::Gp011SelectOverCells,
                                format!("dimension atom `{c}` must be an equality"),
                            ));
                        }
                        atoms.push(PushAtom::ByEq {
                            by_idx: i,
                            value: val.clone(),
                        });
                    } else if let Some(i) = spec.on.iter().position(|x| x == col) {
                        atoms.push(PushAtom::OnCmp {
                            on_idx: i,
                            op,
                            lit: val.clone(),
                        });
                    } else {
                        return Err(na(
                            RULE,
                            DiagCode::Gp011SelectOverCells,
                            format!("atom `{c}` references unknown column `{col}`"),
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

    // Build: pivot the raw input, then per group either null out cells
    // (static dimension-atom failure), wrap them in CASE (measure atoms),
    // or pass through.
    let pivoted = v.as_ref().clone().gpivot(spec.clone());

    let mut items: Vec<(Expr, String)> = k_cols.iter().map(|k| (Expr::col(k), k.clone())).collect();
    let mut k_selects = Vec::new();
    let mut cell_names = Vec::new();
    for gi in 0..spec.groups.len() {
        // Static dimension-atom evaluation for this group.
        let group_passes = atoms.iter().all(|a| match a {
            PushAtom::ByEq { by_idx, value } => &spec.groups[gi][*by_idx] == value,
            _ => true,
        });
        // Dynamic measure conditions for this group.
        let mut conds = Vec::new();
        for a in &atoms {
            match a {
                PushAtom::OnCmp { on_idx, op, lit } => conds.push(Expr::Cmp(
                    *op,
                    Box::new(Expr::col(spec.col_name(gi, *on_idx))),
                    Box::new(Expr::Lit(lit.clone())),
                )),
                PushAtom::OnK(e) => {
                    if gi == 0 {
                        k_selects.push(e.clone());
                    }
                }
                PushAtom::ByEq { .. } => {}
            }
        }
        for bj in 0..spec.on.len() {
            let name = spec.col_name(gi, bj);
            cell_names.push(name.clone());
            let expr = if !group_passes {
                Expr::Lit(Value::Null)
            } else if conds.is_empty() {
                Expr::col(&name)
            } else {
                Expr::Case {
                    branches: vec![(Expr::conjunction(conds.clone()), Expr::col(&name))],
                    otherwise: Box::new(Expr::Lit(Value::Null)),
                }
            };
            items.push((expr, name));
        }
    }

    let projected = pivoted.project(items);
    // Remove rows whose every cell became ⊥.
    let not_all_null = Expr::disjunction(
        cell_names
            .iter()
            .map(|c| Expr::col(c).is_null().not())
            .collect(),
    );
    let mut rewritten = projected.select(not_all_null);
    if !k_selects.is_empty() {
        rewritten = rewritten.select(Expr::conjunction(k_selects));
    }
    check(rewritten, provider, RULE)
}

/// §5.2.3, key-join case: `GPivot(Join(V, A, on))` where every pivot
/// parameter column comes from `V` and the join is on `V`'s carried (K)
/// columns ⇒ `Join(GPivot(V), A, on)`.
pub fn pushdown_through_join<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "pushdown-join (§5.2.3)";
    let Plan::GPivot { input, spec } = plan else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            format!("top is {}, not GPivot", plan.op_name()),
        ));
    };
    let Plan::Join {
        left,
        right,
        kind: JoinKind::Inner,
        on,
        residual: None,
    } = input.as_ref()
    else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no plain inner join directly under the GPivot",
        ));
    };
    let left_schema = left.schema(provider)?;
    // All pivot parameter columns must come from the left side.
    for c in spec.by.iter().chain(spec.on.iter()) {
        if left_schema.index_of(c).is_err() {
            return Err(na(
                RULE,
                DiagCode::Gp013JoinOnCells,
                format!("pivot parameter column `{c}` does not come from one join side"),
            ));
        }
    }
    // The join must be on left K columns (not on by/on columns).
    for (l, _) in on {
        if spec.by.contains(l) || spec.on.contains(l) {
            return Err(na(
                RULE,
                DiagCode::Gp013JoinOnCells,
                format!(
                    "join column `{l}` is a pivot parameter (§5.2.3 case-projection case \
                     not implemented as a plan rewrite)"
                ),
            ));
        }
    }
    let rewritten = Plan::Join {
        left: Box::new(left.as_ref().clone().gpivot(spec.clone())),
        right: right.clone(),
        kind: JoinKind::Inner,
        on: on.clone(),
        residual: None,
    };
    // The pushed-down form emits [K(left), cells, right-cols] while the
    // original pivot emitted [K(left) ++ right-cols, cells]; restore order.
    let orig_schema = plan.schema(provider)?;
    let items: Vec<(Expr, String)> = orig_schema
        .column_names()
        .iter()
        .map(|c| (Expr::col(*c), c.to_string()))
        .collect();
    check(rewritten.project(items), provider, RULE)
}

/// §5.2.4 (reverse of Eq. 8): `GPivot(GroupBy(K'∪by ; f(B)))` ⇒
/// `GroupBy(K' ; f(cells))(GPivot(V))` — push the pivot below the
/// aggregation. Requires the GroupBy input to carry a key and `f` to be
/// `⊥`-respecting (SUM/MIN/MAX).
pub fn pushdown_through_group_by<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "pushdown-groupby (§5.2.4)";
    let Plan::GPivot { input, spec } = plan else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            format!("top is {}, not GPivot", plan.op_name()),
        ));
    };
    let Plan::GroupBy {
        input: v,
        group_by,
        aggs,
    } = input.as_ref()
    else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no GroupBy directly under the GPivot",
        ));
    };
    // The pivot dimensions must be grouping columns, the measures exactly
    // the aggregate outputs.
    if !spec.by.iter().all(|b| group_by.contains(b)) {
        return Err(na(
            RULE,
            DiagCode::Gp015AggNotBottomRespecting,
            "pivot dimensions are not grouping columns",
        ));
    }
    for a in aggs {
        use gpivot_algebra::AggFunc;
        if !matches!(a.func, AggFunc::Sum | AggFunc::Min | AggFunc::Max) {
            return Err(na(
                RULE,
                DiagCode::Gp015AggNotBottomRespecting,
                format!(
                    "aggregate {} is not ⊥-respecting (see Eq. 8 caveat)",
                    a.func
                ),
            ));
        }
    }
    let agg_outputs: Vec<&String> = aggs.iter().map(|a| &a.output).collect();
    if spec.on.len() != aggs.len() || !spec.on.iter().all(|o| agg_outputs.contains(&o)) {
        return Err(na(
            RULE,
            DiagCode::Gp015AggNotBottomRespecting,
            "pivot measures are not exactly the aggregate outputs",
        ));
    }
    // GroupBy input must itself carry a key for the inner pivot.
    let v_schema = v.schema(provider)?;
    if !v_schema.has_key() {
        return Err(na(
            RULE,
            DiagCode::Gp001PivotInputNoKey,
            "group-by input carries no key; the pushed-down pivot would be inapplicable \
             (§5.2.4: duplicate inputs)",
        ));
    }

    // Inner pivot: same dimensions/groups, measures = the aggregate inputs.
    let on_inputs: Vec<String> = spec
        .on
        .iter()
        .map(|o| {
            aggs.iter()
                .find(|a| &a.output == o)
                .map(|a| a.input.clone())
                .expect("checked above")
        })
        .collect();
    let inner_spec = gpivot_algebra::PivotSpec {
        by: spec.by.clone(),
        on: on_inputs.clone(),
        groups: spec.groups.clone(),
    };
    let inner = v.as_ref().clone().gpivot(inner_spec.clone());

    // Outer group-by: remaining grouping columns; aggregate each cell with
    // its measure's function, named as the original pivot output cell.
    let outer_group: Vec<&str> = group_by
        .iter()
        .filter(|g| !spec.by.contains(g))
        .map(String::as_str)
        .collect();
    let mut outer_aggs = Vec::new();
    for gi in 0..spec.groups.len() {
        for (bj, o) in spec.on.iter().enumerate() {
            let func = aggs.iter().find(|a| &a.output == o).expect("checked").func;
            outer_aggs.push(gpivot_algebra::AggSpec {
                func,
                input: inner_spec.col_name(gi, bj),
                output: spec.col_name(gi, bj),
            });
        }
    }
    let rewritten = inner.group_by(&outer_group, outer_aggs);
    // Column order: original = K' ++ cells where K' excludes... the
    // original output order is (GroupBy K cols minus nothing) — pivot K is
    // all group_by columns except spec.by, which matches outer_group; cells
    // follow in group-major order. Orders agree by construction.
    check(rewritten, provider, RULE)
}

/// Eq. 12: `GPivot(GUnpivot(H))` where the pivot exactly re-encodes what
/// the unpivot decoded ⇒ `Select(not-all-⊥, H)`.
pub fn cancel_unpivot_pivot<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "cancel-gunpivot-gpivot (Eq. 12)";
    let Plan::GPivot { input, spec } = plan else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            format!("top is {}, not GPivot", plan.op_name()),
        ));
    };
    let Plan::GUnpivot {
        input: h,
        spec: unspec,
    } = input.as_ref()
    else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no GUnpivot directly under the GPivot",
        ));
    };
    // The pivot must re-encode exactly the unpivot's structure.
    if unspec.name_cols != spec.by || unspec.value_cols != spec.on {
        return Err(na(
            RULE,
            DiagCode::Gp022PivotUnpivotMismatch,
            "pivot parameters do not mirror the unpivot outputs",
        ));
    }
    if unspec.groups.len() != spec.groups.len() {
        return Err(na(
            RULE,
            DiagCode::Gp022PivotUnpivotMismatch,
            "group counts differ",
        ));
    }
    let mut cells = Vec::new();
    for (g, ug) in spec.groups.iter().zip(&unspec.groups) {
        if &ug.tags != g {
            return Err(na(
                RULE,
                DiagCode::Gp022PivotUnpivotMismatch,
                "group tags differ between pivot and unpivot",
            ));
        }
        // The unpivot's source columns must be the names the pivot will
        // re-create.
        for (bj, col) in ug.cols.iter().enumerate() {
            let expected = gpivot_algebra::encode_pivot_col(g, &spec.on[bj]);
            if col != &expected {
                return Err(na(
                    RULE,
                    DiagCode::Gp022PivotUnpivotMismatch,
                    format!("unpivot reads `{col}` but pivot would emit `{expected}`"),
                ));
            }
            cells.push(col.clone());
        }
    }
    // σs: not all cells ⊥.
    let not_all_null =
        Expr::disjunction(cells.iter().map(|c| Expr::col(c).is_null().not()).collect());
    // Restore the pivot output column order (K then cells); H may order
    // them differently.
    let h_schema = h.schema(provider)?;
    let k_cols: Vec<String> = h_schema
        .column_names()
        .into_iter()
        .filter(|c| !cells.iter().any(|x| x == c))
        .map(str::to_string)
        .collect();
    let mut order = k_cols;
    order.extend(cells);
    let rewritten = h
        .as_ref()
        .clone()
        .select(not_all_null)
        .project(order.iter().map(|c| (Expr::col(c), c.clone())).collect());
    check(rewritten, provider, RULE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_algebra::PivotSpec;
    use gpivot_storage::{DataType, Schema, SchemaRef, Value};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn provider() -> BTreeMap<String, SchemaRef> {
        let mut m = BTreeMap::new();
        m.insert(
            "t".to_string(),
            Arc::new(
                Schema::from_pairs_keyed(
                    &[
                        ("k", DataType::Int),
                        ("a", DataType::Str),
                        ("b", DataType::Int),
                    ],
                    &["k", "a"],
                )
                .unwrap(),
            ),
        );
        m
    }

    fn spec() -> PivotSpec {
        PivotSpec::simple("a", "b", vec![Value::str("x"), Value::str("y")])
    }

    #[test]
    fn rules_reject_wrong_shapes() {
        let p = provider();
        let scan = Plan::scan("t");
        assert!(pushdown_through_select(&scan, &p).is_err());
        assert!(pushdown_through_join(&scan, &p).is_err());
        assert!(pushdown_through_group_by(&scan, &p).is_err());
        assert!(cancel_unpivot_pivot(&scan, &p).is_err());
    }

    #[test]
    fn select_pushdown_rejects_non_equality_dimension_atoms() {
        let p = provider();
        let plan = Plan::scan("t")
            .select(Expr::col("a").gt(Expr::lit("m")))
            .gpivot(spec());
        assert!(pushdown_through_select(&plan, &p).is_err());
    }

    #[test]
    fn groupby_pushdown_rejects_count() {
        let p = provider();
        // COUNT breaks the ⊥-for-empty requirement (Eq. 8 caveat).
        let plan = Plan::scan("t")
            .group_by(&["k", "a"], vec![gpivot_algebra::AggSpec::count("b", "c")])
            .gpivot(PivotSpec::new(
                vec!["a"],
                vec!["c"],
                vec![vec![Value::str("x")]],
            ));
        assert!(pushdown_through_group_by(&plan, &p).is_err());
    }

    #[test]
    fn join_pushdown_rejects_pivot_params_in_join() {
        let p = {
            let mut m = provider();
            m.insert(
                "d".to_string(),
                Arc::new(Schema::from_pairs_keyed(&[("dk", DataType::Int)], &["dk"]).unwrap()),
            );
            m
        };
        // Join on the measure column b: §5.2.3's case-projection case.
        let plan = Plan::scan("t")
            .join(Plan::scan("d"), vec![("b", "dk")])
            .gpivot(spec());
        assert!(pushdown_through_join(&plan, &p).is_err());
    }
}
