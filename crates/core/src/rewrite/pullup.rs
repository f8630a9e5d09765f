//! Pullup rules for GPIVOT (§5.1): move a GPIVOT up through SELECT,
//! PROJECT, JOIN and GROUPBY so it ends at the top of the view tree, where
//! the efficient update propagation rules (Fig. 23 / 27 / 29) apply.
//!
//! Every rule here is *key-preservation gated* (Fig. 8): the rewritten
//! plan's schema is re-derived and the rewrite is refused whenever the
//! pulled-up pivot would lose its input key.

use super::na;
use crate::error::Result;
use gpivot_algebra::plan::{JoinKind, PivotSpec, Plan};
use gpivot_algebra::{AlgebraError, Expr, SchemaProvider};
use gpivot_analyze::DiagCode;
use gpivot_storage::Value;
use std::collections::BTreeSet;

/// The `K` (carried-through) column names of a pivot input.
fn pivot_k_cols<P: SchemaProvider>(
    input: &Plan,
    spec: &PivotSpec,
    provider: &P,
) -> Result<Vec<String>> {
    let schema = input.schema(provider)?;
    Ok(spec.validate(&schema)?)
}

/// Validate a candidate rewritten plan by re-deriving its schema (this is
/// where the key-preservation prerequisite is enforced).
fn check<P: SchemaProvider>(plan: Plan, provider: &P, rule: &'static str) -> Result<Plan> {
    match plan.schema(provider) {
        Ok(_) => Ok(plan),
        Err(AlgebraError::PivotRequiresKey { detail }) => Err(na(
            rule,
            DiagCode::Gp010KeyNotPreserved,
            format!("key not preserved by the rewrite: {detail}"),
        )),
        Err(e) => Err(e.into()),
    }
}

/// §5.1.1, easy case: `Select(pred, GPivot(X))` where `pred` references only
/// non-pivoted (K) columns ⇒ `GPivot(Select(pred, X))`.
pub fn pullup_through_select<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "pullup-select (§5.1.1)";
    let Plan::Select { input, predicate } = plan else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            format!("top is {}, not Select", plan.op_name()),
        ));
    };
    let Plan::GPivot { input: x, spec } = input.as_ref() else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no GPivot directly under the Select",
        ));
    };
    let k_cols = pivot_k_cols(x, spec, provider)?;
    let pred_cols = predicate.columns();
    if !pred_cols.iter().all(|c| k_cols.contains(c)) {
        return Err(na(
            RULE,
            DiagCode::Gp011SelectOverCells,
            format!(
                "predicate references pivoted output columns {:?}; \
                 use the self-join pushdown (Eq. 7) or the combined \
                 SELECT/GPIVOT update rules (Fig. 29)",
                pred_cols
                    .iter()
                    .filter(|c| !k_cols.contains(*c))
                    .collect::<Vec<_>>()
            ),
        ));
    }
    let rewritten = x
        .as_ref()
        .clone()
        .select(predicate.clone())
        .gpivot(spec.clone());
    check(rewritten, provider, RULE)
}

/// Eq. 7: `Select(σ over pivoted cells, GPivot(V))` ⇒
/// `GPivot(π_K(qualifying keys) ⋉ V)` — the SELECT is pushed below the
/// pivot as key-qualifying self-joins, leaving the GPIVOT on top.
///
/// Supported predicate forms (conjunctions thereof, each atom over pivoted
/// cells): `cell op literal` and `cell1 op cell2`. Atoms over K columns stay
/// as a plain selection on `V`'s K columns.
pub fn push_select_below_pivot_selfjoin<P: SchemaProvider>(
    plan: &Plan,
    provider: &P,
) -> Result<Plan> {
    const RULE: &str = "select-selfjoin-pushdown (Eq. 7)";
    let Plan::Select { input, predicate } = plan else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            format!("top is {}, not Select", plan.op_name()),
        ));
    };
    let Plan::GPivot { input: x, spec } = input.as_ref() else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no GPivot directly under the Select",
        ));
    };
    if !predicate.is_null_intolerant() {
        return Err(na(
            RULE,
            DiagCode::Gp011SelectOverCells,
            "predicate is not null-intolerant",
        ));
    }
    let k_cols = pivot_k_cols(x, spec, provider)?;
    let atoms = predicate.conjuncts();

    // The qualifying-keys plan: chain of semijoin filters over V.
    let mut keys_plan: Option<Plan> = None;
    let mut k_selects: Vec<Expr> = Vec::new();
    for atom in &atoms {
        match classify_atom(atom, spec, &k_cols)? {
            AtomKind::OnK => k_selects.push(atom.clone()),
            AtomKind::CellLiteral {
                group,
                measure,
                op,
                lit,
            } => {
                // π_K(σ_{(A..)=g ∧ B op lit}(V))
                let sel = group_predicate(spec, &spec.groups[group]).and(Expr::Cmp(
                    op,
                    Box::new(Expr::col(&spec.on[measure])),
                    Box::new(Expr::Lit(lit)),
                ));
                let keys = x
                    .as_ref()
                    .clone()
                    .select(sel)
                    .project_cols(&k_cols.iter().map(String::as_str).collect::<Vec<_>>());
                keys_plan = Some(match keys_plan {
                    None => keys,
                    // Conjunction of cell atoms = intersection of key sets,
                    // realized as a chained semijoin.
                    Some(prev) => semijoin_keys(prev, keys, &k_cols),
                });
            }
            AtomKind::CellPair {
                group1,
                measure1,
                op,
                group2,
                measure2,
            } => {
                // π_K(σ_{A=g1}(V) ⋈_{K=K ∧ B1 op B2} σ_{A=g2}(V))
                let left = x
                    .as_ref()
                    .clone()
                    .select(group_predicate(spec, &spec.groups[group1]));
                let right = x
                    .as_ref()
                    .clone()
                    .select(group_predicate(spec, &spec.groups[group2]));
                // Rename the right side completely to keep names disjoint.
                let schema = x.schema(provider)?;
                let rename: Vec<(Expr, String)> = schema
                    .column_names()
                    .iter()
                    .map(|c| (Expr::col(*c), format!("__sj_{c}")))
                    .collect();
                let right = right.project(rename);
                let on_pairs: Vec<(String, String)> = k_cols
                    .iter()
                    .map(|k| (k.clone(), format!("__sj_{k}")))
                    .collect();
                let residual = Expr::Cmp(
                    op,
                    Box::new(Expr::col(&spec.on[measure1])),
                    Box::new(Expr::col(format!("__sj_{}", spec.on[measure2]))),
                );
                let joined = Plan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    kind: JoinKind::Inner,
                    on: on_pairs,
                    residual: Some(residual),
                };
                let keys =
                    joined.project_cols(&k_cols.iter().map(String::as_str).collect::<Vec<_>>());
                keys_plan = Some(match keys_plan {
                    None => keys,
                    Some(prev) => semijoin_keys(prev, keys, &k_cols),
                });
            }
        }
    }

    let Some(keys) = keys_plan else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "predicate has no atoms over pivoted cells; use pullup-select instead",
        ));
    };

    // V restricted to qualifying keys (semijoin), plus any K-column atoms.
    let x_cols: Vec<String> = x
        .schema(provider)?
        .column_names()
        .into_iter()
        .map(str::to_string)
        .collect();
    let mut filtered = semijoin_rows(x.as_ref().clone(), &x_cols, keys, &k_cols);
    if !k_selects.is_empty() {
        filtered = filtered.select(Expr::conjunction(k_selects));
    }
    check(filtered.gpivot(spec.clone()), provider, RULE)
}

/// `(A1..Am) = tags` as a predicate over the pivot input.
fn group_predicate(spec: &PivotSpec, tags: &[Value]) -> Expr {
    Expr::conjunction(
        spec.by
            .iter()
            .zip(tags)
            .map(|(c, v)| Expr::col(c).eq(Expr::Lit(v.clone())))
            .collect(),
    )
}

enum AtomKind {
    /// Atom only over K columns.
    OnK,
    /// `cell op literal`.
    CellLiteral {
        group: usize,
        measure: usize,
        op: gpivot_algebra::CmpOp,
        lit: Value,
    },
    /// `cell1 op cell2`.
    CellPair {
        group1: usize,
        measure1: usize,
        op: gpivot_algebra::CmpOp,
        group2: usize,
        measure2: usize,
    },
}

/// Resolve a pivoted output column name to `(group index, measure index)`.
fn resolve_cell(name: &str, spec: &PivotSpec) -> Option<(usize, usize)> {
    for gi in 0..spec.groups.len() {
        for bj in 0..spec.on.len() {
            if spec.col_name(gi, bj) == name {
                return Some((gi, bj));
            }
        }
    }
    None
}

fn classify_atom(atom: &Expr, spec: &PivotSpec, k_cols: &[String]) -> Result<AtomKind> {
    const RULE: &str = "select-selfjoin-pushdown (Eq. 7)";
    let cols = atom.columns();
    let cells: Vec<&String> = cols
        .iter()
        .filter(|c| resolve_cell(c, spec).is_some())
        .collect();
    if cells.is_empty() {
        if cols.iter().all(|c| k_cols.contains(c)) {
            return Ok(AtomKind::OnK);
        }
        return Err(na(
            RULE,
            DiagCode::Gp011SelectOverCells,
            format!("atom `{atom}` references columns outside the pivot output"),
        ));
    }
    match atom {
        Expr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Col(c), Expr::Lit(v)) => {
                let (g, m) = resolve_cell(c, spec).ok_or_else(|| {
                    na(
                        RULE,
                        DiagCode::Gp011SelectOverCells,
                        format!("`{c}` is not a pivoted cell"),
                    )
                })?;
                Ok(AtomKind::CellLiteral {
                    group: g,
                    measure: m,
                    op: *op,
                    lit: v.clone(),
                })
            }
            (Expr::Lit(v), Expr::Col(c)) => {
                let (g, m) = resolve_cell(c, spec).ok_or_else(|| {
                    na(
                        RULE,
                        DiagCode::Gp011SelectOverCells,
                        format!("`{c}` is not a pivoted cell"),
                    )
                })?;
                Ok(AtomKind::CellLiteral {
                    group: g,
                    measure: m,
                    op: op.flipped(),
                    lit: v.clone(),
                })
            }
            (Expr::Col(c1), Expr::Col(c2)) => {
                let (g1, m1) = resolve_cell(c1, spec).ok_or_else(|| {
                    na(
                        RULE,
                        DiagCode::Gp011SelectOverCells,
                        format!("`{c1}` is not a pivoted cell"),
                    )
                })?;
                let (g2, m2) = resolve_cell(c2, spec).ok_or_else(|| {
                    na(
                        RULE,
                        DiagCode::Gp011SelectOverCells,
                        format!("`{c2}` is not a pivoted cell"),
                    )
                })?;
                Ok(AtomKind::CellPair {
                    group1: g1,
                    measure1: m1,
                    op: *op,
                    group2: g2,
                    measure2: m2,
                })
            }
            _ => Err(na(
                RULE,
                DiagCode::Gp011SelectOverCells,
                format!("unsupported atom shape `{atom}`"),
            )),
        },
        _ => Err(na(
            RULE,
            DiagCode::Gp011SelectOverCells,
            format!("unsupported atom `{atom}`"),
        )),
    }
}

/// Key-set intersection: `prev ⋉ keys` (both are bags of K tuples; both
/// sides are deduplicated so the intersection stays set-like).
fn semijoin_keys(prev: Plan, keys: Plan, k_cols: &[String]) -> Plan {
    semijoin_rows(dedup_keys(prev, k_cols), k_cols, keys, k_cols)
}

/// Deduplicate a bag of key tuples (GROUP BY all columns).
fn dedup_keys(plan: Plan, k_cols: &[String]) -> Plan {
    Plan::GroupBy {
        input: Box::new(plan),
        group_by: k_cols.to_vec(),
        aggs: vec![],
    }
}

/// `rows ⋉ keys` on the K columns: keep rows whose key appears in `keys`.
/// `keys` is deduplicated and renamed to avoid ambiguity; the helper
/// columns are projected away again (`rows_cols` is the row schema's column
/// list, preserved in order).
fn semijoin_rows(rows: Plan, rows_cols: &[String], keys: Plan, k_cols: &[String]) -> Plan {
    let deduped = dedup_keys(keys, k_cols);
    let rename: Vec<(Expr, String)> = k_cols
        .iter()
        .map(|k| (Expr::col(k), format!("__key_{k}")))
        .collect();
    let renamed = deduped.project(rename);
    let on: Vec<(String, String)> = k_cols
        .iter()
        .map(|k| (k.clone(), format!("__key_{k}")))
        .collect();
    let joined = Plan::Join {
        left: Box::new(rows),
        right: Box::new(renamed),
        kind: JoinKind::Inner,
        on,
        residual: None,
    };
    joined.project(
        rows_cols
            .iter()
            .map(|c| (Expr::col(c), c.clone()))
            .collect(),
    )
}

/// §5.1.3: `Join(GPivot(X), B)` joined on non-pivoted (K) columns ⇒
/// `GPivot(Join(X, B))`. `side` selects which operand carries the pivot.
pub fn pullup_through_join<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "pullup-join (§5.1.3)";
    let Plan::Join {
        left,
        right,
        kind,
        on,
        residual,
    } = plan
    else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            format!("top is {}, not Join", plan.op_name()),
        ));
    };
    if *kind != JoinKind::Inner {
        return Err(na(
            RULE,
            DiagCode::Gp014OuterJoin,
            format!("join kind {kind} not supported for pullup"),
        ));
    }
    if residual.is_some() {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "join has a residual predicate",
        ));
    }

    // The pulled-up pivot emits [K..., cells...] while the original join
    // emitted the pivot columns in place; a permutation Project restores
    // the original column order (the driver absorbs it at the top).
    let restore_order = |rewritten: Plan| -> Result<Plan> {
        let orig_schema = plan.schema(provider)?;
        let items: Vec<(Expr, String)> = orig_schema
            .column_names()
            .iter()
            .map(|c| (Expr::col(*c), c.to_string()))
            .collect();
        check(rewritten.project(items), provider, RULE)
    };

    // Pivot on the left?
    if let Plan::GPivot { input: x, spec } = left.as_ref() {
        let k_cols = pivot_k_cols(x, spec, provider)?;
        if on.iter().all(|(l, _)| k_cols.contains(l)) {
            let rewritten = Plan::Join {
                left: Box::new(x.as_ref().clone()),
                right: right.clone(),
                kind: JoinKind::Inner,
                on: on.clone(),
                residual: None,
            }
            .gpivot(spec.clone());
            return restore_order(rewritten);
        }
        return Err(na(
            RULE,
            DiagCode::Gp013JoinOnCells,
            "join condition references pivoted output columns (§5.1.3 self-join case)",
        ));
    }
    // Pivot on the right?
    if let Plan::GPivot { input: x, spec } = right.as_ref() {
        let k_cols = pivot_k_cols(x, spec, provider)?;
        if on.iter().all(|(_, r)| k_cols.contains(r)) {
            let rewritten = Plan::Join {
                left: left.clone(),
                right: Box::new(x.as_ref().clone()),
                kind: JoinKind::Inner,
                on: on.clone(),
                residual: None,
            }
            .gpivot(spec.clone());
            return restore_order(rewritten);
        }
        return Err(na(
            RULE,
            DiagCode::Gp013JoinOnCells,
            "join condition references pivoted output columns (§5.1.3 self-join case)",
        ));
    }
    Err(na(
        RULE,
        DiagCode::Gp020RuleShapeMismatch,
        "neither join operand is a GPivot",
    ))
}

/// §5.1.2: `Project(cols, GPivot(X))` where the projection keeps *all*
/// pivoted output columns and a key-preserving subset of `K` ⇒
/// `Project(cols, GPivot(Project(K'∪by∪on, X)))` with the outer projection
/// reduced to a pure permutation (absorbed later by the driver).
pub fn pullup_through_project<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "pullup-project (§5.1.2)";
    let Plan::Project { input, items } = plan else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            format!("top is {}, not Project", plan.op_name()),
        ));
    };
    let Plan::GPivot { input: x, spec } = input.as_ref() else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no GPivot directly under the Project",
        ));
    };
    // Pure column projection only.
    let mut kept: Vec<String> = Vec::with_capacity(items.len());
    for (e, n) in items {
        match e {
            Expr::Col(c) if c == n => kept.push(c.clone()),
            _ => {
                return Err(na(
                    RULE,
                    DiagCode::Gp012ProjectDropsCells,
                    format!("item `{n}` is not a bare column"),
                ))
            }
        }
    }
    let kept_set: BTreeSet<&str> = kept.iter().map(String::as_str).collect();
    let cells = spec.output_col_names();
    if !cells.iter().all(|c| kept_set.contains(c.as_str())) {
        return Err(na(
            RULE,
            DiagCode::Gp012ProjectDropsCells,
            "projection drops pivoted output columns (§5.1.2: would change ⊥ semantics); \
             falling back to insert/delete propagation",
        ));
    }
    let k_cols = pivot_k_cols(x, spec, provider)?;
    let kept_k: Vec<String> = kept
        .iter()
        .filter(|c| k_cols.contains(c))
        .cloned()
        .collect();
    if kept_k.len() == k_cols.len() {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "projection keeps every column (pure permutation); nothing to push — \
             the driver absorbs it at the top",
        ));
    }
    // Dropping any K column violates key preservation (Fig. 8): the pivot
    // output's key is K itself, and pushing the projection below the pivot
    // would coarsen its grouping. (The paper's §5.2.2 footnote: only
    // functionally-determined columns could be dropped, and we do not track
    // functional dependencies.)
    Err(na(
        RULE,
        DiagCode::Gp010KeyNotPreserved,
        format!(
            "projection drops K column(s) {:?}; the pivot output's key K would not be \
             preserved (§5.1.2) — falling back to insert/delete propagation",
            k_cols
                .iter()
                .filter(|c| !kept_k.contains(c))
                .collect::<Vec<_>>()
        ),
    ))
}

/// §5.1.4 / Eq. 8: `GroupBy(K' ; f(cells)) ∘ GPivot` ⇒
/// `Project(rename) ∘ GPivot' ∘ GroupBy(K'∪by ; f(measures))`.
///
/// Preconditions: grouping columns are K columns; the aggregate list covers
/// exactly groups × measures with one function per measure; the functions
/// ignore `⊥` and return `⊥` on all-`⊥` input (true for SUM/MIN/MAX here —
/// COUNT is refused because SQL count returns 0, not `⊥`; the paper notes
/// this exact caveat under Eq. 8).
pub fn pullup_through_group_by<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "pullup-groupby (Eq. 8)";
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
    let Plan::GPivot { input: x, spec } = input.as_ref() else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no GPivot directly under the GroupBy",
        ));
    };
    let k_cols = pivot_k_cols(x, spec, provider)?;
    if !group_by.iter().all(|g| k_cols.contains(g)) {
        return Err(na(
            RULE,
            DiagCode::Gp019GroupByOnCells,
            "grouping columns include pivoted output columns (§5.1.4: multi-value \
             grouping on a single source column is not expressible)",
        ));
    }

    // Match the aggregate list against groups × measures.
    // func_per_measure[j] = the aggregate function used for measure j.
    let mut func_per_measure: Vec<Option<gpivot_algebra::AggFunc>> = vec![None; spec.on.len()];
    // out_name[(gi, bj)] = original aggregate output name.
    let mut out_name: Vec<Vec<Option<String>>> = vec![vec![None; spec.on.len()]; spec.groups.len()];
    for a in aggs {
        use gpivot_algebra::AggFunc;
        match a.func {
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {}
            AggFunc::Count | AggFunc::CountStar | AggFunc::Avg => {
                return Err(na(
                    RULE,
                    DiagCode::Gp015AggNotBottomRespecting,
                    format!(
                        "aggregate {} does not return ⊥ on all-⊥ input (Eq. 8 requirement)",
                        a.func
                    ),
                ))
            }
        }
        let Some((gi, bj)) = resolve_cell(&a.input, spec) else {
            return Err(na(
                RULE,
                DiagCode::Gp015AggNotBottomRespecting,
                format!("aggregate input `{}` is not a pivoted cell", a.input),
            ));
        };
        match &func_per_measure[bj] {
            None => func_per_measure[bj] = Some(a.func),
            Some(f) if *f == a.func => {}
            Some(f) => {
                return Err(na(
                    RULE,
                    DiagCode::Gp015AggNotBottomRespecting,
                    format!(
                        "measure `{}` aggregated with both {f} and {}",
                        spec.on[bj], a.func
                    ),
                ))
            }
        }
        if out_name[gi][bj].replace(a.output.clone()).is_some() {
            return Err(na(
                RULE,
                DiagCode::Gp015AggNotBottomRespecting,
                format!("cell ({gi},{bj}) aggregated more than once"),
            ));
        }
    }
    // Coverage check: every (group, measure) cell aggregated exactly once.
    for (gi, row) in out_name.iter().enumerate() {
        for (bj, n) in row.iter().enumerate() {
            if n.is_none() {
                return Err(na(
                    RULE,
                    DiagCode::Gp015AggNotBottomRespecting,
                    format!(
                        "aggregate list does not cover cell `{}`",
                        spec.col_name(gi, bj)
                    ),
                ));
            }
            let _ = bj;
        }
        let _ = gi;
    }

    // Inner GROUPBY: group by K' ∪ by, aggregate each measure.
    let mut inner_group: Vec<&str> = group_by.iter().map(String::as_str).collect();
    inner_group.extend(spec.by.iter().map(String::as_str));
    let fresh_names: Vec<String> = spec
        .on
        .iter()
        .enumerate()
        .map(|(j, b)| format!("{}__{}", func_per_measure[j].expect("covered"), b))
        .collect();
    let inner_aggs: Vec<gpivot_algebra::AggSpec> = spec
        .on
        .iter()
        .enumerate()
        .map(|(j, b)| gpivot_algebra::AggSpec {
            func: func_per_measure[j].expect("covered"),
            input: b.clone(),
            output: fresh_names[j].clone(),
        })
        .collect();
    let grouped = x.as_ref().clone().group_by(&inner_group, inner_aggs);

    // Outer GPIVOT: same dimensions/groups, measures = the aggregates.
    let new_spec = PivotSpec {
        by: spec.by.clone(),
        on: fresh_names.clone(),
        groups: spec.groups.clone(),
    };

    // Rename to the original aggregate output names, in the original
    // GroupBy output order (group cols first, then aggs in listed order).
    let mut rename_items: Vec<(Expr, String)> =
        group_by.iter().map(|g| (Expr::col(g), g.clone())).collect();
    for a in aggs {
        let (gi, bj) = resolve_cell(&a.input, spec).expect("checked");
        let new_cell = gpivot_algebra::encode_pivot_col(&spec.groups[gi], &fresh_names[bj]);
        rename_items.push((Expr::col(new_cell), a.output.clone()));
    }
    let rewritten = grouped.gpivot(new_spec).project(rename_items);
    check(rewritten, provider, RULE)
}

/// Eq. 9: `GUnpivot(GPivot(V))` where the unpivot exactly reverses the
/// pivot ⇒ `Select(σs, V)` with σs = "dimensions are a listed group AND not
/// every measure is ⊥".
pub fn cancel_pivot_unpivot<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "cancel-gpivot-gunpivot (Eq. 9)";
    let Plan::GUnpivot {
        input,
        spec: unspec,
    } = plan
    else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            format!("top is {}, not GUnpivot", plan.op_name()),
        ));
    };
    let Plan::GPivot { input: v, spec } = input.as_ref() else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no GPivot directly under the GUnpivot",
        ));
    };
    let expected = gpivot_algebra::plan::UnpivotSpec::reversing(spec);
    // The unpivot must decode exactly the pivot's structure, and its output
    // columns must restore the original names.
    if unspec.groups != expected.groups
        || unspec.name_cols != spec.by
        || unspec.value_cols != spec.on
    {
        return Err(na(
            RULE,
            DiagCode::Gp022PivotUnpivotMismatch,
            "unpivot does not exactly reverse the pivot (partial use or renamed \
             outputs; see Fig. 12 cases 2-3)",
        ));
    }
    // σs: (A1..Am) ∈ groups AND (B1 IS NOT NULL OR ... OR Bn IS NOT NULL).
    let group_disj = Expr::disjunction(
        spec.groups
            .iter()
            .map(|g| group_predicate(spec, g))
            .collect(),
    );
    let not_all_null = Expr::disjunction(
        spec.on
            .iter()
            .map(|b| Expr::col(b).is_null().not())
            .collect(),
    );
    // Restore the GUnpivot output column order: K, name cols, value cols.
    let k_cols = pivot_k_cols(v, spec, provider)?;
    let mut order: Vec<String> = k_cols;
    order.extend(spec.by.iter().cloned());
    order.extend(spec.on.iter().cloned());
    let rewritten = v
        .as_ref()
        .clone()
        .select(group_disj.and(not_all_null))
        .project(order.iter().map(|c| (Expr::col(c), c.clone())).collect());
    check(rewritten, provider, RULE)
}

/// Eq. 10: `GUnpivot[G](GPivot(V))` with disjoint parameters (the unpivot
/// consumes only K columns of the pivot output) ⇒
/// `GPivot(GUnpivot[G](V))`.
pub fn swap_unpivot_below_pivot<P: SchemaProvider>(plan: &Plan, provider: &P) -> Result<Plan> {
    const RULE: &str = "swap-gunpivot-gpivot (Eq. 10)";
    let Plan::GUnpivot {
        input,
        spec: unspec,
    } = plan
    else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            format!("top is {}, not GUnpivot", plan.op_name()),
        ));
    };
    let Plan::GPivot { input: v, spec } = input.as_ref() else {
        return Err(na(
            RULE,
            DiagCode::Gp020RuleShapeMismatch,
            "no GPivot directly under the GUnpivot",
        ));
    };
    let cells: BTreeSet<String> = spec.output_col_names().into_iter().collect();
    let consumed: Vec<&String> = unspec.groups.iter().flat_map(|g| g.cols.iter()).collect();
    if consumed.iter().any(|c| cells.contains(*c)) {
        return Err(na(
            RULE,
            DiagCode::Gp022PivotUnpivotMismatch,
            "unpivot consumes pivoted output columns — parameters overlap (Fig. 12)",
        ));
    }
    let rewritten = v
        .as_ref()
        .clone()
        .gunpivot(unspec.clone())
        .gpivot(spec.clone());
    // Column order differs (GUnpivot moves its outputs to the end), so wrap
    // a permutation Project restoring the original order.
    let orig_schema = plan.schema(provider)?;
    let items: Vec<(Expr, String)> = orig_schema
        .column_names()
        .iter()
        .map(|c| (Expr::col(*c), c.to_string()))
        .collect();
    check(rewritten.project(items), provider, RULE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use gpivot_algebra::plan::PivotSpec;
    use gpivot_storage::{DataType, Schema, SchemaRef};
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
    fn rules_reject_wrong_top_operators() {
        let p = provider();
        let scan = Plan::scan("t");
        assert!(pullup_through_select(&scan, &p).is_err());
        assert!(pullup_through_join(&scan, &p).is_err());
        assert!(pullup_through_project(&scan, &p).is_err());
        assert!(pullup_through_group_by(&scan, &p).is_err());
        assert!(cancel_pivot_unpivot(&scan, &p).is_err());
        assert!(swap_unpivot_below_pivot(&scan, &p).is_err());
        assert!(push_select_below_pivot_selfjoin(&scan, &p).is_err());
    }

    #[test]
    fn selfjoin_pushdown_rejects_null_tolerant_predicates() {
        let p = provider();
        let plan = Plan::scan("t")
            .gpivot(spec())
            .select(Expr::col("x**b").is_null());
        assert!(matches!(
            push_select_below_pivot_selfjoin(&plan, &p),
            Err(CoreError::RuleNotApplicable { .. })
        ));
    }

    #[test]
    fn selfjoin_pushdown_rejects_pure_k_predicates() {
        let p = provider();
        let plan = Plan::scan("t")
            .gpivot(spec())
            .select(Expr::col("k").gt(Expr::lit(1)));
        // No cell atoms → the cheap pullup-select rule is the right tool.
        assert!(push_select_below_pivot_selfjoin(&plan, &p).is_err());
        assert!(pullup_through_select(&plan, &p).is_ok());
    }

    #[test]
    fn join_pullup_requires_inner_join() {
        let p = {
            let mut m = provider();
            m.insert(
                "d".to_string(),
                Arc::new(Schema::from_pairs_keyed(&[("dk", DataType::Int)], &["dk"]).unwrap()),
            );
            m
        };
        let plan = Plan::Join {
            left: Box::new(Plan::scan("t").gpivot(spec())),
            right: Box::new(Plan::scan("d")),
            kind: JoinKind::LeftOuter,
            on: vec![("k".into(), "dk".into())],
            residual: None,
        };
        assert!(pullup_through_join(&plan, &p).is_err());
    }

    #[test]
    fn groupby_pullup_reports_uncovered_cells() {
        let p = provider();
        // Aggregate only one of the two cells: coverage check must fire.
        let plan = Plan::scan("t")
            .gpivot(spec())
            .group_by(&["k"], vec![gpivot_algebra::AggSpec::sum("x**b", "s")]);
        let err = pullup_through_group_by(&plan, &p).unwrap_err();
        assert!(err.to_string().contains("does not cover"), "{err}");
    }
}
