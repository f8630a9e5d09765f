//! View matching: rewrite an ad-hoc query to scan a registered materialized
//! view when the view's plan **subsumes** the query.
//!
//! The matcher normalizes both the query and each view definition into
//!
//! ```text
//!   π[items]( σ[c1 ∧ … ∧ ck]( core ) )
//! ```
//!
//! by peeling Select/Project operators off the root and substituting
//! projection renames/computations into everything peeled above them, so
//! `items` and every conjunct are expressed over the *core* subtree's
//! columns. A view `π[V](σ[Q](X))` answers a query `π[S](σ[P](X))` when
//!
//! 1. the cores are structurally identical plans (`Plan: PartialEq`),
//! 2. every view conjunct in `Q` is either structurally present in `P` or
//!    implied by `P`'s literal equality bindings (degenerate FDs `col → val`
//!    const-folded through three-valued logic), and
//! 3. the compensation — the residual predicates `P ∖ Q` and the output
//!    items `S` — can be re-expressed over the view's output columns.
//!
//! Both σ and π compensation are per-row and bag-preserving, so a match is
//! sound under the engine's bag semantics with no key reasoning; the view's
//! output schema and key (used for the final schema sanity gate and the
//! EXPLAIN annotation) come from `gpivot_analyze::derive_facts`. Compensation
//! through aggregates, joins, or pivots is *not* attempted — see DESIGN.md
//! §4e for why (it would need the paper's rollup machinery).

use gpivot_algebra::{CmpOp, Expr, Plan, SchemaProvider};
use gpivot_analyze::derive_facts;
use gpivot_storage::{SchemaRef, Value};
use std::collections::BTreeMap;

/// A successful match: execute `plan` (which scans `view` as a table)
/// instead of the original query.
#[derive(Debug, Clone)]
pub struct RewriteHit {
    /// Name of the matched view; `plan` contains `Scan { table: view }`.
    pub view: String,
    /// The compensated plan over the view's materialized table.
    pub plan: Plan,
    /// Residual predicates applied on top of the view (0 = exact predicate
    /// match).
    pub residual_predicates: usize,
    /// Whether a compensating projection was added.
    pub compensating_project: bool,
    /// The view output's inferred key, if the analyzer derived one.
    pub view_key: Option<Vec<String>>,
    /// The view's output schema (schema of its materialized table).
    pub view_schema: SchemaRef,
}

/// The σ/π normal form over an opaque core subtree.
struct Normalized<'a> {
    core: &'a Plan,
    /// Output items over core columns; `None` = the core's own output.
    items: Option<Vec<(Expr, String)>>,
    /// Conjuncts over core columns.
    conjuncts: Vec<Expr>,
}

/// Substitute column references through a projection's item list; fails if
/// a referenced column is not produced by the projection.
fn substitute(e: &Expr, items: &[(Expr, String)]) -> Option<Expr> {
    match e {
        Expr::Col(c) => items
            .iter()
            .find(|(_, n)| n == c)
            .map(|(expr, _)| expr.clone()),
        Expr::Lit(_) => Some(e.clone()),
        Expr::Cmp(op, a, b) => Some(Expr::Cmp(
            *op,
            Box::new(substitute(a, items)?),
            Box::new(substitute(b, items)?),
        )),
        Expr::Bin(op, a, b) => Some(Expr::Bin(
            *op,
            Box::new(substitute(a, items)?),
            Box::new(substitute(b, items)?),
        )),
        Expr::And(a, b) => Some(Expr::And(
            Box::new(substitute(a, items)?),
            Box::new(substitute(b, items)?),
        )),
        Expr::Or(a, b) => Some(Expr::Or(
            Box::new(substitute(a, items)?),
            Box::new(substitute(b, items)?),
        )),
        Expr::Not(a) => Some(Expr::Not(Box::new(substitute(a, items)?))),
        Expr::IsNull(a) => Some(Expr::IsNull(Box::new(substitute(a, items)?))),
        Expr::InList(a, vs) => Some(Expr::InList(Box::new(substitute(a, items)?), vs.clone())),
        Expr::Case {
            branches,
            otherwise,
        } => {
            let mut bs = Vec::with_capacity(branches.len());
            for (c, v) in branches {
                bs.push((substitute(c, items)?, substitute(v, items)?));
            }
            Some(Expr::Case {
                branches: bs,
                otherwise: Box::new(substitute(otherwise, items)?),
            })
        }
    }
}

/// Peel root Select/Project operators into the σ/π normal form.
fn decompose(plan: &Plan) -> Normalized<'_> {
    let mut items: Option<Vec<(Expr, String)>> = None;
    let mut conjuncts: Vec<Expr> = Vec::new();
    let mut node = plan;
    loop {
        match node {
            Plan::Select { input, predicate } => {
                conjuncts.extend(predicate.conjuncts());
                node = input;
            }
            Plan::Project {
                input,
                items: pitems,
            } => {
                // Everything accumulated so far references this projection's
                // output names; rewrite it over the projection's input.
                let mut ok = true;
                let new_conjuncts: Vec<Expr> = conjuncts
                    .iter()
                    .map_while(|c| {
                        let s = substitute(c, pitems);
                        ok &= s.is_some();
                        s
                    })
                    .collect();
                let new_items = match &items {
                    None => Some(pitems.clone()),
                    Some(cur) => {
                        let mut out = Vec::with_capacity(cur.len());
                        for (e, n) in cur {
                            match substitute(e, pitems) {
                                Some(s) => out.push((s, n.clone())),
                                None => {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        Some(out)
                    }
                };
                if !ok {
                    break;
                }
                conjuncts = new_conjuncts;
                items = new_items;
                node = input;
            }
            _ => break,
        }
    }
    Normalized {
        core: node,
        items,
        conjuncts,
    }
}

// ---- literal implication ---------------------------------------------------

/// `col = literal` bindings from a conjunct set (degenerate FDs).
fn equality_bindings(conjuncts: &[Expr]) -> BTreeMap<String, Value> {
    let mut out = BTreeMap::new();
    for c in conjuncts {
        if let Expr::Cmp(CmpOp::Eq, a, b) = c {
            match (a.as_ref(), b.as_ref()) {
                (Expr::Col(col), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(col)) => {
                    out.entry(col.clone()).or_insert_with(|| v.clone());
                }
                _ => {}
            }
        }
    }
    out
}

/// Three-valued constant folding over an expression whose columns have all
/// been substituted with literals. `None` = unknown.
///
/// Comparisons go through [`Value::compare`] — the *same* total order the
/// executor's `BoundExpr::Cmp` evaluates — so a subsumption decision folded
/// here can never disagree with what the kernels would compute. (A previous
/// local re-implementation compared Int/Float via a raw `as f64` cast and
/// `partial_cmp`, which diverged from the executor on NaN, -0.0, and
/// integers beyond 2⁵³, silently matching views that do not contain the
/// query's rows.)
fn fold(e: &Expr) -> Option<bool> {
    match e {
        Expr::Lit(Value::Bool(b)) => Some(*b),
        Expr::Lit(Value::Null) => None,
        Expr::Cmp(op, a, b) => {
            let (Expr::Lit(va), Expr::Lit(vb)) = (a.as_ref(), b.as_ref()) else {
                return None;
            };
            // `compare` is three-valued: NULL operands yield None (unknown).
            let ord = va.compare(vb)?;
            Some(match op {
                CmpOp::Eq => ord.is_eq(),
                CmpOp::Ne => !ord.is_eq(),
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Ge => ord.is_ge(),
            })
        }
        Expr::And(a, b) => match (fold(a), fold(b)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Expr::Or(a, b) => match (fold(a), fold(b)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Expr::Not(a) => fold(a).map(|b| !b),
        Expr::IsNull(a) => match a.as_ref() {
            Expr::Lit(v) => Some(matches!(v, Value::Null)),
            _ => None,
        },
        Expr::InList(a, vs) => {
            let Expr::Lit(v) = a.as_ref() else {
                return None;
            };
            if matches!(v, Value::Null) {
                return None;
            }
            // Mirror the executor's `vs.contains(&v)`: total `Value` equality.
            Some(vs.contains(v))
        }
        _ => None,
    }
}

/// Is the view conjunct `q` implied by the query's literal bindings?
fn implied_by_bindings(q: &Expr, bindings: &BTreeMap<String, Value>) -> bool {
    // Substitute every column; any unbound column defeats the implication.
    let items: Vec<(Expr, String)> = bindings
        .iter()
        .map(|(c, v)| (Expr::Lit(v.clone()), c.clone()))
        .collect();
    match substitute(q, &items) {
        Some(folded) => fold(&folded) == Some(true),
        None => false,
    }
}

// ---- compensation ----------------------------------------------------------

/// Re-express a core-level expression over the view's output columns:
/// whole-expression matches against view items win (so a view's computed
/// column satisfies the same computation in the query), then column-by-
/// column renames.
fn over_view(e: &Expr, view_items: Option<&[(Expr, String)]>) -> Option<Expr> {
    let Some(vitems) = view_items else {
        // View outputs the core's own columns: identity.
        return Some(e.clone());
    };
    if let Some((_, n)) = vitems.iter().find(|(ve, _)| ve == e) {
        return Some(Expr::col(n.clone()));
    }
    match e {
        Expr::Col(_) => None, // not exposed by the view
        Expr::Lit(_) => Some(e.clone()),
        Expr::Cmp(op, a, b) => Some(Expr::Cmp(
            *op,
            Box::new(over_view(a, view_items)?),
            Box::new(over_view(b, view_items)?),
        )),
        Expr::Bin(op, a, b) => Some(Expr::Bin(
            *op,
            Box::new(over_view(a, view_items)?),
            Box::new(over_view(b, view_items)?),
        )),
        Expr::And(a, b) => Some(Expr::And(
            Box::new(over_view(a, view_items)?),
            Box::new(over_view(b, view_items)?),
        )),
        Expr::Or(a, b) => Some(Expr::Or(
            Box::new(over_view(a, view_items)?),
            Box::new(over_view(b, view_items)?),
        )),
        Expr::Not(a) => Some(Expr::Not(Box::new(over_view(a, view_items)?))),
        Expr::IsNull(a) => Some(Expr::IsNull(Box::new(over_view(a, view_items)?))),
        Expr::InList(a, vs) => Some(Expr::InList(
            Box::new(over_view(a, view_items)?),
            vs.clone(),
        )),
        Expr::Case {
            branches,
            otherwise,
        } => {
            let mut bs = Vec::with_capacity(branches.len());
            for (c, v) in branches {
                bs.push((over_view(c, view_items)?, over_view(v, view_items)?));
            }
            Some(Expr::Case {
                branches: bs,
                otherwise: Box::new(over_view(otherwise, view_items)?),
            })
        }
    }
}

/// Try to rewrite `query` to read from one of `views` (name, definition).
/// `provider` supplies base-table schemas (for facts and the schema sanity
/// gate). Returns the best hit — fewest residual predicates, then no
/// compensating projection, then name order — or `None`.
pub fn rewrite<P: SchemaProvider>(
    query: &Plan,
    views: &[(String, Plan)],
    provider: &P,
) -> Option<RewriteHit> {
    let qn = decompose(query);
    let query_schema = query.schema(provider).ok()?;
    let mut best: Option<RewriteHit> = None;
    for (name, def) in views {
        let Some(hit) = try_match(&qn, name, def, provider, &query_schema) else {
            continue;
        };
        let better = match &best {
            None => true,
            Some(b) => {
                (hit.residual_predicates, hit.compensating_project, &hit.view)
                    < (b.residual_predicates, b.compensating_project, &b.view)
            }
        };
        if better {
            best = Some(hit);
        }
    }
    best
}

fn try_match<P: SchemaProvider>(
    qn: &Normalized<'_>,
    name: &str,
    def: &Plan,
    provider: &P,
    query_schema: &SchemaRef,
) -> Option<RewriteHit> {
    let vn = decompose(def);
    if qn.core != vn.core {
        return None;
    }
    // Predicate containment: every view conjunct must be matched or implied.
    let bindings = equality_bindings(&qn.conjuncts);
    let mut absorbed = vec![false; qn.conjuncts.len()];
    for q in &vn.conjuncts {
        match qn.conjuncts.iter().position(|p| p == q) {
            Some(i) => absorbed[i] = true,
            None if implied_by_bindings(q, &bindings) => {}
            None => return None,
        }
    }
    let residual: Vec<&Expr> = qn
        .conjuncts
        .iter()
        .zip(&absorbed)
        .filter(|(_, a)| !**a)
        .map(|(c, _)| c)
        .collect();
    // The view's output schema and key, from the analyzer's fact lattice.
    let vfacts = derive_facts(def, provider);
    let view_schema = vfacts.schema.clone()?;
    let view_items = vn.items.as_deref();
    // Compensating predicates over the view's columns.
    let comp_preds: Option<Vec<Expr>> = residual.iter().map(|c| over_view(c, view_items)).collect();
    let comp_preds = comp_preds?;
    // Compensating projection over the view's columns.
    let comp_items: Option<Vec<(Expr, String)>> = match (&qn.items, view_items) {
        // Query and view both output the core directly.
        (None, None) => None,
        // Query wants the core's own output; the view renamed/projected it.
        // Re-derive the core schema and map each core column back.
        (None, Some(_)) => {
            let core_schema = qn.core.schema(provider).ok()?;
            let mut out = Vec::with_capacity(core_schema.arity());
            for i in 0..core_schema.arity() {
                let col = core_schema.field_at(i).name.clone();
                let e = over_view(&Expr::col(col.clone()), view_items)?;
                out.push((e, col));
            }
            // Pure identity (view kept names and order) needs no projection.
            if out.iter().all(|(e, n)| matches!(e, Expr::Col(c) if c == n))
                && view_schema.arity() == out.len()
            {
                None
            } else {
                Some(out)
            }
        }
        (Some(qitems), _) => {
            let mut out = Vec::with_capacity(qitems.len());
            for (e, n) in qitems {
                out.push((over_view(e, view_items)?, n.clone()));
            }
            Some(out)
        }
    };
    // Assemble: σ then π over the view scan.
    let mut plan = Plan::scan(name);
    let residual_predicates = comp_preds.len();
    if !comp_preds.is_empty() {
        plan = plan.select(Expr::conjunction(comp_preds));
    }
    let compensating_project = comp_items.is_some();
    if let Some(items) = comp_items {
        plan = plan.project(items);
    }
    // Schema sanity gate: the compensated plan, typed over the view's
    // schema, must reproduce the query's output schema exactly. Reject
    // (falling back to base-table execution) on any mismatch.
    let mut vp: BTreeMap<String, SchemaRef> = BTreeMap::new();
    vp.insert(name.to_string(), view_schema.clone());
    let comp_schema = plan.schema(&vp).ok()?;
    if comp_schema.arity() != query_schema.arity() {
        return None;
    }
    for i in 0..comp_schema.arity() {
        let a = comp_schema.field_at(i);
        let b = query_schema.field_at(i);
        if a.name != b.name || a.data_type != b.data_type {
            return None;
        }
    }
    Some(RewriteHit {
        view: name.to_string(),
        plan,
        residual_predicates,
        compensating_project,
        view_key: vfacts.key.clone(),
        view_schema,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_storage::{DataType, Schema};
    use std::sync::Arc;

    fn provider() -> BTreeMap<String, SchemaRef> {
        let mut m = BTreeMap::new();
        m.insert(
            "t".to_string(),
            Arc::new(
                Schema::from_pairs_keyed(
                    &[
                        ("id", DataType::Int),
                        ("region", DataType::Str),
                        ("amount", DataType::Float),
                    ],
                    &["id"],
                )
                .unwrap(),
            ),
        );
        m
    }

    fn views() -> Vec<(String, Plan)> {
        vec![
            ("all_rows".into(), Plan::scan("t")),
            (
                "east".into(),
                Plan::scan("t").select(Expr::col("region").eq(Expr::lit("east"))),
            ),
            (
                "slim".into(),
                Plan::scan("t").project(vec![
                    (Expr::col("id"), "key".into()),
                    (Expr::col("amount"), "amount".into()),
                ]),
            ),
        ]
    }

    #[test]
    fn exact_match_needs_no_compensation() {
        let q = Plan::scan("t");
        let hit = rewrite(&q, &views(), &provider()).unwrap();
        assert_eq!(hit.view, "all_rows");
        assert_eq!(hit.residual_predicates, 0);
        assert!(!hit.compensating_project);
        assert_eq!(hit.plan, Plan::scan("all_rows"));
    }

    #[test]
    fn conjunct_subset_leaves_residual() {
        let q = Plan::scan("t").select(
            Expr::col("region")
                .eq(Expr::lit("east"))
                .and(Expr::col("amount").gt(Expr::lit(10.0))),
        );
        let hit = rewrite(&q, &views(), &provider()).unwrap();
        // `east` absorbs one conjunct; `all_rows` would need both. Fewest
        // residual predicates wins.
        assert_eq!(hit.view, "east");
        assert_eq!(hit.residual_predicates, 1);
    }

    #[test]
    fn literal_binding_implies_view_predicate() {
        // Query pins region = 'east'; the view's σ[region = 'east'] is
        // implied even though we keep the query's own conjunct as residual.
        let q = Plan::scan("t").select(
            Expr::col("region")
                .eq(Expr::lit("east"))
                .and(Expr::col("region").is_null().not()),
        );
        let hit = rewrite(&q, &views(), &provider()).unwrap();
        assert_eq!(hit.view, "east");
    }

    #[test]
    fn projection_rename_is_compensated() {
        let q = Plan::scan("t").project(vec![(Expr::col("amount"), "amount".into())]);
        let hit = rewrite(&q, &views(), &provider()).unwrap();
        // Both `all_rows` and `slim` subsume; tie on residuals+projection
        // resolves by name order.
        assert_eq!(hit.view, "all_rows");
        assert!(hit.compensating_project);
        // Against `slim` only, the rename key→id is exercised:
        let slim_only: Vec<(String, Plan)> =
            views().into_iter().filter(|(n, _)| n == "slim").collect();
        let hit = rewrite(&q, &slim_only, &provider()).unwrap();
        assert_eq!(hit.view, "slim");
        assert_eq!(
            hit.plan,
            Plan::scan("slim").project(vec![(Expr::col("amount"), "amount".into())])
        );
    }

    #[test]
    fn view_predicate_not_in_query_rejects() {
        let q = Plan::scan("t").select(Expr::col("amount").gt(Expr::lit(10.0)));
        let east_only: Vec<(String, Plan)> =
            views().into_iter().filter(|(n, _)| n == "east").collect();
        assert!(rewrite(&q, &east_only, &provider()).is_none());
    }

    #[test]
    fn large_int_literal_does_not_falsely_imply_float_view_predicate() {
        // Pre-fix, the rewriter compared Int(2^53 + 1) to Float(2^53) by
        // casting the int through f64 — which rounds to exactly 2^53 — and
        // folded the implication to true, serving the query from a view
        // that does not contain its rows.
        let p53 = 1i64 << 53;
        let views = vec![(
            "big_eq".to_string(),
            Plan::scan("t").select(Expr::col("amount").eq(Expr::lit(p53 as f64))),
        )];
        let q = Plan::scan("t").select(Expr::col("amount").eq(Expr::lit(p53 + 1)));
        assert!(
            rewrite(&q, &views, &provider()).is_none(),
            "Int(2^53+1) must not imply amount = Float(2^53)"
        );
        // The exactly-representable neighbour is genuinely implied:
        // Int(2^53) == Float(2^53) under the executor's order.
        let q = Plan::scan("t").select(Expr::col("amount").eq(Expr::lit(p53)));
        assert_eq!(rewrite(&q, &views, &provider()).unwrap().view, "big_eq");
    }

    #[test]
    fn nan_binding_folds_like_the_executor_total_order() {
        // The executor evaluates comparisons with Value::compare, under
        // which NaN normalizes above every finite float — so rows with
        // amount = NaN *do* satisfy σ[amount > 0.0]. Pre-fix the rewriter
        // folded NaN comparisons through partial_cmp (unknown) and missed
        // this valid rewrite.
        let views = vec![(
            "pos".to_string(),
            Plan::scan("t").select(Expr::col("amount").gt(Expr::lit(0.0))),
        )];
        let q = Plan::scan("t").select(Expr::col("amount").eq(Expr::lit(f64::NAN)));
        let hit = rewrite(&q, &views, &provider()).unwrap();
        assert_eq!(hit.view, "pos");
    }

    #[test]
    fn negative_zero_binding_agrees_with_normalized_order() {
        // -0.0 == 0.0 under the executor's normalized total order: a
        // -0.0 binding satisfies σ[amount >= 0.0] but not σ[amount < 0.0].
        let q = Plan::scan("t").select(Expr::col("amount").eq(Expr::lit(-0.0)));
        let ge = vec![(
            "ge0".to_string(),
            Plan::scan("t").select(Expr::col("amount").ge(Expr::lit(0.0))),
        )];
        assert_eq!(rewrite(&q, &ge, &provider()).unwrap().view, "ge0");
        let lt = vec![(
            "lt0".to_string(),
            Plan::scan("t").select(Expr::col("amount").lt(Expr::lit(0.0))),
        )];
        assert!(rewrite(&q, &lt, &provider()).is_none());
    }

    #[test]
    fn dropped_column_rejects() {
        // `slim` lost `region`; a query needing it cannot be served.
        let q = Plan::scan("t").project(vec![(Expr::col("region"), "region".into())]);
        let slim_only: Vec<(String, Plan)> =
            views().into_iter().filter(|(n, _)| n == "slim").collect();
        assert!(rewrite(&q, &slim_only, &provider()).is_none());
    }
}
