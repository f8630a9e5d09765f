//! Combined update propagation rules for **GPIVOT over GROUPBY** (Fig. 27).
//!
//! For an aggregate crosstab view `GPivot(GroupBy(core))`, the naive route
//! propagates through the GROUPBY with insert/delete rules (recomputing
//! affected groups) and then merges. The combined rules instead aggregate
//! the *core delta* directly and fold the per-subgroup aggregate deltas
//! into the view cells:
//!
//! * subgroup absent + positive count delta → the cell is born;
//! * subgroup present → `SUM` cells add, `COUNT` cells add;
//! * a subgroup whose `count(*)` reaches 0 ⊥-s out all its cells;
//! * a row whose cells are all ⊥ is deleted.
//!
//! Correctness requires a `count(*)` measure per subgroup and, for exact
//! NULL behaviour of `SUM(col)`, a companion `count(col)`; the view
//! manager auto-adds both as hidden measures (the paper does the same in
//! Fig. 28: "we also need to add COUNT(*) into the view definition").

use crate::error::{CoreError, Result};
use crate::maintain::apply::{blank_row, merge_key, ApplyStats, RowOp};
use gpivot_algebra::{AggFunc, AggSpec, PivotSpec};
use gpivot_storage::{Row, Schema, Table, Value};
use std::collections::HashMap;

/// How each pivot measure of a group-pivot view is maintained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeasureRole {
    /// `count(*)` — the subgroup liveness counter.
    CountStar,
    /// `count(col)`.
    Count,
    /// `sum(col)`; `count_partner` is the measure index of its
    /// `count(col)` companion (for exact NULL handling).
    Sum { count_partner: usize },
}

/// Compile-time description of a `GPivot(GroupBy(core))` view for the
/// Fig. 27 rules.
#[derive(Debug, Clone)]
pub struct GroupPivotInfo {
    /// GROUPBY grouping columns (`K' ∪ by`), in GROUPBY order.
    pub group_by: Vec<String>,
    /// Inner aggregates, aligned 1:1 with `spec.on`.
    pub aggs: Vec<AggSpec>,
    /// Role of each measure, aligned 1:1 with `spec.on`.
    pub roles: Vec<MeasureRole>,
    /// Index (into `spec.on`) of the `count(*)` measure.
    pub count_star_idx: usize,
}

impl GroupPivotInfo {
    /// Derive the info from a view's GROUPBY parameters and pivot spec.
    /// Fails unless every pivoted measure is SUM / COUNT / COUNT(*), a
    /// `count(*)` is among them, and every SUM has a `count(col)` partner.
    pub fn derive(group_by: &[String], aggs: &[AggSpec], spec: &PivotSpec) -> Result<Self> {
        let not_applicable = |reason: String| CoreError::StrategyNotApplicable {
            strategy: "group-pivot-update (Fig. 27)".into(),
            reason,
        };
        // Align aggregates with spec.on.
        let mut aligned = Vec::with_capacity(spec.on.len());
        for on in &spec.on {
            let agg = aggs.iter().find(|a| &a.output == on).ok_or_else(|| {
                not_applicable(format!("pivot measure `{on}` is not an aggregate output"))
            })?;
            aligned.push(agg.clone());
        }
        let mut roles = Vec::with_capacity(aligned.len());
        let mut count_star_idx = None;
        for (i, a) in aligned.iter().enumerate() {
            match a.func {
                AggFunc::CountStar => {
                    roles.push(MeasureRole::CountStar);
                    if count_star_idx.is_none() {
                        count_star_idx = Some(i);
                    }
                }
                AggFunc::Count => roles.push(MeasureRole::Count),
                AggFunc::Sum => {
                    let partner = aligned
                        .iter()
                        .position(|b| b.func == AggFunc::Count && b.input == a.input)
                        .ok_or_else(|| {
                            not_applicable(format!(
                                "sum(`{}`) has no count(`{}`) companion measure",
                                a.input, a.input
                            ))
                        })?;
                    roles.push(MeasureRole::Sum {
                        count_partner: partner,
                    });
                }
                other => {
                    return Err(not_applicable(format!(
                        "aggregate {other} is not self-maintainable under Fig. 27 \
                         (paper restricts to SUM and COUNT)"
                    )))
                }
            }
        }
        let count_star_idx = count_star_idx
            .ok_or_else(|| not_applicable("no count(*) measure in the view".into()))?;
        Ok(GroupPivotInfo {
            group_by: group_by.to_vec(),
            aggs: aligned,
            roles,
            count_star_idx,
        })
    }
}

/// Aggregate a core delta into per-(K'∪by)-group signed aggregate deltas.
/// The aggregates are sums, so `delta_core` is taken as it comes: equal
/// rows may repeat, and their contributions add like their weights would.
///
/// Returns, per group key, one value per measure: SUM → the signed sum of
/// non-NULL contributions (NULL when none), COUNT → the signed count of
/// non-NULL contributions, COUNT(*) → the signed row count.
pub fn aggregate_delta(
    delta_core: &[(Row, i64)],
    core_schema: &Schema,
    info: &GroupPivotInfo,
) -> Result<HashMap<Row, Vec<Value>>> {
    let group_idx: Vec<usize> = info
        .group_by
        .iter()
        .map(|g| core_schema.index_of(g))
        .collect::<gpivot_storage::Result<_>>()?;
    let agg_idx: Vec<Option<usize>> = info
        .aggs
        .iter()
        .map(|a| {
            if a.func == AggFunc::CountStar {
                Ok(None)
            } else {
                core_schema.index_of(&a.input).map(Some)
            }
        })
        .collect::<gpivot_storage::Result<_>>()?;

    #[derive(Clone)]
    enum Acc {
        Sum { acc: Value },
        Count { n: i64 },
    }
    let mut groups: HashMap<Row, Vec<Acc>> = HashMap::new();
    for (row, w) in delta_core.iter().map(|(r, w)| (r, *w)) {
        let key = row.project(&group_idx);
        let states = groups.entry(key).or_insert_with(|| {
            info.aggs
                .iter()
                .map(|a| match a.func {
                    AggFunc::Sum => Acc::Sum { acc: Value::Null },
                    _ => Acc::Count { n: 0 },
                })
                .collect()
        });
        for ((state, idx), agg) in states.iter_mut().zip(&agg_idx).zip(&info.aggs) {
            match state {
                Acc::Sum { acc } => {
                    let v = &row[idx.expect("sum has input")];
                    if !v.is_null() {
                        let contribution = scale(v, w);
                        *acc = if acc.is_null() {
                            contribution
                        } else {
                            acc.numeric_add(&contribution)
                        };
                    }
                }
                Acc::Count { n } => match agg.func {
                    AggFunc::CountStar => *n += w,
                    _ => {
                        if !row[idx.expect("count has input")].is_null() {
                            *n += w;
                        }
                    }
                },
            }
        }
    }
    Ok(groups
        .into_iter()
        .map(|(k, states)| {
            let vals = states
                .into_iter()
                .map(|s| match s {
                    Acc::Sum { acc } => acc,
                    Acc::Count { n } => Value::Int(n),
                })
                .collect();
            (k, vals)
        })
        .collect())
}

/// Multiply a numeric value by a signed weight.
fn scale(v: &Value, w: i64) -> Value {
    match v {
        Value::Int(i) => Value::Int(i * w),
        Value::Float(f) => Value::Float(f * w as f64),
        _ => Value::Null,
    }
}

/// The Fig. 27 combined update rules: fold `delta_core` (signed rows over
/// the GROUPBY *input*, not necessarily consolidated) into the crosstab materialized view — as a patch
/// against `mv`, which is left untouched (`apply_row_ops` installs it).
pub fn plan_group_pivot_update(
    mv: &Table,
    spec: &PivotSpec,
    info: &GroupPivotInfo,
    core_schema: &Schema,
    delta_core: &[(Row, i64)],
) -> Result<(Vec<RowOp>, ApplyStats)> {
    let n_on = spec.on.len();
    // K' = grouping columns that are not pivot dimensions, in GROUPBY
    // order — these are the view key columns.
    let kp_positions: Vec<usize> = info
        .group_by
        .iter()
        .enumerate()
        .filter(|(_, g)| !spec.by.contains(g))
        .map(|(i, _)| i)
        .collect();
    let by_positions: Vec<usize> = spec
        .by
        .iter()
        .map(|b| {
            info.group_by
                .iter()
                .position(|g| g == b)
                .expect("pivot dimension is a grouping column")
        })
        .collect();
    let n_k = kp_positions.len();
    let width = n_k + spec.groups.len() * n_on;
    if mv.schema().arity() != width {
        return Err(CoreError::StrategyNotApplicable {
            strategy: "group-pivot-update (Fig. 27)".into(),
            reason: format!(
                "materialized view arity {} does not match layout width {width}",
                mv.schema().arity()
            ),
        });
    }

    let agg_deltas = aggregate_delta(delta_core, core_schema, info)?;

    // Regroup by view key.
    let mut by_view_key: HashMap<Row, Vec<(usize, Vec<Value>)>> = HashMap::new();
    for (group_key, vals) in agg_deltas {
        let tags: Vec<Value> = by_positions.iter().map(|&i| group_key[i].clone()).collect();
        let Some(gi) = spec.group_index(&tags) else {
            continue; // subgroup outside the pivot's output parameters
        };
        let view_key = group_key.project(&kp_positions);
        by_view_key.entry(view_key).or_default().push((gi, vals));
    }

    let mut stats = ApplyStats::default();
    let mut ops = Vec::with_capacity(by_view_key.len());
    for (key, subgroups) in by_view_key {
        let existing = mv.get_by_key(&key);
        let mut cells: Vec<Value> = match existing {
            Some(row) => row.to_vec(),
            None => blank_row(&key, width),
        };
        for (gi, deltas) in subgroups {
            let base = n_k + gi * n_on;
            let old_cs = &cells[base + info.count_star_idx];
            let delta_cs = deltas[info.count_star_idx]
                .as_i64()
                .expect("count(*) delta is an integer");
            if old_cs.is_null() {
                // Subgroup absent: born iff the delta inserts rows.
                if delta_cs > 0 {
                    for (j, role) in info.roles.iter().enumerate() {
                        cells[base + j] = match role {
                            MeasureRole::CountStar | MeasureRole::Count => deltas[j].clone(),
                            MeasureRole::Sum { count_partner } => {
                                if deltas[*count_partner].as_i64() == Some(0) {
                                    Value::Null
                                } else {
                                    deltas[j].clone()
                                }
                            }
                        };
                    }
                }
                // delta_cs <= 0 against an absent subgroup: inconsistent
                // input; ignore.
                continue;
            }
            let new_cs = old_cs.as_i64().expect("count(*) cell is an integer") + delta_cs;
            if new_cs == 0 {
                // Subgroup dies: ⊥ out every cell with this prefix.
                for j in 0..n_on {
                    cells[base + j] = Value::Null;
                }
                continue;
            }
            // Subgroup lives: merge each measure.
            // Counts first so SUM can consult its partner's *new* value.
            let mut new_cells = cells[base..base + n_on].to_vec();
            for (j, role) in info.roles.iter().enumerate() {
                match role {
                    MeasureRole::CountStar => new_cells[j] = Value::Int(new_cs),
                    MeasureRole::Count => {
                        let old = cells[base + j].as_i64().unwrap_or(0);
                        let d = deltas[j].as_i64().unwrap_or(0);
                        new_cells[j] = Value::Int(old + d);
                    }
                    MeasureRole::Sum { .. } => {}
                }
            }
            for (j, role) in info.roles.iter().enumerate() {
                if let MeasureRole::Sum { count_partner } = role {
                    let n_nonnull = new_cells[*count_partner]
                        .as_i64()
                        .expect("count cell is an integer");
                    new_cells[j] = if n_nonnull == 0 {
                        Value::Null
                    } else {
                        match (&cells[base + j], &deltas[j]) {
                            (Value::Null, d) => d.clone(),
                            (old, Value::Null) => old.clone(),
                            (old, d) => old.numeric_add(d),
                        }
                    };
                }
            }
            cells[base..base + n_on].clone_from_slice(&new_cells);
        }

        let existed = existing.is_some();
        merge_key(&mut ops, &mut stats, key, cells, n_k, existed, |_| true);
    }
    Ok((ops, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::apply::apply_row_ops;
    use crate::maintain::delta_prop::consolidate;
    use gpivot_storage::{row, DataType, Delta};
    use std::sync::Arc;

    /// A delta as the signed rows the apply rules take.
    fn signed(d: &Delta) -> Vec<(Row, i64)> {
        d.iter().map(|(r, &w)| (r.clone(), w)).collect()
    }

    /// Plan the Fig. 27 fold and apply it in place.
    fn apply_group_pivot_update(
        mv: &mut Table,
        spec: &PivotSpec,
        info: &GroupPivotInfo,
        core_schema: &Schema,
        delta_core: &[(Row, i64)],
    ) -> Result<ApplyStats> {
        let (ops, stats) = plan_group_pivot_update(mv, spec, info, core_schema, delta_core)?;
        apply_row_ops(mv, ops, None);
        Ok(stats)
    }

    /// Core: (cust, year, price); GroupBy(cust, year; sum, cnt_price, cnt*).
    fn core_schema() -> Schema {
        Schema::from_pairs(&[
            ("cust", DataType::Str),
            ("year", DataType::Int),
            ("price", DataType::Int),
        ])
        .unwrap()
    }

    fn spec() -> PivotSpec {
        PivotSpec::new(
            vec!["year"],
            vec!["s", "c", "n"],
            vec![vec![Value::Int(1995)], vec![Value::Int(1996)]],
        )
    }

    fn info() -> GroupPivotInfo {
        GroupPivotInfo::derive(
            &["cust".into(), "year".into()],
            &[
                AggSpec::sum("price", "s"),
                AggSpec::count("price", "c"),
                AggSpec::count_star("n"),
            ],
            &spec(),
        )
        .unwrap()
    }

    /// MV layout: cust, 1995**{s,c,n}, 1996**{s,c,n}.
    fn mv() -> Table {
        let mut s = Schema::from_pairs(&[
            ("cust", DataType::Str),
            ("1995**s", DataType::Int),
            ("1995**c", DataType::Int),
            ("1995**n", DataType::Int),
            ("1996**s", DataType::Int),
            ("1996**c", DataType::Int),
            ("1996**n", DataType::Int),
        ])
        .unwrap();
        s.set_key(vec![0]);
        Table::from_rows(
            Arc::new(s),
            vec![
                row!["alice", 100, 2, 2, 50, 1, 1],
                Row::new(vec![
                    Value::str("bob"),
                    Value::Int(30),
                    Value::Int(1),
                    Value::Int(1),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn derive_requires_count_star() {
        let r = GroupPivotInfo::derive(
            &["cust".into(), "year".into()],
            &[AggSpec::sum("price", "s"), AggSpec::count("price", "c")],
            &PivotSpec::new(vec!["year"], vec!["s", "c"], vec![vec![Value::Int(1995)]]),
        );
        assert!(r.is_err());
    }

    #[test]
    fn derive_requires_sum_partner() {
        let r = GroupPivotInfo::derive(
            &["cust".into(), "year".into()],
            &[AggSpec::sum("price", "s"), AggSpec::count_star("n")],
            &PivotSpec::new(vec!["year"], vec!["s", "n"], vec![vec![Value::Int(1995)]]),
        );
        assert!(r.is_err());
    }

    #[test]
    fn insert_adds_to_existing_cell() {
        let mut t = mv();
        let d = Delta::from_inserts(vec![row!["alice", 1995, 25]]);
        let stats = apply_group_pivot_update(&mut t, &spec(), &info(), &core_schema(), &signed(&d))
            .unwrap();
        assert_eq!(stats.updated, 1);
        let r = t.get_by_key(&row!["alice"]).unwrap();
        assert_eq!(r[1], Value::Int(125));
        assert_eq!(r[2], Value::Int(3));
        assert_eq!(r[3], Value::Int(3));
    }

    #[test]
    fn insert_births_subgroup_and_row() {
        let mut t = mv();
        let d = Delta::from_inserts(vec![row!["carol", 1996, 5], row!["bob", 1996, 7]]);
        let stats = apply_group_pivot_update(&mut t, &spec(), &info(), &core_schema(), &signed(&d))
            .unwrap();
        assert_eq!(stats.inserted, 1); // carol
        assert_eq!(stats.updated, 1); // bob's 1996 subgroup born
        let bob = t.get_by_key(&row!["bob"]).unwrap();
        assert_eq!(bob[4], Value::Int(7));
        assert_eq!(bob[6], Value::Int(1));
    }

    #[test]
    fn delete_kills_subgroup_then_row() {
        let mut t = mv();
        // Remove bob's only 1995 row: subgroup dies -> row all-⊥ -> deleted.
        let d = Delta::from_deletes(vec![row!["bob", 1995, 30]]);
        let stats = apply_group_pivot_update(&mut t, &spec(), &info(), &core_schema(), &signed(&d))
            .unwrap();
        assert_eq!(stats.deleted, 1);
        assert!(t.get_by_key(&row!["bob"]).is_none());
    }

    #[test]
    fn sum_goes_null_when_all_values_null_but_rows_remain() {
        let mut t = mv();
        // alice 1996: one row with price 50. Delete it but insert a row
        // with NULL price: count(*)=1, count(price)=0, sum must be ⊥.
        let mut d = Delta::new();
        d.add(row!["alice", 1996, 50], -1);
        d.add(
            Row::new(vec![Value::str("alice"), Value::Int(1996), Value::Null]),
            1,
        );
        apply_group_pivot_update(&mut t, &spec(), &info(), &core_schema(), &signed(&d)).unwrap();
        let r = t.get_by_key(&row!["alice"]).unwrap();
        assert!(r[4].is_null(), "sum must be ⊥ when count(price)=0");
        assert_eq!(r[5], Value::Int(0));
        assert_eq!(r[6], Value::Int(1));
    }

    #[test]
    fn mixed_insert_delete_same_subgroup() {
        let mut t = mv();
        let mut d = Delta::new();
        d.add(row!["alice", 1995, 40], 1);
        d.add(row!["alice", 1995, 60], -1);
        // One of alice's two 1995 rows is (implicitly) valued 60 in the
        // base; the apply only sees the aggregate delta: sum -20, counts 0.
        apply_group_pivot_update(&mut t, &spec(), &info(), &core_schema(), &signed(&d)).unwrap();
        let r = t.get_by_key(&row!["alice"]).unwrap();
        assert_eq!(r[1], Value::Int(80));
        assert_eq!(r[3], Value::Int(2));
    }

    #[test]
    fn unconsolidated_rows_plan_the_patch_of_their_consolidation() {
        // carol is outside the view; a ⊥ price exercises the count companion.
        let null_price = Row::new(vec![Value::str("carol"), Value::Int(1995), Value::Null]);
        let cases = [row!["carol", 1996, 5], null_price]
            .into_iter()
            .flat_map(|r| {
                [
                    vec![(r.clone(), 1), (r.clone(), -1)],
                    vec![(r.clone(), 1), (r.clone(), 1), (r.clone(), -1)],
                ]
            });
        for rows in cases {
            let consolidated = signed(&consolidate(rows.iter().cloned()));
            let plan = |d: &[(Row, i64)]| {
                plan_group_pivot_update(&mv(), &spec(), &info(), &core_schema(), d).unwrap()
            };
            assert_eq!(plan(&rows), plan(&consolidated), "{rows:?}");
        }
    }
}
