//! The Fig. 27 layout: **GPIVOT over GROUPBY** adds each touched cell's
//! aggregate delta to it (the additive folds of [`super::apply`]) instead
//! of recomputing the affected groups.
//!
//! The folds need a `count(col)` beside every `sum(col)`, since a SUM is ⊥
//! iff its `count(col)` is 0, and a liveness count per cell. A visible
//! COUNT is never ⊥, so a cell that shows one lives while its group has
//! rows: its liveness count is `count(*)`, hidden as `__cs` only when no
//! visible one exists (the paper adds `COUNT(*)` the same way, Fig. 28).
//! A cell of SUMs alone lives while one of its `count(col)`s is > 0, and
//! a σ under the pivot drops the groups whose counts are all 0, exactly as
//! the definition's pivot drops their all-⊥ cells. MIN and MAX have no
//! additive inverse, so they stay on the `GroupByInsDel` strategy.

use crate::error::Result;
use crate::maintain::apply::{not_applicable, Fold, MergeLayout};
use gpivot_algebra::{AggFunc, AggSpec, Expr, PivotSpec, Plan};
use gpivot_storage::{Catalog, Row};

impl MergeLayout {
    /// Fig. 27: compile `GPivot(GroupBy(core))` for the aggregate folds.
    /// Adds the hidden counts they need — a `count(col)` beside each
    /// `sum(col)` without one, and a `count(*)` only where a visible
    /// `count(col)` has no visible `count(*)` beside it — and, when the
    /// liveness counts are the SUMs' `count(col)`, a σ between GROUPBY and
    /// GPIVOT that drops dead groups, so materializing the returned plan
    /// stores exactly what the folds keep. Fails unless every pivoted
    /// measure is SUM, COUNT or COUNT(*): the folds need additive inverses.
    pub fn group_pivot(plan: &Plan, catalog: &Catalog) -> Result<(Plan, MergeLayout)> {
        let refuse = |reason: &str| not_applicable("group-pivot-update", reason);
        let Plan::GPivot { input, spec } = plan else {
            return Err(refuse("the top is not a GPivot"));
        };
        let Plan::GroupBy {
            input: core,
            group_by,
            aggs,
        } = input.as_ref()
        else {
            return Err(refuse("no GroupBy under the GPivot"));
        };
        let (mut aggs, mut on) = (aggs.clone(), spec.on.clone());
        let agg = |aggs: &[AggSpec], o: &str| aggs.iter().find(|a| a.output == o).cloned();
        let counts = |a: AggSpec| matches!(a.func, AggFunc::Count | AggFunc::CountStar);
        let visible_count = spec.on.iter().any(|o| agg(&aggs, o).is_some_and(counts));
        // The pivoted measure computing `want`, added hidden when none does.
        let measure = |aggs: &mut Vec<AggSpec>, on: &mut Vec<String>, want: AggSpec| {
            let same = |a: AggSpec| a.func == want.func && a.input == want.input;
            if let Some(j) = on.iter().position(|o| agg(aggs, o).is_some_and(same)) {
                return j;
            }
            if !aggs.iter().any(|a| a.output == want.output) {
                aggs.push(want.clone());
            }
            on.push(want.output);
            on.len() - 1
        };
        let star = visible_count.then(|| measure(&mut aggs, &mut on, AggSpec::count_star("__cs")));
        let schema = core.schema(catalog)?;
        let (mut measures, mut sum_counts) = (Vec::with_capacity(on.len()), Vec::new());
        while let Some(o) = on.get(measures.len()).cloned() {
            let Some(a) = agg(&aggs, &o) else {
                return Err(refuse(&format!("pivot measure `{o}` is no aggregate")));
            };
            let fold = match a.func {
                AggFunc::CountStar => Fold::CountStar,
                AggFunc::Count => Fold::Count,
                AggFunc::Sum => {
                    let partner = AggSpec::count(&a.input, format!("__c_{}", a.input));
                    let count = measure(&mut aggs, &mut on, partner);
                    if !sum_counts.contains(&count) {
                        sum_counts.push(count);
                    }
                    Fold::Sum { count }
                }
                f => return Err(refuse(&format!("{f} has no additive inverse"))),
            };
            let input = (fold != Fold::CountStar).then(|| schema.index_of(&a.input));
            measures.push((input.transpose()?.unwrap_or(0), fold));
        }
        // A visible COUNT is never ⊥, so its group lives while it has rows;
        // SUMs alone are all ⊥ once every `count(col)` is 0.
        let live = star.map_or(sum_counts, |star| vec![star]);
        let names: Vec<&str> = group_by.iter().map(String::as_str).collect();
        let mut grouped = core.as_ref().clone().group_by(&names, aggs);
        if !visible_count {
            let counted = |&j: &usize| Expr::col(&on[j]).gt(Expr::lit(0));
            grouped = grouped.select(live.iter().map(counted).reduce(Expr::or).expect("a SUM"));
        }
        let positions = |names: Vec<&String>| -> gpivot_storage::Result<Vec<usize>> {
            names.into_iter().map(|c| schema.index_of(c)).collect()
        };
        let layout = MergeLayout {
            core: core.as_ref().clone(),
            key: positions(group_by.iter().filter(|g| !spec.by.contains(g)).collect())?,
            tags: positions(spec.by.iter().collect())?,
            groups: (spec.groups.iter().enumerate())
                .map(|(i, g)| (Row::new(g.clone()), i))
                .collect(),
            measures,
            live,
            sigma: None,
        };
        Ok((grouped.gpivot(PivotSpec { on, ..spec.clone() }), layout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::apply::plan_merge;
    use crate::maintain::apply::tests::{apply, catalog_of, signed, view_table};
    use crate::maintain::delta_prop::consolidate;
    use crate::maintain::ApplyStats;
    use gpivot_storage::{row, DataType, Delta, Schema, Table, Value};

    fn sales() -> Catalog {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Str),
            ("year", DataType::Int),
            ("price", DataType::Int),
        ])
        .unwrap();
        catalog_of("sales", schema, vec![])
    }

    /// The view over `aggs`, pivoting the outputs `on` by year.
    fn plan(aggs: Vec<AggSpec>, on: Vec<&str>) -> Plan {
        Plan::scan("sales")
            .group_by(&["cust", "year"], aggs)
            .gpivot(PivotSpec::new(
                vec!["year"],
                on,
                vec![vec![Value::Int(1995)], vec![Value::Int(1996)]],
            ))
    }

    /// Compile `plan(aggs, on)`: the pivoted measures as compiled, and
    /// whether a liveness σ sits under the pivot.
    fn compile(aggs: Vec<AggSpec>, on: Vec<&str>) -> (Vec<String>, bool, MergeLayout) {
        let (plan, layout) = MergeLayout::group_pivot(&plan(aggs, on), &sales()).unwrap();
        let Plan::GPivot { input, spec } = plan else {
            panic!("not a pivot: {plan:?}")
        };
        (spec.on, matches!(*input, Plan::Select { .. }), layout)
    }

    /// sum, count(price) and count(*) are all visible: nothing hidden.
    fn layout() -> MergeLayout {
        let aggs = vec![
            AggSpec::sum("price", "s"),
            AggSpec::count("price", "c"),
            AggSpec::count_star("n"),
        ];
        let (on, sigma, layout) = compile(aggs, vec!["s", "c", "n"]);
        assert_eq!(
            (on, sigma),
            (vec!["s".into(), "c".into(), "n".into()], false)
        );
        layout
    }

    /// MV layout: cust, 1995**{s,c,n}, 1996**{s,c,n}.
    fn mv() -> Table {
        let fields = [
            ("cust", DataType::Str),
            ("1995**s", DataType::Int),
            ("1995**c", DataType::Int),
            ("1995**n", DataType::Int),
            ("1996**s", DataType::Int),
            ("1996**c", DataType::Int),
            ("1996**n", DataType::Int),
        ];
        let mut bob = vec![
            Value::str("bob"),
            Value::Int(30),
            Value::Int(1),
            Value::Int(1),
        ];
        bob.resize(7, Value::Null);
        view_table(
            &fields,
            1,
            vec![row!["alice", 100, 2, 2, 50, 1, 1], Row::new(bob)],
        )
    }

    fn merge(t: &mut Table, d: &Delta) -> ApplyStats {
        apply(t, &layout(), &signed(d))
    }

    #[test]
    fn a_visible_count_col_gets_a_hidden_count_star_as_its_liveness() {
        // Was `derive_requires_count_star`: the count(*) the folds need
        // is now added, and only because a COUNT is visible.
        let aggs = vec![AggSpec::sum("price", "s"), AggSpec::count("price", "c")];
        let (on, sigma, layout) = compile(aggs, vec!["s", "c"]);
        assert_eq!(on, ["s", "c", "__cs"]);
        assert!(!sigma);
        assert_eq!(
            layout.measures.iter().map(|(_, f)| *f).collect::<Vec<_>>(),
            [Fold::Sum { count: 1 }, Fold::Count, Fold::CountStar]
        );
        assert_eq!(layout.live, [2]);
    }

    #[test]
    fn every_sum_gets_a_count_partner_and_sums_alone_live_by_them() {
        // Was `derive_requires_sum_partner`: the partner is now added.
        let aggs = vec![AggSpec::sum("price", "s"), AggSpec::count_star("n")];
        let (on, sigma, layout) = compile(aggs, vec!["s", "n"]);
        assert_eq!(on, ["s", "n", "__c_price"]);
        assert!(!sigma);
        assert_eq!(layout.live, [1]);
        // SUM alone: no count(*), the partner is the liveness count,
        // and a σ under the pivot drops the groups it calls dead.
        let (on, sigma, layout) = compile(vec![AggSpec::sum("price", "s")], vec!["s"]);
        assert_eq!(on, ["s", "__c_price"]);
        assert!(sigma);
        assert_eq!(layout.live, [1]);
        // MIN has no additive inverse.
        let min = plan(vec![AggSpec::min("price", "m")], vec!["m"]);
        assert!(MergeLayout::group_pivot(&min, &sales()).is_err());
    }

    #[test]
    fn insert_adds_to_existing_cell() {
        let mut t = mv();
        let stats = merge(&mut t, &Delta::from_inserts(vec![row!["alice", 1995, 25]]));
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
        let stats = merge(&mut t, &d);
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
        let stats = merge(&mut t, &Delta::from_deletes(vec![row!["bob", 1995, 30]]));
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
        merge(&mut t, &d);
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
        // base; the MERGE only sees the aggregate delta: sum -20, counts 0.
        merge(&mut t, &d);
        let r = t.get_by_key(&row!["alice"]).unwrap();
        assert_eq!(r[1], Value::Int(80));
        assert_eq!(r[3], Value::Int(2));
    }

    #[test]
    fn unconsolidated_rows_plan_the_patch_of_their_consolidation() {
        // carol is outside the view; a ⊥ price exercises the count
        // partner; alice is a key the view holds, whose cancelling rows
        // write nothing.
        let null_price = Row::new(vec![Value::str("carol"), Value::Int(1995), Value::Null]);
        let cases = [row!["carol", 1996, 5], null_price, row!["alice", 1995, 7]]
            .into_iter()
            .flat_map(|r| {
                [
                    vec![(r.clone(), 1), (r.clone(), -1)],
                    vec![(r.clone(), 1), (r.clone(), 1), (r.clone(), -1)],
                ]
            });
        for rows in cases {
            let consolidated = signed(&consolidate(rows.iter().cloned()));
            let plan = |d: &[(Row, i64)]| plan_merge(&mv(), &layout(), d, None);
            assert_eq!(plan(&rows), plan(&consolidated), "{rows:?}");
        }
    }
}
