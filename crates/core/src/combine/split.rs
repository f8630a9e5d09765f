//! Split rules for GPIVOT (§4.3): the combination rules read right-to-left,
//! plus the local/global split for parallel pivot processing.
//!
//! Splitting is the *query-optimization* face of the combination rules: a
//! cost-based optimizer may prefer executing a wide GPIVOT as two narrower
//! ones (e.g. to pipeline with different join orders), or to partition the
//! input, pivot each partition locally, and merge the partial pivot results
//! — the paper notes the merge step is exactly the insert-case propagation
//! rule of Fig. 22 (here realized by [`merge_partial_pivots`]).

use crate::error::{CoreError, Result};
use gpivot_algebra::plan::PivotSpec;
use gpivot_analyze::DiagCode;
use gpivot_exec::WorkerPool;
use gpivot_storage::{Row, Table, Value};
use std::collections::HashMap;

const RULE: &str = "split-gpivot (§4.3)";

/// A pivot split into two specs whose recombination (multicolumn or
/// composition) yields the original.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedPivot {
    pub first: PivotSpec,
    pub second: PivotSpec,
}

/// Split a GPIVOT by measures (reverse of Eq. 5): the first spec pivots
/// `on[..at]`, the second `on[at..]`, both with the original dimensions and
/// groups.
pub fn split_multicolumn(spec: &PivotSpec, at: usize) -> Result<PartitionedPivot> {
    if at == 0 || at >= spec.on.len() {
        return Err(CoreError::RuleNotApplicable {
            rule: RULE,
            code: DiagCode::Gp020RuleShapeMismatch,
            reason: format!(
                "measure split point {at} must be inside 1..{}",
                spec.on.len()
            ),
        });
    }
    Ok(PartitionedPivot {
        first: PivotSpec {
            by: spec.by.clone(),
            on: spec.on[..at].to_vec(),
            groups: spec.groups.clone(),
        },
        second: PivotSpec {
            by: spec.by.clone(),
            on: spec.on[at..].to_vec(),
            groups: spec.groups.clone(),
        },
    })
}

/// Split a GPIVOT by dimensions (reverse of Eq. 6): the inner spec pivots by
/// `by[at..]`, the outer by `by[..at]` over the inner's output columns. The
/// original groups must form a full cross product of per-dimension value
/// sets for the split to be lossless; the distinct outer/inner tag tuples
/// are extracted from the groups, and the rule refuses if the cross product
/// of those does not reproduce the original group list.
pub fn split_composition(spec: &PivotSpec, at: usize) -> Result<PartitionedPivot> {
    if at == 0 || at >= spec.by.len() {
        return Err(CoreError::RuleNotApplicable {
            rule: RULE,
            code: DiagCode::Gp020RuleShapeMismatch,
            reason: format!(
                "dimension split point {at} must be inside 1..{}",
                spec.by.len()
            ),
        });
    }
    let mut outer_tags: Vec<Vec<Value>> = Vec::new();
    let mut inner_tags: Vec<Vec<Value>> = Vec::new();
    for g in &spec.groups {
        let o = g[..at].to_vec();
        let i = g[at..].to_vec();
        if !outer_tags.contains(&o) {
            outer_tags.push(o);
        }
        if !inner_tags.contains(&i) {
            inner_tags.push(i);
        }
    }
    // Losslessness check: groups must be exactly the cross product.
    let mut cross = Vec::with_capacity(outer_tags.len() * inner_tags.len());
    for o in &outer_tags {
        for i in &inner_tags {
            let mut g = o.clone();
            g.extend(i.iter().cloned());
            cross.push(g);
        }
    }
    if cross != spec.groups {
        return Err(CoreError::RuleNotApplicable {
            rule: RULE,
            code: DiagCode::Gp017PivotsNotCombinable,
            reason: "output groups are not a cross product in group-major order; \
                     a dimension split would change the output"
                .to_string(),
        });
    }

    let inner = PivotSpec {
        by: spec.by[at..].to_vec(),
        on: spec.on.clone(),
        groups: inner_tags,
    };
    // Outer pivots the inner's output columns by the leading dimensions.
    let outer = PivotSpec {
        by: spec.by[..at].to_vec(),
        on: inner.output_col_names(),
        groups: outer_tags,
    };
    Ok(PartitionedPivot {
        first: inner,
        second: outer,
    })
}

/// Merge partial GPIVOT results computed on disjoint partitions of the
/// input (the "local/global" parallel split of §4.3). Rows with the same
/// key are merged cell-wise; overlapping non-`⊥` cells are an error (they
/// would mean the partitioning broke the `(K, A1..Am)` key).
pub fn merge_partial_pivots(parts: &[Table]) -> Result<Table> {
    let Some(first) = parts.first() else {
        return Err(CoreError::RuleNotApplicable {
            rule: RULE,
            code: DiagCode::Gp020RuleShapeMismatch,
            reason: "no partial results to merge".to_string(),
        });
    };
    let schema = first.schema().clone();
    let key_idx: Vec<usize> =
        schema
            .key()
            .map(|k| k.to_vec())
            .ok_or_else(|| CoreError::RuleNotApplicable {
                rule: RULE,
                code: DiagCode::Gp001PivotInputNoKey,
                reason: "partial pivot results carry no key".to_string(),
            })?;
    let arity = schema.arity();
    let mut acc: HashMap<Row, Vec<Value>> = HashMap::new();
    for part in parts {
        for row in part.iter() {
            let key = row.project(&key_idx);
            match acc.entry(key) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(row.to_vec());
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    let merged = o.get_mut();
                    for i in 0..arity {
                        if key_idx.contains(&i) {
                            continue;
                        }
                        let incoming = &row[i];
                        if incoming.is_null() {
                            continue;
                        }
                        if !merged[i].is_null() && merged[i] != *incoming {
                            return Err(CoreError::Exec(
                                gpivot_exec::ExecError::DuplicatePivotCell {
                                    key: format!("{:?}", row.project(&key_idx)),
                                    group: schema.fields()[i].name.clone(),
                                },
                            ));
                        }
                        merged[i] = incoming.clone();
                    }
                }
            }
        }
    }
    Ok(Table::bag(
        schema,
        acc.into_values().map(Row::new).collect(),
    ))
}

/// Execute a GPIVOT with the §4.3 local/global parallel split: partition
/// the input rows round-robin into one partition per `pool` worker, pivot
/// each partition locally as a pool job, then merge the partial results
/// with [`merge_partial_pivots`]. A panicking partition surfaces as
/// [`gpivot_exec::ExecError::WorkerPanic`], not a panic of the caller.
///
/// Any partitioning works because a pivot cell is written by exactly one
/// source row (the `(K, A1..Am)` key); the paper notes the merge is the
/// insert-case propagation rule of Fig. 22.
pub fn parallel_gpivot(
    input: &Table,
    spec: &gpivot_algebra::PivotSpec,
    out_schema: gpivot_storage::SchemaRef,
    pool: &WorkerPool,
) -> Result<Table> {
    let threads = pool.threads();
    if threads == 1 || input.len() < 2 {
        return Ok(gpivot_exec::pivot::gpivot(input, spec, out_schema)?);
    }
    // Round-robin partitions (cheap Arc-clones of rows).
    let mut partitions: Vec<Vec<Row>> =
        vec![Vec::with_capacity(input.len() / threads + 1); threads];
    for (i, row) in input.iter().enumerate() {
        partitions[i % threads].push(row.clone());
    }
    let parts = pool.run("GPivot", partitions, |rows| {
        let part = Table::bag(input.schema().clone(), rows);
        gpivot_exec::pivot::gpivot(&part, spec, out_schema.clone())
    })?;
    merge_partial_pivots(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::{combine_multicolumn_specs, compose_specs};
    use gpivot_exec::pivot::gpivot;
    use gpivot_storage::{row, DataType, Schema};
    use std::sync::Arc;

    fn wide_spec() -> PivotSpec {
        PivotSpec::cross(
            vec!["Manu", "Type"],
            vec!["Price", "Qty"],
            vec![
                vec![Value::str("Sony"), Value::str("Panasonic")],
                vec![Value::str("TV"), Value::str("VCR")],
            ],
        )
    }

    #[test]
    fn multicolumn_split_roundtrips() {
        let spec = wide_spec();
        let parts = split_multicolumn(&spec, 1).unwrap();
        assert_eq!(parts.first.on, vec!["Price"]);
        assert_eq!(parts.second.on, vec!["Qty"]);
        let back = combine_multicolumn_specs(&parts.first, &parts.second).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn composition_split_roundtrips() {
        let spec = wide_spec();
        let parts = split_composition(&spec, 1).unwrap();
        assert_eq!(parts.first.by, vec!["Type"]);
        assert_eq!(parts.second.by, vec!["Manu"]);
        let back = compose_specs(&parts.first, &parts.second).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn composition_split_rejects_non_cross_product() {
        let spec = PivotSpec::new(
            vec!["Manu", "Type"],
            vec!["Price"],
            vec![
                vec![Value::str("Sony"), Value::str("TV")],
                vec![Value::str("Panasonic"), Value::str("VCR")],
            ],
        );
        assert!(split_composition(&spec, 1).is_err());
    }

    #[test]
    fn split_point_bounds_checked() {
        let spec = wide_spec();
        assert!(split_multicolumn(&spec, 0).is_err());
        assert!(split_multicolumn(&spec, 2).is_err());
        assert!(split_composition(&spec, 0).is_err());
        assert!(split_composition(&spec, 2).is_err());
    }

    #[test]
    fn parallel_partition_merge_equals_whole() {
        let schema = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("ID", DataType::Int),
                    ("Attr", DataType::Str),
                    ("Val", DataType::Int),
                ],
                &["ID", "Attr"],
            )
            .unwrap(),
        );
        let all_rows = vec![
            row![1, "a", 10],
            row![1, "b", 20],
            row![2, "a", 30],
            row![2, "b", 40],
            row![3, "a", 50],
        ];
        let spec = PivotSpec::simple("Attr", "Val", vec![Value::str("a"), Value::str("b")]);
        let mut out_s = Schema::from_pairs(&[
            ("ID", DataType::Int),
            ("a**Val", DataType::Int),
            ("b**Val", DataType::Int),
        ])
        .unwrap();
        out_s.set_key(vec![0]);
        let out_s = Arc::new(out_s);

        let whole = gpivot(
            &Table::bag(schema.clone(), all_rows.clone()),
            &spec,
            out_s.clone(),
        )
        .unwrap();

        // Partition by row parity, pivot each partition, merge.
        let p0: Vec<Row> = all_rows.iter().step_by(2).cloned().collect();
        let p1: Vec<Row> = all_rows.iter().skip(1).step_by(2).cloned().collect();
        let part0 = gpivot(&Table::bag(schema.clone(), p0), &spec, out_s.clone()).unwrap();
        let part1 = gpivot(&Table::bag(schema, p1), &spec, out_s).unwrap();
        let merged = merge_partial_pivots(&[part0, part1]).unwrap();
        assert!(merged.bag_eq(&whole));
    }

    #[test]
    fn parallel_gpivot_equals_sequential() {
        let schema = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("ID", DataType::Int),
                    ("Attr", DataType::Str),
                    ("Val", DataType::Int),
                ],
                &["ID", "Attr"],
            )
            .unwrap(),
        );
        let mut rows = Vec::new();
        for id in 0..200 {
            for (ai, attr) in ["a", "b", "c"].iter().enumerate() {
                if (id + ai as i64) % 3 != 0 {
                    rows.push(row![id, *attr, id * 10 + ai as i64]);
                }
            }
        }
        let input = Table::bag(schema, rows);
        let spec = PivotSpec::simple(
            "Attr",
            "Val",
            vec![Value::str("a"), Value::str("b"), Value::str("c")],
        );
        let mut out_s = Schema::from_pairs(&[
            ("ID", DataType::Int),
            ("a**Val", DataType::Int),
            ("b**Val", DataType::Int),
            ("c**Val", DataType::Int),
        ])
        .unwrap();
        out_s.set_key(vec![0]);
        let out_s = Arc::new(out_s);
        let sequential = gpivot(&input, &spec, out_s.clone()).unwrap();
        for threads in [1, 2, 4, 7] {
            let parallel =
                parallel_gpivot(&input, &spec, out_s.clone(), &WorkerPool::new(threads)).unwrap();
            assert!(
                parallel.bag_eq(&sequential),
                "parallel ({threads} threads) differs from sequential"
            );
        }
    }

    #[test]
    fn parallel_gpivot_is_deterministic_across_thread_counts() {
        // §4.3's local/global split merges per-thread partial pivots from a
        // hash map, so physical row ORDER is unspecified — but the row SET
        // must be byte-identical for every thread count and across repeated
        // runs. Compare canonicalized (sorted) rows for 1, 2 and 8 threads.
        let schema = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("ID", DataType::Int),
                    ("Attr", DataType::Str),
                    ("Val", DataType::Int),
                ],
                &["ID", "Attr"],
            )
            .unwrap(),
        );
        let mut rows = Vec::new();
        for id in 0..300 {
            for (ai, attr) in ["a", "b", "c"].iter().enumerate() {
                if (id + ai as i64) % 4 != 0 {
                    rows.push(row![id, *attr, id * 7 + ai as i64]);
                }
            }
        }
        let input = Table::bag(schema, rows);
        let spec = PivotSpec::simple(
            "Attr",
            "Val",
            vec![Value::str("a"), Value::str("b"), Value::str("c")],
        );
        let mut out_s = Schema::from_pairs(&[
            ("ID", DataType::Int),
            ("a**Val", DataType::Int),
            ("b**Val", DataType::Int),
            ("c**Val", DataType::Int),
        ])
        .unwrap();
        out_s.set_key(vec![0]);
        let out_s = Arc::new(out_s);

        let reference = parallel_gpivot(&input, &spec, out_s.clone(), &WorkerPool::new(1))
            .unwrap()
            .sorted_rows();
        for threads in [1usize, 2, 8] {
            for run in 0..2 {
                let got = parallel_gpivot(&input, &spec, out_s.clone(), &WorkerPool::new(threads))
                    .unwrap()
                    .sorted_rows();
                assert_eq!(
                    got, reference,
                    "thread count {threads} (run {run}) changed the result"
                );
            }
        }
    }

    #[test]
    fn a_panicking_partition_is_a_transient_error_not_a_caller_panic() {
        let schema = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("ID", DataType::Int),
                    ("Attr", DataType::Str),
                    ("Val", DataType::Int),
                ],
                &["ID", "Attr"],
            )
            .unwrap(),
        );
        // A bag does not check arity: the short row makes the pivot kernel
        // of whichever partition receives it index out of bounds.
        let mut rows: Vec<Row> = (0..40).map(|id| row![id, "a", id]).collect();
        rows[17] = row![17];
        let input = Table::bag(schema, rows);
        let spec = PivotSpec::simple("Attr", "Val", vec![Value::str("a")]);
        let mut out_s =
            Schema::from_pairs(&[("ID", DataType::Int), ("a**Val", DataType::Int)]).unwrap();
        out_s.set_key(vec![0]);
        let err = parallel_gpivot(&input, &spec, Arc::new(out_s), &WorkerPool::new(4)).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Exec(gpivot_exec::ExecError::WorkerPanic { op: "GPivot", .. })
            ),
            "{err:?}"
        );
        assert_eq!(err.classify(), crate::ErrorClass::Transient);
    }

    #[test]
    fn merge_detects_conflicting_cells() {
        let mut s = Schema::from_pairs(&[("k", DataType::Int), ("c", DataType::Int)]).unwrap();
        s.set_key(vec![0]);
        let s = Arc::new(s);
        let a = Table::bag(s.clone(), vec![row![1, 10]]);
        let b = Table::bag(s, vec![row![1, 20]]);
        assert!(merge_partial_pivots(&[a, b]).is_err());
    }
}
