//! Hash aggregation with SQL NULL semantics.
//!
//! Aggregates follow the conventions the paper's maintenance rules depend
//! on: `SUM`/`MIN`/`MAX`/`AVG` ignore NULL inputs and yield NULL over an
//! empty (or all-NULL) group — in particular the Eq. 8 proof requires
//! "when all inputs are ⊥, output ⊥ (for COUNT this means ⊥ instead of 0)"
//! only at the *pivot* level; plain `COUNT` here is the usual 0-default SQL
//! count of non-NULLs and `COUNT(*)` counts rows.

use crate::error::{ExecError, Result};
use crate::pool::{partition_by_hash, WorkerPool};
use gpivot_algebra::{AggFunc, AggSpec};
use gpivot_storage::{Row, RowMap, Schema, Table, Value};

/// Running state for one aggregate. Shared with the columnar kernels'
/// generic fallback path so both engines use one source of truth for
/// aggregate semantics.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Sum {
        acc: Value,
    },
    Count {
        n: i64,
    },
    CountStar {
        n: i64,
    },
    /// AVG accumulates the running sum as a [`Value`] so integer inputs
    /// stay exact `i64` sums until the final division — a running `f64`
    /// sum silently loses exactness past 2⁵³ and diverges from
    /// `SUM(col) / COUNT(col)` on the same column.
    Avg {
        sum: Value,
        n: i64,
    },
    Min {
        cur: Value,
    },
    Max {
        cur: Value,
    },
}

impl AggState {
    pub(crate) fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Sum => AggState::Sum { acc: Value::Null },
            AggFunc::Count => AggState::Count { n: 0 },
            AggFunc::CountStar => AggState::CountStar { n: 0 },
            AggFunc::Avg => AggState::Avg {
                sum: Value::Null,
                n: 0,
            },
            AggFunc::Min => AggState::Min { cur: Value::Null },
            AggFunc::Max => AggState::Max { cur: Value::Null },
        }
    }

    pub(crate) fn update(&mut self, input: &Value) -> Result<()> {
        match self {
            AggState::Sum { acc } => {
                if !input.is_null() {
                    *acc = if acc.is_null() {
                        input.clone()
                    } else {
                        acc.numeric_add(input)
                    };
                }
            }
            AggState::Count { n } => {
                if !input.is_null() {
                    *n += 1;
                }
            }
            AggState::CountStar { n } => *n += 1,
            AggState::Avg { sum, n } => {
                // Skip exactly NULLs (the module-header rule shared with
                // SUM/COUNT); any other non-numeric value is a typed error,
                // never a silent drop.
                if input.is_null() {
                    return Ok(());
                }
                if input.as_f64().is_none() {
                    return Err(ExecError::AggregateTypeMismatch {
                        func: "AVG",
                        value: format!("{input:?}"),
                    });
                }
                *sum = if sum.is_null() {
                    input.clone()
                } else {
                    sum.numeric_add(input)
                };
                *n += 1;
            }
            AggState::Min { cur } => {
                if !input.is_null()
                    && (cur.is_null() || input.total_cmp(cur) == std::cmp::Ordering::Less)
                {
                    *cur = input.clone();
                }
            }
            AggState::Max { cur } => {
                if !input.is_null()
                    && (cur.is_null() || input.total_cmp(cur) == std::cmp::Ordering::Greater)
                {
                    *cur = input.clone();
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            AggState::Sum { acc } => acc,
            AggState::Count { n } => Value::Int(n),
            AggState::CountStar { n } => Value::Int(n),
            AggState::Avg { sum, n } => match (sum.as_f64(), n) {
                (None, _) | (_, 0) => Value::Null,
                (Some(s), n) => Value::Float(s / n as f64),
            },
            AggState::Min { cur } => cur,
            AggState::Max { cur } => cur,
        }
    }
}

/// Aggregate the input rows at positions `indices` — the single-partition
/// core of both the sequential and the partitioned kernels. Groups are
/// emitted in first-seen order (insertion order over `indices`), so the
/// output order is a pure function of the input — never of hash-map
/// iteration order or thread scheduling.
fn group_partition(
    input: &Table,
    indices: &[usize],
    group_idx: &[usize],
    aggs: &[AggSpec],
    agg_inputs: &[usize],
) -> Result<Vec<Row>> {
    let mut lookup: RowMap<Row, usize> = RowMap::default();
    let mut keys: Vec<Row> = Vec::new();
    let mut states: Vec<Vec<AggState>> = Vec::new();
    for &i in indices {
        let row = &input.rows()[i];
        let key = row.project(group_idx);
        let slot = *lookup.entry(key.clone()).or_insert_with(|| {
            keys.push(key);
            states.push(aggs.iter().map(|a| AggState::new(a.func)).collect());
            states.len() - 1
        });
        for (state, &in_idx) in states[slot].iter_mut().zip(agg_inputs) {
            let v = if in_idx == usize::MAX {
                // COUNT(*): the value is irrelevant.
                Value::Int(1)
            } else {
                row[in_idx].clone()
            };
            state.update(&v)?;
        }
    }
    let mut rows = Vec::with_capacity(keys.len());
    for (key, states) in keys.into_iter().zip(states) {
        let mut out = key.to_vec();
        out.extend(states.into_iter().map(AggState::finish));
        rows.push(Row::new(out));
    }
    Ok(rows)
}

/// Execute a hash aggregation sequentially.
///
/// `group_idx` are the grouping column indices in the input, `agg_inputs`
/// the input column index per aggregate (`usize::MAX` for `COUNT(*)`).
pub fn hash_group_by(
    input: &Table,
    group_idx: &[usize],
    aggs: &[AggSpec],
    agg_inputs: &[usize],
    out_schema: std::sync::Arc<Schema>,
) -> Result<Table> {
    let indices: Vec<usize> = (0..input.len()).collect();
    let rows = group_partition(input, &indices, group_idx, aggs, agg_inputs)?;
    Ok(Table::bag(out_schema, rows))
}

/// Execute a hash aggregation partitioned by the hash of the group key.
///
/// Equal group keys always hash to the same partition, so every group is
/// aggregated entirely within one partition — no cross-partition merge of
/// aggregate states is needed. Partition outputs concatenate in
/// partition-index order; with the empty group (global aggregates) all
/// rows collapse into partition 0 and this degenerates to the sequential
/// kernel.
pub fn hash_group_by_partitioned(
    input: &Table,
    group_idx: &[usize],
    aggs: &[AggSpec],
    agg_inputs: &[usize],
    out_schema: std::sync::Arc<Schema>,
    pool: &WorkerPool,
    partitions: usize,
) -> Result<Table> {
    let jobs = partition_by_hash(input.rows(), group_idx, partitions);
    let outs = pool.run_timed(
        "GroupBy",
        "op.GroupBy",
        "op.GroupBy.partition",
        jobs,
        |indices| group_partition(input, &indices, group_idx, aggs, agg_inputs),
    )?;
    Ok(Table::bag(out_schema, outs.into_iter().flatten().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_storage::{row, DataType};
    use std::sync::Arc;

    fn input() -> Table {
        let schema =
            Arc::new(Schema::from_pairs(&[("g", DataType::Str), ("v", DataType::Int)]).unwrap());
        Table::bag(
            schema,
            vec![
                row!["a", 1],
                row!["a", 2],
                Row::new(vec![Value::str("a"), Value::Null]),
                row!["b", 5],
            ],
        )
    }

    fn out_schema(aggs: &[(&str, DataType)]) -> Arc<Schema> {
        let mut pairs = vec![("g", DataType::Str)];
        pairs.extend_from_slice(aggs);
        Arc::new(Schema::from_pairs(&pairs).unwrap())
    }

    #[test]
    fn sum_ignores_nulls() {
        let t = hash_group_by(
            &input(),
            &[0],
            &[AggSpec::sum("v", "s")],
            &[1],
            out_schema(&[("s", DataType::Int)]),
        )
        .unwrap();
        let rows = t.sorted_rows();
        assert_eq!(rows, vec![row!["a", 3], row!["b", 5]]);
    }

    #[test]
    fn count_vs_count_star() {
        let t = hash_group_by(
            &input(),
            &[0],
            &[AggSpec::count("v", "c"), AggSpec::count_star("cs")],
            &[1, usize::MAX],
            out_schema(&[("c", DataType::Int), ("cs", DataType::Int)]),
        )
        .unwrap();
        let rows = t.sorted_rows();
        // group a: 2 non-null of 3 rows
        assert_eq!(rows, vec![row!["a", 2, 3], row!["b", 1, 1]]);
    }

    #[test]
    fn avg_and_empty_group_is_null() {
        let schema =
            Arc::new(Schema::from_pairs(&[("g", DataType::Str), ("v", DataType::Int)]).unwrap());
        let all_null = Table::bag(schema, vec![Row::new(vec![Value::str("a"), Value::Null])]);
        let t = hash_group_by(
            &all_null,
            &[0],
            &[AggSpec::avg("v", "a"), AggSpec::sum("v", "s")],
            &[1, 1],
            out_schema(&[("a", DataType::Float), ("s", DataType::Int)]),
        )
        .unwrap();
        let r = &t.rows()[0];
        assert!(r[1].is_null());
        assert!(r[2].is_null());
    }

    /// Oracle: AVG must equal SUM / COUNT over the same column, with
    /// exactly the same NULL-skipping rule — including `i64` sums past
    /// 2⁵³ where a running `f64` accumulator loses increments.
    #[test]
    fn avg_agrees_with_sum_over_count_oracle() {
        const BIG: i64 = 1 << 53;
        let schema =
            Arc::new(Schema::from_pairs(&[("g", DataType::Str), ("v", DataType::Int)]).unwrap());
        let t = Table::bag(
            schema,
            vec![
                row!["a", BIG],
                row!["a", 1],
                row!["a", 1],
                Row::new(vec![Value::str("a"), Value::Null]),
            ],
        );
        let out = hash_group_by(
            &t,
            &[0],
            &[
                AggSpec::avg("v", "a"),
                AggSpec::sum("v", "s"),
                AggSpec::count("v", "c"),
            ],
            &[1, 1, 1],
            out_schema(&[
                ("a", DataType::Float),
                ("s", DataType::Int),
                ("c", DataType::Int),
            ]),
        )
        .unwrap();
        let r = &out.rows()[0];
        // SUM stays an exact i64; COUNT skips only the NULL.
        assert_eq!(r[2], Value::Int(BIG + 2));
        assert_eq!(r[3], Value::Int(3));
        let avg = r[1].as_f64().unwrap();
        let oracle = (BIG + 2) as f64 / 3.0;
        assert_eq!(
            avg, oracle,
            "AVG diverged from SUM/COUNT: f64 accumulation lost exactness"
        );
        // The buggy f64 running sum would have produced 2^53 / 3 instead.
        assert_ne!(avg, BIG as f64 / 3.0);
    }

    /// AVG over a non-numeric non-null value is a typed error, not a
    /// silent drop (SUM/COUNT's "skip only NULL" rule applies to AVG too).
    #[test]
    fn avg_rejects_non_numeric_instead_of_dropping() {
        let schema =
            Arc::new(Schema::from_pairs(&[("g", DataType::Str), ("v", DataType::Str)]).unwrap());
        let t = Table::bag(schema, vec![row!["a", "not-a-number"]]);
        let err = hash_group_by(
            &t,
            &[0],
            &[AggSpec::avg("v", "a")],
            &[1],
            out_schema(&[("a", DataType::Float)]),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            crate::error::ExecError::AggregateTypeMismatch { func: "AVG", .. }
        ));
    }

    #[test]
    fn min_max() {
        let t = hash_group_by(
            &input(),
            &[0],
            &[AggSpec::min("v", "lo"), AggSpec::max("v", "hi")],
            &[1, 1],
            out_schema(&[("lo", DataType::Int), ("hi", DataType::Int)]),
        )
        .unwrap();
        let rows = t.sorted_rows();
        assert_eq!(rows, vec![row!["a", 1, 2], row!["b", 5, 5]]);
    }

    #[test]
    fn partitioned_group_by_agrees_with_sequential_and_is_thread_invariant() {
        let schema =
            Arc::new(Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Int)]).unwrap());
        let t = Table::bag(
            schema,
            (0..500).map(|i| row![i % 23, i]).collect::<Vec<_>>(),
        );
        let aggs = [
            AggSpec::sum("v", "s"),
            AggSpec::count("v", "c"),
            AggSpec::min("v", "lo"),
        ];
        let os = Arc::new(
            Schema::from_pairs(&[
                ("g", DataType::Int),
                ("s", DataType::Int),
                ("c", DataType::Int),
                ("lo", DataType::Int),
            ])
            .unwrap(),
        );
        let seq = hash_group_by(&t, &[0], &aggs, &[1, 1, 1], os.clone()).unwrap();
        let mut orders = Vec::new();
        for threads in [1, 2, 8] {
            let par = hash_group_by_partitioned(
                &t,
                &[0],
                &aggs,
                &[1, 1, 1],
                os.clone(),
                &crate::pool::WorkerPool::new(threads),
                16,
            )
            .unwrap();
            assert!(par.bag_eq(&seq), "threads={threads}");
            orders.push(par.rows().to_vec());
        }
        assert_eq!(orders[0], orders[1]);
        assert_eq!(orders[1], orders[2]);
    }

    #[test]
    fn partitioned_global_aggregate_stays_single_group() {
        let t = input();
        let os = Arc::new(Schema::from_pairs(&[("n", DataType::Int)]).unwrap());
        let seq = hash_group_by(
            &t,
            &[],
            &[AggSpec::count_star("n")],
            &[usize::MAX],
            os.clone(),
        )
        .unwrap();
        let par = hash_group_by_partitioned(
            &t,
            &[],
            &[AggSpec::count_star("n")],
            &[usize::MAX],
            os,
            &crate::pool::WorkerPool::new(4),
            16,
        )
        .unwrap();
        assert_eq!(par.rows(), seq.rows());
        assert_eq!(par.rows(), &[row![4]]);
    }

    #[test]
    fn global_aggregate_single_group() {
        let t = hash_group_by(
            &input(),
            &[],
            &[AggSpec::count_star("n")],
            &[usize::MAX],
            Arc::new(Schema::from_pairs(&[("n", DataType::Int)]).unwrap()),
        )
        .unwrap();
        assert_eq!(t.rows(), &[row![4]]);
    }
}
