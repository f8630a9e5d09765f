//! Hash equi-joins: inner, left-outer, full-outer, with residual predicates.
//!
//! NULL join keys never match (SQL semantics); for outer joins, a row
//! counts as *matched* only if some probe pair also passes the residual
//! predicate — unmatched rows are padded with `⊥` on the other side, which
//! is exactly what the paper's outer-join-based pivot definition and update
//! propagation rules (Fig. 23: "left outer-join between delta and view")
//! expect.

use crate::error::Result;
use crate::pool::{partition_by_hash, WorkerPool};
use gpivot_algebra::{BoundExpr, JoinKind};
use gpivot_storage::{Row, RowMap, Schema, Table};
use std::sync::Arc;

/// Join the rows of `left` at positions `lidx` against the rows of
/// `right` at positions `ridx` — the single-partition core both the
/// sequential and the hash-partitioned kernels run. Output order is
/// fully determined by the index lists: matches in `lidx` order (build
/// candidates in `ridx` order), then, for full-outer, unmatched right
/// rows in `ridx` order.
#[allow(clippy::too_many_arguments)]
fn join_partition(
    left: &Table,
    right: &Table,
    kind: JoinKind,
    left_on: &[usize],
    right_on: &[usize],
    residual: Option<&BoundExpr>,
    lidx: &[usize],
    ridx: &[usize],
) -> Vec<Row> {
    // Build side: right.
    let mut build: RowMap<Row, Vec<usize>> = RowMap::default();
    for &ri in ridx {
        let row = &right.rows()[ri];
        let key = row.project(right_on);
        if key.iter().any(|v| v.is_null()) {
            continue; // NULL keys never join
        }
        build.entry(key).or_default().push(ri);
    }

    let mut right_matched = vec![
        false;
        if kind == JoinKind::FullOuter {
            right.len()
        } else {
            0
        }
    ];
    let mut out: Vec<Row> = Vec::new();
    let n_right = right.schema().arity();
    let n_left = left.schema().arity();

    for &li in lidx {
        let lrow = &left.rows()[li];
        let key = lrow.project(left_on);
        let mut matched = false;
        if !key.iter().any(|v| v.is_null()) {
            if let Some(candidates) = build.get(&key) {
                for &ri in candidates {
                    let joined = lrow.concat(&right.rows()[ri]);
                    let pass = residual.map(|p| p.holds(&joined)).unwrap_or(true);
                    if pass {
                        matched = true;
                        if kind == JoinKind::FullOuter {
                            right_matched[ri] = true;
                        }
                        out.push(joined);
                    }
                }
            }
        }
        if !matched && matches!(kind, JoinKind::LeftOuter | JoinKind::FullOuter) {
            out.push(lrow.pad_nulls(n_right));
        }
    }

    if kind == JoinKind::FullOuter {
        for &ri in ridx {
            if !right_matched[ri] {
                let mut v = vec![gpivot_storage::Value::Null; n_left];
                v.extend(right.rows()[ri].iter().cloned());
                out.push(Row::new(v));
            }
        }
    }

    out
}

/// Execute a hash equi-join sequentially.
pub fn hash_join(
    left: &Table,
    right: &Table,
    kind: JoinKind,
    left_on: &[usize],
    right_on: &[usize],
    residual: Option<&BoundExpr>,
    out_schema: Arc<Schema>,
) -> Result<Table> {
    let lidx: Vec<usize> = (0..left.len()).collect();
    let ridx: Vec<usize> = (0..right.len()).collect();
    let out = join_partition(left, right, kind, left_on, right_on, residual, &lidx, &ridx);
    Ok(Table::bag(out_schema, out))
}

/// Execute a hash equi-join partitioned by the hash of the join keys.
///
/// Both sides are split into `partitions` buckets with the same hash
/// function, so equal keys always meet in the same bucket and each bucket
/// is an independent join: matching, residual filtering and outer padding
/// are all per-bucket-correct. Bucket outputs are concatenated in
/// partition-index order — the partitioning depends only on the data (a
/// fixed-key hash), never on the thread count, so the result is
/// bit-identical across pool widths.
///
/// Note this kernel's row *order* differs from [`hash_join`]'s (grouped by
/// partition rather than global left order); the engine picks a kernel by
/// input size alone, so any given query always takes the same path.
#[allow(clippy::too_many_arguments)]
pub fn hash_join_partitioned(
    left: &Table,
    right: &Table,
    kind: JoinKind,
    left_on: &[usize],
    right_on: &[usize],
    residual: Option<&BoundExpr>,
    out_schema: Arc<Schema>,
    pool: &WorkerPool,
    partitions: usize,
) -> Result<Table> {
    let lparts = partition_by_hash(left.rows(), left_on, partitions);
    let rparts = partition_by_hash(right.rows(), right_on, partitions);
    let jobs: Vec<(Vec<usize>, Vec<usize>)> = lparts.into_iter().zip(rparts).collect();
    let outs = pool.run_timed(
        "Join",
        "op.Join",
        "op.Join.partition",
        jobs,
        |(lidx, ridx)| {
            Ok(join_partition(
                left, right, kind, left_on, right_on, residual, &lidx, &ridx,
            ))
        },
    )?;
    Ok(Table::bag(out_schema, outs.into_iter().flatten().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_algebra::Expr;
    use gpivot_storage::{row, DataType, Value};

    fn t(cols: &[(&str, DataType)], rows: Vec<Row>) -> Table {
        Table::bag(Arc::new(Schema::from_pairs(cols).unwrap()), rows)
    }

    fn out_schema() -> Arc<Schema> {
        Arc::new(
            Schema::from_pairs(&[
                ("a", DataType::Int),
                ("x", DataType::Str),
                ("b", DataType::Int),
                ("y", DataType::Str),
            ])
            .unwrap(),
        )
    }

    fn left() -> Table {
        t(
            &[("a", DataType::Int), ("x", DataType::Str)],
            vec![row![1, "l1"], row![2, "l2"], row![3, "l3"]],
        )
    }

    fn right() -> Table {
        t(
            &[("b", DataType::Int), ("y", DataType::Str)],
            vec![row![1, "r1"], row![1, "r1b"], row![4, "r4"]],
        )
    }

    #[test]
    fn inner_join_matches_all_pairs() {
        let out = hash_join(
            &left(),
            &right(),
            JoinKind::Inner,
            &[0],
            &[0],
            None,
            out_schema(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let rows = out.sorted_rows();
        assert_eq!(rows[0], row![1, "l1", 1, "r1"]);
        assert_eq!(rows[1], row![1, "l1", 1, "r1b"]);
    }

    #[test]
    fn left_outer_pads_unmatched() {
        let out = hash_join(
            &left(),
            &right(),
            JoinKind::LeftOuter,
            &[0],
            &[0],
            None,
            out_schema(),
        )
        .unwrap();
        assert_eq!(out.len(), 4); // 2 matches + rows 2,3 padded
        let padded: Vec<_> = out.iter().filter(|r| r[2].is_null()).collect();
        assert_eq!(padded.len(), 2);
    }

    #[test]
    fn full_outer_pads_both_sides() {
        let out = hash_join(
            &left(),
            &right(),
            JoinKind::FullOuter,
            &[0],
            &[0],
            None,
            out_schema(),
        )
        .unwrap();
        // 2 matches + 2 unmatched left + 1 unmatched right
        assert_eq!(out.len(), 5);
        let right_pad: Vec<_> = out.iter().filter(|r| r[0].is_null()).collect();
        assert_eq!(right_pad.len(), 1);
        assert_eq!(right_pad[0][3], Value::str("r4"));
    }

    #[test]
    fn null_keys_never_match() {
        let l = t(
            &[("a", DataType::Int), ("x", DataType::Str)],
            vec![Row::new(vec![Value::Null, Value::str("l")])],
        );
        let out = hash_join(
            &l,
            &right(),
            JoinKind::Inner,
            &[0],
            &[0],
            None,
            out_schema(),
        )
        .unwrap();
        assert!(out.is_empty());
        // ...but a left-outer join still keeps the row.
        let out = hash_join(
            &l,
            &right(),
            JoinKind::LeftOuter,
            &[0],
            &[0],
            None,
            out_schema(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn residual_limits_matches_and_affects_outer() {
        // join on a=b with residual y='r1b'
        let residual = Expr::col("y")
            .eq(Expr::lit("r1b"))
            .bind(&out_schema())
            .unwrap();
        let out = hash_join(
            &left(),
            &right(),
            JoinKind::LeftOuter,
            &[0],
            &[0],
            Some(&residual),
            out_schema(),
        )
        .unwrap();
        // key 1 matches only r1b; keys 2,3 padded
        assert_eq!(out.len(), 3);
        let matched: Vec<_> = out.iter().filter(|r| !r[2].is_null()).collect();
        assert_eq!(matched.len(), 1);
        assert_eq!(matched[0][3], Value::str("r1b"));
    }

    #[test]
    fn partitioned_join_agrees_with_sequential_and_is_thread_invariant() {
        let n = 200;
        let l = t(
            &[("a", DataType::Int), ("x", DataType::Str)],
            (0..n).map(|i| row![i % 17, format!("l{i}")]).collect(),
        );
        let r = t(
            &[("b", DataType::Int), ("y", DataType::Str)],
            (0..n).map(|i| row![i % 13, format!("r{i}")]).collect(),
        );
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::FullOuter] {
            let seq = hash_join(&l, &r, kind, &[0], &[0], None, out_schema()).unwrap();
            let mut orders = Vec::new();
            for threads in [1, 2, 8] {
                let par = hash_join_partitioned(
                    &l,
                    &r,
                    kind,
                    &[0],
                    &[0],
                    None,
                    out_schema(),
                    &crate::pool::WorkerPool::new(threads),
                    16,
                )
                .unwrap();
                assert!(par.bag_eq(&seq), "{kind:?} threads={threads}");
                orders.push(par.rows().to_vec());
            }
            // Bit-identical ordering across pool widths.
            assert_eq!(orders[0], orders[1], "{kind:?}");
            assert_eq!(orders[1], orders[2], "{kind:?}");
        }
    }

    #[test]
    fn empty_on_is_cross_join() {
        let out = hash_join(
            &left(),
            &right(),
            JoinKind::Inner,
            &[],
            &[],
            None,
            out_schema(),
        )
        .unwrap();
        assert_eq!(out.len(), 9);
    }
}
