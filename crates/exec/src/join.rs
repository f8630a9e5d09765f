//! Hash equi-joins: inner, left-outer, full-outer, with residual predicates.
//!
//! NULL join keys never match (SQL semantics); for outer joins, a row
//! counts as *matched* only if some probe pair also passes the residual
//! predicate — unmatched rows are padded with `⊥` on the other side, which
//! is exactly what the paper's outer-join-based pivot definition and update
//! propagation rules (Fig. 23: "left outer-join between delta and view")
//! expect.

use crate::error::Result;
use crate::pool::partition_by_hash;
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
/// are all per-bucket-correct. Buckets run one after another under one
/// `op.Join` span, and their outputs are concatenated in partition-index
/// order; the partitioning depends only on the data (a fixed-key hash),
/// so the result is deterministic.
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
    partitions: usize,
) -> Result<Table> {
    let _s = tracing::span("op.Join").enter();
    let lparts = partition_by_hash(left.rows(), left_on, partitions);
    let rparts = partition_by_hash(right.rows(), right_on, partitions);
    let out = lparts
        .iter()
        .zip(&rparts)
        .flat_map(|(lidx, ridx)| {
            join_partition(left, right, kind, left_on, right_on, residual, lidx, ridx)
        })
        .collect();
    Ok(Table::bag(out_schema, out))
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

    const BIG: i64 = (1 << 53) + 1;
    const BIG_F: f64 = (1i64 << 53) as f64;

    /// Keys of mixed type, with NULL and duplicate keys: the join
    /// equality traps. `Int(2⁵³ + 1)` must not match `Float(2⁵³)` (an
    /// `as f64` comparison would round them equal), while `Int(1)` and
    /// `Float(1.0)` are one key.
    fn mixed_key_fixture() -> (Table, Table, Arc<Schema>) {
        let l = t(
            &[("a", DataType::Any), ("x", DataType::Str)],
            vec![
                row![1, "l1"],
                row![2, "l2"],
                Row::new(vec![Value::Null, Value::str("lnull")]),
                row![BIG, "lbig"],
                row![1, "l1b"],
            ],
        );
        let r = t(
            &[("b", DataType::Any), ("y", DataType::Str)],
            vec![
                row![1.0, "r1"],
                row![BIG_F, "rbig_f"],
                Row::new(vec![Value::Null, Value::str("rnull")]),
                row![1, "r1b"],
                row![4, "r4"],
            ],
        );
        let os = Arc::new(
            Schema::from_pairs(&[
                ("a", DataType::Any),
                ("x", DataType::Str),
                ("b", DataType::Any),
                ("y", DataType::Str),
            ])
            .unwrap(),
        );
        (l, r, os)
    }

    /// A left row padded with ⊥ on the right.
    fn unmatched_left(a: Value, x: &str) -> Row {
        Row::new(vec![a, Value::str(x), Value::Null, Value::Null])
    }

    /// A right row padded with ⊥ on the left.
    fn unmatched_right(b: Value, y: &str) -> Row {
        Row::new(vec![Value::Null, Value::Null, b, Value::str(y)])
    }

    /// The inner matches of [`mixed_key_fixture`], in probe order.
    fn mixed_key_matches() -> [Row; 4] {
        [
            row![1, "l1", 1.0, "r1"],
            row![1, "l1", 1, "r1b"],
            row![1, "l1b", 1.0, "r1"],
            row![1, "l1b", 1, "r1b"],
        ]
    }

    /// The left-outer join of [`mixed_key_fixture`]: unmatched left rows
    /// are padded in place.
    fn mixed_key_left_outer() -> Vec<Row> {
        let [m0, m1, m2, m3] = mixed_key_matches();
        vec![
            m0,
            m1,
            unmatched_left(Value::Int(2), "l2"),
            unmatched_left(Value::Null, "lnull"),
            unmatched_left(Value::Int(BIG), "lbig"),
            m2,
            m3,
        ]
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
    fn partitioned_join_agrees_with_sequential() {
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
            let par =
                hash_join_partitioned(&l, &r, kind, &[0], &[0], None, out_schema(), 16).unwrap();
            assert!(par.bag_eq(&seq), "{kind:?}");
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

    /// Inner, left-outer and full-outer joins over [`mixed_key_fixture`],
    /// checked against concrete rows in probe order.
    #[test]
    fn mixed_null_and_duplicate_keys_join_exactly() {
        let (l, r, os) = mixed_key_fixture();
        let out = hash_join(&l, &r, JoinKind::Inner, &[0], &[0], None, os.clone()).unwrap();
        assert_eq!(out.rows(), &mixed_key_matches());
        let out = hash_join(&l, &r, JoinKind::LeftOuter, &[0], &[0], None, os.clone()).unwrap();
        assert_eq!(out.rows(), &mixed_key_left_outer()[..]);
        let out = hash_join(&l, &r, JoinKind::FullOuter, &[0], &[0], None, os).unwrap();
        let mut expect = mixed_key_left_outer();
        expect.extend([
            unmatched_right(Value::Float(BIG_F), "rbig_f"),
            unmatched_right(Value::Null, "rnull"),
            unmatched_right(Value::Int(4), "r4"),
        ]);
        assert_eq!(out.rows(), &expect[..]);
    }

    /// A residual predicate and an empty ON list over
    /// [`mixed_key_fixture`].
    #[test]
    fn mixed_key_residual_and_cross_join_exactly() {
        let (l, r, os) = mixed_key_fixture();
        let residual = Expr::col("y").eq(Expr::lit("r1b")).bind(&os).unwrap();
        let out = hash_join(
            &l,
            &r,
            JoinKind::LeftOuter,
            &[0],
            &[0],
            Some(&residual),
            os.clone(),
        )
        .unwrap();
        assert_eq!(
            out.rows(),
            &[
                row![1, "l1", 1, "r1b"],
                unmatched_left(Value::Int(2), "l2"),
                unmatched_left(Value::Null, "lnull"),
                unmatched_left(Value::Int(BIG), "lbig"),
                row![1, "l1b", 1, "r1b"],
            ]
        );
        // NULL keys take part too: every pair, in left-major order.
        let out = hash_join(&l, &r, JoinKind::Inner, &[], &[], None, os).unwrap();
        let expect: Vec<Row> = l
            .iter()
            .flat_map(|lr| r.iter().map(move |rr| lr.concat(rr)))
            .collect();
        assert_eq!(out.rows(), &expect[..]);
    }
}
