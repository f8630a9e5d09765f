//! Vectorized (column-at-a-time) kernels for Join, GroupBy, and GPIVOT.
//!
//! These kernels consume the [`Chunk`] a [`Table`] caches (typed column
//! vectors, dictionary-encoded strings, `⊥` validity bitmaps) instead of
//! walking `Row`s. Key hashing runs one column at a time over pre-built
//! hasher states ([`Chunk::hash_rows`]), key comparison uses the typed
//! fast paths of [`gpivot_storage::Column::value_eq`], aggregates
//! accumulate directly on `i64`/`f64` columns, and GPIVOT resolves a
//! row's dimension group by indexing a per-dictionary-code array instead
//! of hashing a `Value` tuple per row.
//!
//! **Bit-identity contract.** Every kernel here reproduces the exact
//! output (values *and* order) of its row-at-a-time counterpart in
//! [`crate::join`] / [`crate::group`] / [`crate::pivot`]:
//!
//! * partitioning hashes the same bytes ([`Chunk::hash_rows`] replicates
//!   `Value::hash`), so rows land in the same partitions;
//! * groups, pivot keys, and join matches are emitted in the same
//!   first-seen / probe order; hash buckets are disambiguated with exact
//!   `value_eq` comparisons, never by hash alone;
//! * typed aggregate accumulators perform the same arithmetic in the same
//!   order as the shared [`AggState`] (which remains the fallback for
//!   heterogeneous columns), so even float results are bit-identical.
//!
//! The engine picks these kernels unless [`crate::Executor::with_columnar`]
//! turns them off; the equivalence suite
//! (`crates/tpch/tests/columnar_equivalence.rs`) pins the contract.

use crate::error::{ExecError, Result};
use crate::group::AggState;
use crate::pivot::PivotLayout;
use crate::pool::WorkerPool;
use gpivot_algebra::plan::PivotSpec;
use gpivot_algebra::{AggFunc, AggSpec, BoundExpr, JoinKind};
use gpivot_storage::{Chunk, Column, ColumnData, Row, Schema, Table, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::sync::Arc;

/// Group pre-hashed rows into `partitions` buckets of row indices — the
/// columnar twin of [`crate::pool::partition_by_hash`]. The hashes come
/// from [`Chunk::hash_rows`], which writes the same bytes per key column
/// as `Value::hash`, so the assignment is identical to the row
/// partitioner's.
fn partition_indices(hashes: &[u64], partitions: usize) -> Vec<Vec<usize>> {
    let partitions = partitions.max(1);
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); partitions];
    for (i, &h) in hashes.iter().enumerate() {
        parts[(h % partitions as u64) as usize].push(i);
    }
    parts
}

/// Hash-partition a chunk's rows by the `key_idx` columns, column at a
/// time. Produces exactly the buckets `partition_by_hash` would produce
/// from the equivalent rows.
pub fn partition_by_hash_chunk(
    chunk: &Chunk,
    key_idx: &[usize],
    partitions: usize,
) -> Vec<Vec<usize>> {
    partition_indices(&chunk.hash_rows(key_idx, DefaultHasher::new), partitions)
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

/// The single-partition columnar join core. Build/probe key hashes are
/// precomputed per side; the build table maps a key *hash* to candidate
/// row indices (in `ridx` order) and every candidate is confirmed with
/// `rows_eq`, so hash collisions cannot create false matches and the
/// match emission order equals the row kernel's (probe in `lidx` order,
/// candidates in `ridx` order).
#[allow(clippy::too_many_arguments)]
fn join_partition_columnar(
    left: &Chunk,
    right: &Chunk,
    kind: JoinKind,
    left_on: &[usize],
    right_on: &[usize],
    residual: Option<&BoundExpr>,
    lhash: &[u64],
    rhash: &[u64],
    lidx: &[usize],
    ridx: &[usize],
) -> Vec<Row> {
    // Build side: right. NULL keys never join, so they never enter the map.
    let mut build: HashMap<u64, Vec<usize>> = HashMap::new();
    for &ri in ridx {
        if right.any_null(ri, right_on) {
            continue;
        }
        build.entry(rhash[ri]).or_default().push(ri);
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
    let n_right = right.arity();
    let n_left = left.arity();

    for &li in lidx {
        let mut matched = false;
        if !left.any_null(li, left_on) {
            if let Some(candidates) = build.get(&lhash[li]) {
                let mut lrow: Option<Row> = None;
                for &ri in candidates {
                    if !left.rows_eq(li, left_on, right, ri, right_on) {
                        continue; // same bucket, different key (hash collision)
                    }
                    let lrow = lrow.get_or_insert_with(|| left.row(li));
                    let joined = lrow.concat(&right.row(ri));
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
            out.push(left.row(li).pad_nulls(n_right));
        }
    }

    if kind == JoinKind::FullOuter {
        for &ri in ridx {
            if !right_matched[ri] {
                let mut v = vec![Value::Null; n_left];
                v.extend(right.row(ri).iter().cloned());
                out.push(Row::new(v));
            }
        }
    }

    out
}

/// Execute a hash equi-join sequentially on the columnar images.
pub fn hash_join_columnar(
    left: &Table,
    right: &Table,
    kind: JoinKind,
    left_on: &[usize],
    right_on: &[usize],
    residual: Option<&BoundExpr>,
    out_schema: Arc<Schema>,
) -> Result<Table> {
    let (lc, rc) = (left.chunk(), right.chunk());
    let lhash = lc.hash_rows(left_on, DefaultHasher::new);
    let rhash = rc.hash_rows(right_on, DefaultHasher::new);
    let lidx: Vec<usize> = (0..lc.len()).collect();
    let ridx: Vec<usize> = (0..rc.len()).collect();
    let out = join_partition_columnar(
        &lc, &rc, kind, left_on, right_on, residual, &lhash, &rhash, &lidx, &ridx,
    );
    Ok(Table::bag(out_schema, out))
}

/// Execute a hash equi-join partitioned by the hash of the join keys,
/// on the columnar images. The per-row key hashes are computed once and
/// reused for both the partitioning and the per-partition build/probe.
#[allow(clippy::too_many_arguments)]
pub fn hash_join_columnar_partitioned(
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
    let (lc, rc) = (left.chunk(), right.chunk());
    let lhash = lc.hash_rows(left_on, DefaultHasher::new);
    let rhash = rc.hash_rows(right_on, DefaultHasher::new);
    let lparts = partition_indices(&lhash, partitions);
    let rparts = partition_indices(&rhash, partitions);
    let jobs: Vec<(Vec<usize>, Vec<usize>)> = lparts.into_iter().zip(rparts).collect();
    let outs = pool.run_timed(
        "Join",
        "op.Join",
        "op.Join.partition",
        jobs,
        |(lidx, ridx)| {
            Ok(join_partition_columnar(
                &lc, &rc, kind, left_on, right_on, residual, &lhash, &rhash, &lidx, &ridx,
            ))
        },
    )?;
    Ok(Table::bag(out_schema, outs.into_iter().flatten().collect()))
}

// ---------------------------------------------------------------------------
// GroupBy
// ---------------------------------------------------------------------------

/// A per-(aggregate, input column) accumulator. Typed variants accumulate
/// directly on the column vector and perform the same arithmetic in the
/// same order as [`AggState`] over the materialized values, so results are
/// bit-identical; heterogeneous (`Mixed`) and cross-typed columns fall
/// back to [`AggState`] itself.
enum Acc<'a> {
    /// `COUNT(*)` — row count, no input column.
    CountStar { n: i64 },
    /// `COUNT(col)` over any encoding — only the validity bitmap matters.
    Count { col: &'a Column, n: i64 },
    /// `SUM`/`AVG` over an `Int64` column: exact `i64` accumulation,
    /// matching the row kernel's `Value::Int` chain (including its
    /// overflow behavior — plain `+` in both).
    SumI64 {
        col: &'a Column,
        vals: &'a [i64],
        acc: Option<i64>,
        n: i64,
        avg: bool,
    },
    /// `SUM`/`AVG` over a `Float64` column: `f64` folds in row order, the
    /// same additions `Value::numeric_add` performs.
    SumF64 {
        col: &'a Column,
        vals: &'a [f64],
        acc: Option<f64>,
        n: i64,
        avg: bool,
    },
    /// `MIN`/`MAX` over an `Int64` column (strict replacement, like the
    /// row kernel: ties keep the earlier value).
    MinMaxI64 {
        col: &'a Column,
        vals: &'a [i64],
        cur: Option<i64>,
        max: bool,
    },
    /// `MIN`/`MAX` over a `Float64` column. Comparison goes through
    /// `Value::total_cmp` so NaN normalization and `-0.0 == 0.0` agree
    /// exactly with the row kernel; the stored value keeps its raw bits.
    MinMaxF64 {
        col: &'a Column,
        vals: &'a [f64],
        cur: Option<f64>,
        max: bool,
    },
    /// Fallback: materialize each value and drive the shared row-kernel
    /// state (identical by construction, including typed AVG errors).
    Generic { col: &'a Column, state: AggState },
}

impl<'a> Acc<'a> {
    fn new(func: AggFunc, chunk: &'a Chunk, in_idx: usize) -> Acc<'a> {
        if in_idx == usize::MAX {
            return Acc::CountStar { n: 0 };
        }
        let col = chunk.column(in_idx);
        match (func, col.data()) {
            (AggFunc::CountStar, _) => Acc::CountStar { n: 0 },
            (AggFunc::Count, _) => Acc::Count { col, n: 0 },
            (AggFunc::Sum | AggFunc::Avg, ColumnData::Int64(vals)) => Acc::SumI64 {
                col,
                vals,
                acc: None,
                n: 0,
                avg: func == AggFunc::Avg,
            },
            (AggFunc::Sum | AggFunc::Avg, ColumnData::Float64(vals)) => Acc::SumF64 {
                col,
                vals,
                acc: None,
                n: 0,
                avg: func == AggFunc::Avg,
            },
            (AggFunc::Min | AggFunc::Max, ColumnData::Int64(vals)) => Acc::MinMaxI64 {
                col,
                vals,
                cur: None,
                max: func == AggFunc::Max,
            },
            (AggFunc::Min | AggFunc::Max, ColumnData::Float64(vals)) => Acc::MinMaxF64 {
                col,
                vals,
                cur: None,
                max: func == AggFunc::Max,
            },
            _ => Acc::Generic {
                col,
                state: AggState::new(func),
            },
        }
    }

    fn update(&mut self, i: usize) -> Result<()> {
        match self {
            Acc::CountStar { n } => *n += 1,
            Acc::Count { col, n } => {
                if !col.is_null(i) {
                    *n += 1;
                }
            }
            Acc::SumI64 {
                col, vals, acc, n, ..
            } => {
                if !col.is_null(i) {
                    *acc = Some(match *acc {
                        None => vals[i],
                        Some(a) => a + vals[i],
                    });
                    *n += 1;
                }
            }
            Acc::SumF64 {
                col, vals, acc, n, ..
            } => {
                if !col.is_null(i) {
                    *acc = Some(match *acc {
                        None => vals[i],
                        Some(a) => a + vals[i],
                    });
                    *n += 1;
                }
            }
            Acc::MinMaxI64 {
                col,
                vals,
                cur,
                max,
            } => {
                if !col.is_null(i) {
                    let x = vals[i];
                    let better = match *cur {
                        None => true,
                        Some(c) => {
                            if *max {
                                x > c
                            } else {
                                x < c
                            }
                        }
                    };
                    if better {
                        *cur = Some(x);
                    }
                }
            }
            Acc::MinMaxF64 {
                col,
                vals,
                cur,
                max,
            } => {
                if !col.is_null(i) {
                    let x = vals[i];
                    let better = match *cur {
                        None => true,
                        Some(c) => {
                            let ord = Value::Float(x).total_cmp(&Value::Float(c));
                            if *max {
                                ord == std::cmp::Ordering::Greater
                            } else {
                                ord == std::cmp::Ordering::Less
                            }
                        }
                    };
                    if better {
                        *cur = Some(x);
                    }
                }
            }
            Acc::Generic { col, state } => state.update(&col.value(i))?,
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            Acc::CountStar { n } | Acc::Count { n, .. } => Value::Int(n),
            Acc::SumI64 { acc, n, avg, .. } => {
                if avg {
                    match (acc, n) {
                        (None, _) | (_, 0) => Value::Null,
                        (Some(s), n) => Value::Float(s as f64 / n as f64),
                    }
                } else {
                    acc.map(Value::Int).unwrap_or(Value::Null)
                }
            }
            Acc::SumF64 { acc, n, avg, .. } => {
                if avg {
                    match (acc, n) {
                        (None, _) | (_, 0) => Value::Null,
                        (Some(s), n) => Value::Float(s / n as f64),
                    }
                } else {
                    acc.map(Value::Float).unwrap_or(Value::Null)
                }
            }
            Acc::MinMaxI64 { cur, .. } => cur.map(Value::Int).unwrap_or(Value::Null),
            Acc::MinMaxF64 { cur, .. } => cur.map(Value::Float).unwrap_or(Value::Null),
            Acc::Generic { state, .. } => state.finish(),
        }
    }
}

/// The single-partition columnar aggregation core. Group keys are
/// deduplicated through their precomputed hashes plus an exact `rows_eq`
/// confirmation against each group's representative (first) row; groups
/// finish in first-seen order, exactly like the row kernel.
fn group_partition_columnar(
    input: &Chunk,
    indices: &[usize],
    group_idx: &[usize],
    hashes: &[u64],
    aggs: &[AggSpec],
    agg_inputs: &[usize],
) -> Result<Vec<Row>> {
    let mut lookup: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut reps: Vec<usize> = Vec::new();
    let mut states: Vec<Vec<Acc>> = Vec::new();
    for &i in indices {
        let bucket = lookup.entry(hashes[i]).or_default();
        let found = bucket
            .iter()
            .copied()
            .find(|&s| input.rows_eq(i, group_idx, input, reps[s], group_idx));
        let slot = match found {
            Some(s) => s,
            None => {
                reps.push(i);
                states.push(
                    aggs.iter()
                        .zip(agg_inputs)
                        .map(|(a, &ii)| Acc::new(a.func, input, ii))
                        .collect(),
                );
                let s = states.len() - 1;
                bucket.push(s);
                s
            }
        };
        for acc in &mut states[slot] {
            acc.update(i)?;
        }
    }
    let mut rows = Vec::with_capacity(reps.len());
    for (&rep, states) in reps.iter().zip(states) {
        let mut out = input.project_row(rep, group_idx).to_vec();
        out.extend(states.into_iter().map(Acc::finish));
        rows.push(Row::new(out));
    }
    Ok(rows)
}

/// Execute a hash aggregation sequentially on the columnar image.
pub fn hash_group_by_columnar(
    input: &Table,
    group_idx: &[usize],
    aggs: &[AggSpec],
    agg_inputs: &[usize],
    out_schema: Arc<Schema>,
) -> Result<Table> {
    let chunk = input.chunk();
    let hashes = chunk.hash_rows(group_idx, DefaultHasher::new);
    let indices: Vec<usize> = (0..chunk.len()).collect();
    let rows = group_partition_columnar(&chunk, &indices, group_idx, &hashes, aggs, agg_inputs)?;
    Ok(Table::bag(out_schema, rows))
}

/// Execute a hash aggregation partitioned by the hash of the group key,
/// on the columnar image. Key hashes are computed once for both the
/// partitioning and the per-partition deduplication.
pub fn hash_group_by_columnar_partitioned(
    input: &Table,
    group_idx: &[usize],
    aggs: &[AggSpec],
    agg_inputs: &[usize],
    out_schema: Arc<Schema>,
    pool: &WorkerPool,
    partitions: usize,
) -> Result<Table> {
    let chunk = input.chunk();
    let hashes = chunk.hash_rows(group_idx, DefaultHasher::new);
    let jobs = partition_indices(&hashes, partitions);
    let outs = pool.run_timed(
        "GroupBy",
        "op.GroupBy",
        "op.GroupBy.partition",
        jobs,
        |indices| group_partition_columnar(&chunk, &indices, group_idx, &hashes, aggs, agg_inputs),
    )?;
    Ok(Table::bag(out_schema, outs.into_iter().flatten().collect()))
}

// ---------------------------------------------------------------------------
// GPIVOT
// ---------------------------------------------------------------------------

/// How a row's dimension values resolve to an output group index.
enum TagDispatch<'a> {
    /// Single dictionary-encoded `by` column: the group of every distinct
    /// string is looked up once, then per row the dispatch is
    /// `map[code]` — an array index, no hashing, no `Value`.
    Dict {
        col: &'a Column,
        codes: &'a [u32],
        map: Vec<Option<usize>>,
        null_group: Option<usize>,
    },
    /// Single `Int64` `by` column: group per distinct integer via a small
    /// `i64` map (covers the TPC-H line-number pivots).
    Int {
        col: &'a Column,
        vals: &'a [i64],
        map: HashMap<i64, usize>,
        null_group: Option<usize>,
    },
    /// Anything else: materialize the dimension tuple and consult the
    /// layout's `Row`-keyed lookup, like the row kernel.
    Generic,
}

impl<'a> TagDispatch<'a> {
    fn resolve(chunk: &'a Chunk, layout: &PivotLayout) -> TagDispatch<'a> {
        let [bi] = layout.by_idx[..] else {
            return TagDispatch::Generic;
        };
        let col = chunk.column(bi);
        let null_group = layout
            .group_lookup
            .get(&Row::new(vec![Value::Null]))
            .copied();
        match col.data() {
            ColumnData::Dict { codes, dict } => {
                let map = dict
                    .iter()
                    .map(|s| {
                        layout
                            .group_lookup
                            .get(&Row::new(vec![Value::Str(Arc::clone(s))]))
                            .copied()
                    })
                    .collect();
                TagDispatch::Dict {
                    col,
                    codes,
                    map,
                    null_group,
                }
            }
            ColumnData::Int64(vals) => {
                // The Row-keyed lookup matches under Value equality, where
                // Int(5) == Float(5.0): register a group under its exact
                // integer representation when it has one.
                let mut map = HashMap::with_capacity(layout.group_lookup.len());
                for (tags, &gi) in &layout.group_lookup {
                    match &tags.values()[0] {
                        Value::Int(x) => {
                            map.insert(*x, gi);
                        }
                        Value::Float(f) => {
                            const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
                            if *f == f.trunc() && *f >= -TWO_POW_63 && *f < TWO_POW_63 {
                                map.insert(*f as i64, gi);
                            }
                        }
                        _ => {}
                    }
                }
                TagDispatch::Int {
                    col,
                    vals,
                    map,
                    null_group,
                }
            }
            _ => TagDispatch::Generic,
        }
    }

    /// The output group of row `i`, if its dimension values are listed.
    fn group_of(&self, chunk: &Chunk, i: usize, layout: &PivotLayout) -> Option<usize> {
        match self {
            TagDispatch::Dict {
                col,
                codes,
                map,
                null_group,
            } => {
                if col.is_null(i) {
                    *null_group
                } else {
                    map[codes[i] as usize]
                }
            }
            TagDispatch::Int {
                col,
                vals,
                map,
                null_group,
            } => {
                if col.is_null(i) {
                    *null_group
                } else {
                    map.get(&vals[i]).copied()
                }
            }
            TagDispatch::Generic => layout
                .group_lookup
                .get(&chunk.project_row(i, &layout.by_idx))
                .copied(),
        }
    }
}

/// The single-partition columnar pivot core. `K` values deduplicate via
/// precomputed hashes + exact `rows_eq`; wide rows are emitted in
/// first-seen `K` order and the `(K, A1..Am)` key violation check fires on
/// exactly the same row the row kernel would reject.
fn pivot_partition_columnar(
    input: &Chunk,
    indices: &[usize],
    spec: &PivotSpec,
    layout: &PivotLayout,
    dispatch: &TagDispatch,
    khash: &[u64],
) -> Result<Vec<Row>> {
    let n_k = layout.k_idx.len();
    let n_on = layout.on_idx.len();
    let width = n_k + spec.groups.len() * n_on;

    let mut lookup: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut reps: Vec<usize> = Vec::new();
    let mut acc: Vec<Vec<Value>> = Vec::new();
    for &i in indices {
        let Some(gi) = dispatch.group_of(input, i, layout) else {
            continue; // dimension combination not among the output parameters
        };
        // All-⊥ measures contribute nothing observable (paper footnote 8);
        // same skip as the row kernel.
        if input.all_null(i, &layout.on_idx) {
            continue;
        }
        let bucket = lookup.entry(khash[i]).or_default();
        let found = bucket
            .iter()
            .copied()
            .find(|&s| input.rows_eq(i, &layout.k_idx, input, reps[s], &layout.k_idx));
        let slot = match found {
            Some(s) => s,
            None => {
                let mut v = Vec::with_capacity(width);
                v.extend(layout.k_idx.iter().map(|&k| input.value(i, k)));
                v.extend(std::iter::repeat_n(Value::Null, width - n_k));
                reps.push(i);
                acc.push(v);
                let s = acc.len() - 1;
                bucket.push(s);
                s
            }
        };
        let wide = &mut acc[slot];
        let base = n_k + gi * n_on;
        // (K, A1..Am) is a key: each cell is written at most once.
        if (0..n_on).any(|j| !wide[base + j].is_null()) {
            return Err(ExecError::DuplicatePivotCell {
                key: format!("{:?}", input.project_row(i, &layout.k_idx)),
                group: format!("{:?}", input.project_row(i, &layout.by_idx)),
            });
        }
        for (j, &oi) in layout.on_idx.iter().enumerate() {
            wide[base + j] = input.value(i, oi);
        }
    }

    Ok(acc.into_iter().map(Row::new).collect())
}

/// Execute a GPIVOT sequentially on the columnar image.
pub fn gpivot_columnar(input: &Table, spec: &PivotSpec, out_schema: Arc<Schema>) -> Result<Table> {
    let layout = PivotLayout::resolve(spec, input.schema())?;
    let chunk = input.chunk();
    let khash = chunk.hash_rows(&layout.k_idx, DefaultHasher::new);
    let dispatch = TagDispatch::resolve(&chunk, &layout);
    let indices: Vec<usize> = (0..chunk.len()).collect();
    let rows = pivot_partition_columnar(&chunk, &indices, spec, &layout, &dispatch, &khash)?;
    Ok(Table::bag(out_schema, rows))
}

/// Execute a GPIVOT partitioned by the hash of the `K` columns, on the
/// columnar image. `K` hashes are computed once for both the partitioning
/// and the per-partition deduplication; the tag dispatch table is resolved
/// once and shared by every partition.
pub fn gpivot_columnar_partitioned(
    input: &Table,
    spec: &PivotSpec,
    out_schema: Arc<Schema>,
    pool: &WorkerPool,
    partitions: usize,
) -> Result<Table> {
    let layout = PivotLayout::resolve(spec, input.schema())?;
    let chunk = input.chunk();
    let khash = chunk.hash_rows(&layout.k_idx, DefaultHasher::new);
    let dispatch = TagDispatch::resolve(&chunk, &layout);
    let jobs = partition_indices(&khash, partitions);
    let outs = pool.run_timed(
        "GPivot",
        "op.GPivot",
        "op.GPivot.partition",
        jobs,
        |indices| pivot_partition_columnar(&chunk, &indices, spec, &layout, &dispatch, &khash),
    )?;
    Ok(Table::bag(out_schema, outs.into_iter().flatten().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{hash_group_by, hash_group_by_partitioned};
    use crate::join::{hash_join, hash_join_partitioned};
    use crate::pivot::{gpivot, gpivot_partitioned};
    use gpivot_algebra::Expr;
    use gpivot_storage::{row, DataType};

    fn t(cols: &[(&str, DataType)], rows: Vec<Row>) -> Table {
        Table::bag(Arc::new(Schema::from_pairs(cols).unwrap()), rows)
    }

    /// A mixed-key left/right pair with NULL keys, duplicate keys, and an
    /// Int/Float key overlap (2⁵³ boundary) — the join equality traps.
    fn join_fixture() -> (Table, Table, Arc<Schema>) {
        const BIG: i64 = (1 << 53) + 1;
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
                row![(1i64 << 53) as f64, "rbig_f"],
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

    #[test]
    fn columnar_join_is_bit_identical_to_row_join() {
        let (l, r, os) = join_fixture();
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::FullOuter] {
            let rows = hash_join(&l, &r, kind, &[0], &[0], None, os.clone()).unwrap();
            let cols = hash_join_columnar(&l, &r, kind, &[0], &[0], None, os.clone()).unwrap();
            assert_eq!(cols.rows(), rows.rows(), "{kind:?}");
        }
        // Int(2^53 + 1) must NOT match Float(2^53): exact comparison.
        let cols = hash_join_columnar(&l, &r, JoinKind::Inner, &[0], &[0], None, os).unwrap();
        assert!(!cols
            .iter()
            .any(|r| r[1] == Value::str("lbig") && !r[2].is_null()));
    }

    #[test]
    fn columnar_join_residual_and_cross_agree() {
        let (l, r, os) = join_fixture();
        let residual = Expr::col("y").eq(Expr::lit("r1b")).bind(&os).unwrap();
        let rows = hash_join(
            &l,
            &r,
            JoinKind::LeftOuter,
            &[0],
            &[0],
            Some(&residual),
            os.clone(),
        )
        .unwrap();
        let cols = hash_join_columnar(
            &l,
            &r,
            JoinKind::LeftOuter,
            &[0],
            &[0],
            Some(&residual),
            os.clone(),
        )
        .unwrap();
        assert_eq!(cols.rows(), rows.rows());
        // Empty `on`: cross join degenerates identically.
        let rows = hash_join(&l, &r, JoinKind::Inner, &[], &[], None, os.clone()).unwrap();
        let cols = hash_join_columnar(&l, &r, JoinKind::Inner, &[], &[], None, os).unwrap();
        assert_eq!(cols.rows(), rows.rows());
    }

    #[test]
    fn columnar_partitioned_join_matches_row_partitioned_join() {
        let n = 300;
        let l = t(
            &[("a", DataType::Int), ("x", DataType::Str)],
            (0..n).map(|i| row![i % 17, format!("l{i}")]).collect(),
        );
        let r = t(
            &[("b", DataType::Int), ("y", DataType::Str)],
            (0..n).map(|i| row![i % 13, format!("r{i}")]).collect(),
        );
        let os = Arc::new(
            Schema::from_pairs(&[
                ("a", DataType::Int),
                ("x", DataType::Str),
                ("b", DataType::Int),
                ("y", DataType::Str),
            ])
            .unwrap(),
        );
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::FullOuter] {
            let rows = hash_join_partitioned(
                &l,
                &r,
                kind,
                &[0],
                &[0],
                None,
                os.clone(),
                &WorkerPool::new(1),
                16,
            )
            .unwrap();
            for threads in [1, 2, 4] {
                let cols = hash_join_columnar_partitioned(
                    &l,
                    &r,
                    kind,
                    &[0],
                    &[0],
                    None,
                    os.clone(),
                    &WorkerPool::new(threads),
                    16,
                )
                .unwrap();
                assert_eq!(cols.rows(), rows.rows(), "{kind:?} threads={threads}");
            }
        }
    }

    /// Aggregation fixture with NULLs, a 2⁵³-boundary SUM/AVG, float
    /// measures with -0.0/NaN, and a Mixed (Int-and-Float) column that
    /// forces the generic fallback.
    fn group_fixture() -> Table {
        const BIG: i64 = 1 << 53;
        t(
            &[
                ("g", DataType::Str),
                ("i", DataType::Int),
                ("f", DataType::Float),
                ("m", DataType::Any),
            ],
            vec![
                row!["a", BIG, 1.5, 1],
                row!["a", 1, -0.0, 2.5],
                Row::new(vec![
                    Value::str("a"),
                    Value::Null,
                    Value::Float(0.0),
                    Value::Null,
                ]),
                row!["b", 5, f64::NAN, 7],
                row!["a", 1, 2.25, 4],
                row!["b", -3, 0.5, 1.5],
            ],
        )
    }

    fn group_out_schema() -> Arc<Schema> {
        Arc::new(
            Schema::from_pairs(&[
                ("g", DataType::Str),
                ("si", DataType::Int),
                ("ai", DataType::Float),
                ("sf", DataType::Float),
                ("lo", DataType::Float),
                ("hi", DataType::Float),
                ("ci", DataType::Int),
                ("cs", DataType::Int),
                ("sm", DataType::Any),
                ("lm", DataType::Any),
            ])
            .unwrap(),
        )
    }

    fn all_aggs() -> (Vec<AggSpec>, Vec<usize>) {
        (
            vec![
                AggSpec::sum("i", "si"),
                AggSpec::avg("i", "ai"),
                AggSpec::sum("f", "sf"),
                AggSpec::min("f", "lo"),
                AggSpec::max("f", "hi"),
                AggSpec::count("i", "ci"),
                AggSpec::count_star("cs"),
                AggSpec::sum("m", "sm"),
                AggSpec::min("m", "lm"),
            ],
            vec![1, 1, 2, 2, 2, 1, usize::MAX, 3, 3],
        )
    }

    #[test]
    fn columnar_group_by_is_bit_identical_to_row_group_by() {
        let input = group_fixture();
        let (aggs, inputs) = all_aggs();
        let rows = hash_group_by(&input, &[0], &aggs, &inputs, group_out_schema()).unwrap();
        let cols =
            hash_group_by_columnar(&input, &[0], &aggs, &inputs, group_out_schema()).unwrap();
        assert_eq!(cols.rows(), rows.rows());
        // AVG at the 2^53 boundary: the i64 accumulator must stay exact.
        let a = cols.iter().find(|r| r[0] == Value::str("a")).unwrap();
        assert_eq!(a[1], Value::Int((1i64 << 53) + 2));
        assert_eq!(a[2], Value::Float(((1i64 << 53) + 2) as f64 / 3.0));
    }

    #[test]
    fn columnar_global_aggregate_matches_row_kernel() {
        let input = group_fixture();
        let os = Arc::new(Schema::from_pairs(&[("n", DataType::Int)]).unwrap());
        let rows = hash_group_by(
            &input,
            &[],
            &[AggSpec::count_star("n")],
            &[usize::MAX],
            os.clone(),
        )
        .unwrap();
        let cols =
            hash_group_by_columnar(&input, &[], &[AggSpec::count_star("n")], &[usize::MAX], os)
                .unwrap();
        assert_eq!(cols.rows(), rows.rows());
    }

    #[test]
    fn columnar_avg_rejects_non_numeric_like_row_kernel() {
        let input = t(
            &[("g", DataType::Str), ("v", DataType::Str)],
            vec![row!["a", "not-a-number"]],
        );
        let os =
            Arc::new(Schema::from_pairs(&[("g", DataType::Str), ("a", DataType::Float)]).unwrap());
        let err =
            hash_group_by_columnar(&input, &[0], &[AggSpec::avg("v", "a")], &[1], os).unwrap_err();
        assert!(matches!(
            err,
            ExecError::AggregateTypeMismatch { func: "AVG", .. }
        ));
    }

    #[test]
    fn columnar_partitioned_group_by_matches_row_partitioned() {
        let input = t(
            &[("g", DataType::Int), ("v", DataType::Int)],
            (0..500).map(|i| row![i % 23, i]).collect(),
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
        let rows = hash_group_by_partitioned(
            &input,
            &[0],
            &aggs,
            &[1, 1, 1],
            os.clone(),
            &WorkerPool::new(1),
            16,
        )
        .unwrap();
        for threads in [1, 2, 4] {
            let cols = hash_group_by_columnar_partitioned(
                &input,
                &[0],
                &aggs,
                &[1, 1, 1],
                os.clone(),
                &WorkerPool::new(threads),
                16,
            )
            .unwrap();
            assert_eq!(cols.rows(), rows.rows(), "threads={threads}");
        }
    }

    /// The ItemInfo pivot from Figure 1 — a dictionary-encoded `by` column,
    /// so the dispatch takes the dict-code fast path.
    fn iteminfo() -> (Table, PivotSpec, Arc<Schema>) {
        let schema = Arc::new(
            Schema::from_pairs(&[
                ("AuctionID", DataType::Int),
                ("Attribute", DataType::Str),
                ("Value", DataType::Str),
            ])
            .unwrap(),
        );
        let input = Table::bag(
            schema,
            vec![
                row![1, "Manufacturer", "Sony"],
                row![1, "Type", "TV"],
                row![2, "Manufacturer", "Panasonic"],
                row![3, "Type", "VCR"],
                row![1, "Category", "Electronics"],
            ],
        );
        let spec = PivotSpec::simple(
            "Attribute",
            "Value",
            vec![Value::str("Manufacturer"), Value::str("Type")],
        );
        let out = Arc::new(
            Schema::from_pairs(&[
                ("AuctionID", DataType::Int),
                ("Manufacturer**Value", DataType::Str),
                ("Type**Value", DataType::Str),
            ])
            .unwrap(),
        );
        (input, spec, out)
    }

    #[test]
    fn columnar_pivot_dict_dispatch_is_bit_identical() {
        let (input, spec, os) = iteminfo();
        let chunk = input.chunk();
        let layout = PivotLayout::resolve(&spec, input.schema()).unwrap();
        assert!(matches!(
            TagDispatch::resolve(&chunk, &layout),
            TagDispatch::Dict { .. }
        ));
        let rows = gpivot(&input, &spec, os.clone()).unwrap();
        let cols = gpivot_columnar(&input, &spec, os).unwrap();
        assert_eq!(cols.rows(), rows.rows());
    }

    #[test]
    fn columnar_pivot_int_dispatch_is_bit_identical() {
        // Line-number style pivot: integer `by` column (the TPC-H shape),
        // with a Float group value that must still match its Int rows.
        let schema = Arc::new(
            Schema::from_pairs(&[
                ("k", DataType::Int),
                ("line", DataType::Int),
                ("price", DataType::Float),
            ])
            .unwrap(),
        );
        let input = Table::bag(
            schema,
            vec![
                row![10, 1, 5.0],
                row![10, 2, 6.0],
                row![11, 1, 7.0],
                row![11, 3, 8.0], // line 3 unlisted
            ],
        );
        let spec = PivotSpec::simple("line", "price", vec![Value::Int(1), Value::Float(2.0)]);
        let os = Arc::new(
            Schema::from_pairs(&[
                ("k", DataType::Int),
                ("1**price", DataType::Float),
                ("2**price", DataType::Float),
            ])
            .unwrap(),
        );
        let chunk = input.chunk();
        let layout = PivotLayout::resolve(&spec, input.schema()).unwrap();
        assert!(matches!(
            TagDispatch::resolve(&chunk, &layout),
            TagDispatch::Int { .. }
        ));
        let rows = gpivot(&input, &spec, os.clone()).unwrap();
        let cols = gpivot_columnar(&input, &spec, os).unwrap();
        assert_eq!(cols.rows(), rows.rows());
        assert_eq!(cols.len(), 2);
        assert_eq!(
            cols.rows()[0][2],
            Value::Float(6.0),
            "Float(2.0) group caught Int(2) rows"
        );
    }

    #[test]
    fn columnar_pivot_detects_key_violation() {
        let (input, spec, os) = iteminfo();
        let dup = Table::bag(
            input.schema().clone(),
            vec![
                row![1, "Manufacturer", "Sony"],
                row![1, "Manufacturer", "JVC"],
            ],
        );
        assert!(matches!(
            gpivot_columnar(&dup, &spec, os.clone()),
            Err(ExecError::DuplicatePivotCell { .. })
        ));
        assert!(matches!(
            gpivot_columnar_partitioned(&dup, &spec, os, &WorkerPool::new(4), 16),
            Err(ExecError::DuplicatePivotCell { .. })
        ));
    }

    #[test]
    fn columnar_partitioned_pivot_matches_row_partitioned() {
        let schema = Arc::new(
            Schema::from_pairs(&[
                ("AuctionID", DataType::Int),
                ("Attribute", DataType::Str),
                ("Value", DataType::Str),
            ])
            .unwrap(),
        );
        let rows_in: Vec<Row> = (0..300)
            .flat_map(|id| {
                vec![
                    row![id, "Manufacturer", format!("m{}", id % 7)],
                    row![id, "Type", format!("t{}", id % 3)],
                ]
            })
            .collect();
        let input = Table::bag(schema, rows_in);
        let (_, spec, os) = iteminfo();
        let rows = gpivot_partitioned(&input, &spec, os.clone(), &WorkerPool::new(1), 16).unwrap();
        for threads in [1, 2, 4] {
            let cols = gpivot_columnar_partitioned(
                &input,
                &spec,
                os.clone(),
                &WorkerPool::new(threads),
                16,
            )
            .unwrap();
            assert_eq!(cols.rows(), rows.rows(), "threads={threads}");
        }
    }

    #[test]
    fn chunk_partitioning_matches_row_partitioning() {
        let (l, _, _) = join_fixture();
        let got = partition_by_hash_chunk(&l.chunk(), &[0, 1], 8);
        let expect = crate::pool::partition_by_hash(l.rows(), &[0, 1], 8);
        assert_eq!(got, expect);
    }
}
