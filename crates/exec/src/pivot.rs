//! Hash-based GPIVOT and GUNPIVOT execution.
//!
//! `GPIVOT` (Eq. 3) is defined in the paper as a full outer join of
//! per-group selections; executing it that way would be quadratic in the
//! number of groups, so we use the standard hash formulation instead: group
//! rows by their `K` projection and scatter each row's measures into the
//! wide output row of its dimension-value group. A `K` value appears in the
//! output iff at least one of its rows carries a listed group — exactly the
//! outer-join semantics.
//!
//! `GUNPIVOT` (Eq. 4) folds each listed group back into a narrow row,
//! skipping groups whose measures are all `⊥`.

use crate::error::{ExecError, Result};
use crate::pool::partition_by_hash;
use gpivot_algebra::plan::{PivotSpec, UnpivotSpec};
use gpivot_storage::{Row, RowMap, Schema, Table, Value};
use std::sync::Arc;

/// Column index layout for a pivot execution, resolved once per plan.
#[derive(Debug, Clone)]
pub struct PivotLayout {
    /// Indices of the `K` columns in the input.
    pub k_idx: Vec<usize>,
    /// Indices of the `by` (dimension) columns in the input.
    pub by_idx: Vec<usize>,
    /// Indices of the `on` (measure) columns in the input.
    pub on_idx: Vec<usize>,
    /// Output group lookup: dimension-value tuple → group index.
    pub group_lookup: RowMap<Row, usize>,
}

impl PivotLayout {
    /// Resolve the layout against the input schema.
    pub fn resolve(spec: &PivotSpec, input: &Schema) -> Result<PivotLayout> {
        let k_names = spec.validate(input)?;
        // `validate` guarantees these columns exist, but surface a lookup
        // miss as an error anyway — a panic here would take down a whole
        // refresh worker, an error just fails one view's refresh.
        let k_idx = k_names
            .iter()
            .map(|c| input.index_of(c))
            .collect::<gpivot_storage::Result<Vec<usize>>>()?;
        let by_idx = spec
            .by
            .iter()
            .map(|c| input.index_of(c))
            .collect::<gpivot_storage::Result<Vec<usize>>>()?;
        let on_idx = spec
            .on
            .iter()
            .map(|c| input.index_of(c))
            .collect::<gpivot_storage::Result<Vec<usize>>>()?;
        let group_lookup = spec
            .groups
            .iter()
            .enumerate()
            .map(|(i, g)| (Row::new(g.clone()), i))
            .collect();
        Ok(PivotLayout {
            k_idx,
            by_idx,
            on_idx,
            group_lookup,
        })
    }
}

/// Pivot the input rows at positions `indices` — the single-partition
/// core of both the sequential and the partitioned kernels. Wide rows are
/// emitted in first-seen order of their `K` projection over `indices`, so
/// the output order is a pure function of the input.
fn pivot_partition(
    input: &Table,
    indices: &[usize],
    spec: &PivotSpec,
    layout: &PivotLayout,
) -> Result<Vec<Row>> {
    let n_k = layout.k_idx.len();
    let n_on = layout.on_idx.len();
    let width = n_k + spec.groups.len() * n_on;

    // K projection → slot of the wide row under construction.
    let mut lookup: RowMap<Row, usize> = RowMap::default();
    let mut acc: Vec<Vec<Value>> = Vec::new();
    for &i in indices {
        let row = &input.rows()[i];
        let tags = row.project(&layout.by_idx);
        let Some(&gi) = layout.group_lookup.get(&tags) else {
            continue; // dimension combination not among the output parameters
        };
        // Rows whose measures are all ⊥ contribute nothing observable to
        // the pivot output and are skipped. This matches the paper's
        // standing assumption (footnote 8: "not all (b1..bn) are ⊥") and
        // makes the maintenance rule "delete the view row once all cells
        // are ⊥" (Fig. 22/23) exact.
        if layout.on_idx.iter().all(|&oi| row[oi].is_null()) {
            continue;
        }
        let k = row.project(&layout.k_idx);
        let slot = *lookup.entry(k.clone()).or_insert_with(|| {
            let mut v = Vec::with_capacity(width);
            v.extend(k.iter().cloned());
            v.extend(std::iter::repeat_n(Value::Null, width - n_k));
            acc.push(v);
            acc.len() - 1
        });
        let wide = &mut acc[slot];
        let base = n_k + gi * n_on;
        // (K, A1..Am) is a key: each cell is written at most once.
        if layout
            .on_idx
            .iter()
            .enumerate()
            .any(|(j, _)| !wide[base + j].is_null())
        {
            return Err(ExecError::DuplicatePivotCell {
                key: format!("{k:?}"),
                group: format!("{tags:?}"),
            });
        }
        for (j, &oi) in layout.on_idx.iter().enumerate() {
            wide[base + j] = row[oi].clone();
        }
    }

    Ok(acc.into_iter().map(Row::new).collect())
}

/// Execute a GPIVOT sequentially.
pub fn gpivot(input: &Table, spec: &PivotSpec, out_schema: Arc<Schema>) -> Result<Table> {
    let layout = PivotLayout::resolve(spec, input.schema())?;
    let indices: Vec<usize> = (0..input.len()).collect();
    let rows = pivot_partition(input, &indices, spec, &layout)?;
    Ok(Table::bag(out_schema, rows))
}

/// Execute a GPIVOT partitioned by the hash of the `K` columns.
///
/// All rows of one `K` value land in the same partition, so each wide
/// output row is assembled entirely within one partition and the
/// `(K, A1..Am)` key violation check ([`ExecError::DuplicatePivotCell`])
/// still sees every conflicting pair. Partitions run one after another
/// under one `op.GPivot` span and their outputs concatenate in
/// partition-index order.
pub fn gpivot_partitioned(
    input: &Table,
    spec: &PivotSpec,
    out_schema: Arc<Schema>,
    partitions: usize,
) -> Result<Table> {
    let _s = tracing::span("op.GPivot").enter();
    let layout = PivotLayout::resolve(spec, input.schema())?;
    let mut rows = Vec::new();
    for indices in partition_by_hash(input.rows(), &layout.k_idx, partitions) {
        rows.extend(pivot_partition(input, &indices, spec, &layout)?);
    }
    Ok(Table::bag(out_schema, rows))
}

/// Column index layout for an unpivot execution.
#[derive(Debug, Clone)]
pub struct UnpivotLayout {
    /// Indices of the carried-through `K` columns in the input.
    pub k_idx: Vec<usize>,
    /// Per group: input column indices of its measures.
    pub group_cols: Vec<Vec<usize>>,
}

impl UnpivotLayout {
    /// Resolve the layout against the input schema.
    pub fn resolve(spec: &UnpivotSpec, input: &Schema) -> Result<UnpivotLayout> {
        let k_names = spec.validate(input)?;
        let k_idx = k_names
            .iter()
            .map(|c| input.index_of(c))
            .collect::<gpivot_storage::Result<Vec<usize>>>()?;
        let group_cols = spec
            .groups
            .iter()
            .map(|g| {
                g.cols
                    .iter()
                    .map(|c| input.index_of(c))
                    .collect::<gpivot_storage::Result<Vec<usize>>>()
            })
            .collect::<gpivot_storage::Result<Vec<Vec<usize>>>>()?;
        Ok(UnpivotLayout { k_idx, group_cols })
    }
}

/// Execute a GUNPIVOT.
pub fn gunpivot(input: &Table, spec: &UnpivotSpec, out_schema: Arc<Schema>) -> Result<Table> {
    let layout = UnpivotLayout::resolve(spec, input.schema())?;
    let mut out = Vec::new();
    for row in input.iter() {
        for (g, cols) in spec.groups.iter().zip(&layout.group_cols) {
            // Skip groups whose measures are all ⊥ (Eq. 4's σ ≠ ⊥ filter).
            if cols.iter().all(|&c| row[c].is_null()) {
                continue;
            }
            let mut v = Vec::with_capacity(layout.k_idx.len() + g.tags.len() + cols.len());
            v.extend(layout.k_idx.iter().map(|&i| row[i].clone()));
            v.extend(g.tags.iter().cloned());
            v.extend(cols.iter().map(|&c| row[c].clone()));
            out.push(Row::new(v));
        }
    }
    Ok(Table::bag(out_schema, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_algebra::plan::UnpivotGroup;
    use gpivot_storage::{row, DataType};

    /// The ItemInfo table from Figure 1 of the paper.
    fn iteminfo() -> Table {
        let schema = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("AuctionID", DataType::Int),
                    ("Attribute", DataType::Str),
                    ("Value", DataType::Str),
                ],
                &["AuctionID", "Attribute"],
            )
            .unwrap(),
        );
        Table::from_rows(
            schema,
            vec![
                row![1, "Manufacturer", "Sony"],
                row![1, "Type", "TV"],
                row![2, "Manufacturer", "Panasonic"],
                row![3, "Type", "VCR"],
                row![1, "Category", "Electronics"],
            ],
        )
        .unwrap()
    }

    fn fig1_spec() -> PivotSpec {
        PivotSpec::simple(
            "Attribute",
            "Value",
            vec![Value::str("Manufacturer"), Value::str("Type")],
        )
    }

    fn fig1_out_schema() -> Arc<Schema> {
        let mut s = Schema::from_pairs(&[
            ("AuctionID", DataType::Int),
            ("Manufacturer**Value", DataType::Str),
            ("Type**Value", DataType::Str),
        ])
        .unwrap();
        s.set_key(vec![0]);
        Arc::new(s)
    }

    #[test]
    fn pivot_matches_figure_1() {
        let out = gpivot(&iteminfo(), &fig1_spec(), fig1_out_schema()).unwrap();
        let mut rows = out.sorted_rows();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                row![1, "Sony", "TV"],
                Row::new(vec![Value::Int(2), Value::str("Panasonic"), Value::Null]),
                Row::new(vec![Value::Int(3), Value::Null, Value::str("VCR")]),
            ]
        );
    }

    #[test]
    fn pivot_ignores_unlisted_attributes() {
        // "Category" is not in the output parameters: auction 1 still
        // appears (it has Manufacturer/Type) but no Category column exists.
        let out = gpivot(&iteminfo(), &fig1_spec(), fig1_out_schema()).unwrap();
        assert_eq!(out.schema().arity(), 3);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn pivot_key_only_from_listed_groups() {
        // An auction with *only* unlisted attributes must not appear.
        let schema = iteminfo().schema().clone();
        let t = Table::from_rows(schema, vec![row![9, "Category", "Toys"]]).unwrap();
        let out = gpivot(&t, &fig1_spec(), fig1_out_schema()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn pivot_detects_key_violation() {
        let schema = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("AuctionID", DataType::Int),
                    ("Attribute", DataType::Str),
                    ("Value", DataType::Str),
                ],
                &["AuctionID", "Attribute"],
            )
            .unwrap(),
        );
        // Bag with two rows for the same (1, Manufacturer) cell.
        let t = Table::bag(
            schema,
            vec![
                row![1, "Manufacturer", "Sony"],
                row![1, "Manufacturer", "JVC"],
            ],
        );
        assert!(matches!(
            gpivot(&t, &fig1_spec(), fig1_out_schema()),
            Err(ExecError::DuplicatePivotCell { .. })
        ));
    }

    /// A pivot over an integer dimension column, like TPC-H's
    /// `l_linenumber`: the `Float(2.0)` tag collects the `Int(2)` rows,
    /// and the unlisted line 3 adds no cell.
    #[test]
    fn pivot_over_an_integer_dimension_column() {
        let t = Table::bag(
            Arc::new(
                Schema::from_pairs(&[
                    ("k", DataType::Int),
                    ("line", DataType::Int),
                    ("price", DataType::Float),
                ])
                .unwrap(),
            ),
            vec![
                row![10, 1, 5.0],
                row![10, 2, 6.0],
                row![11, 1, 7.0],
                row![11, 3, 8.0],
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
        let out = gpivot(&t, &spec, os).unwrap();
        assert_eq!(
            out.rows(),
            &[
                row![10, 5.0, 6.0],
                Row::new(vec![Value::Int(11), Value::Float(7.0), Value::Null]),
            ]
        );
    }

    #[test]
    fn multicolumn_pivot_scatter() {
        // GPIVOT with two measures: Figure 5 shape.
        let schema = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("Country", DataType::Str),
                    ("Manu", DataType::Str),
                    ("Type", DataType::Str),
                    ("Price", DataType::Int),
                    ("Quantity", DataType::Int),
                ],
                &["Country", "Manu", "Type"],
            )
            .unwrap(),
        );
        let t = Table::from_rows(
            schema,
            vec![
                row!["USA", "Sony", "TV", 100, 10],
                row!["USA", "Sony", "VCR", 200, 20],
                row!["Japan", "Panasonic", "TV", 300, 30],
            ],
        )
        .unwrap();
        let spec = PivotSpec::cross(
            vec!["Manu", "Type"],
            vec!["Price", "Quantity"],
            vec![
                vec![Value::str("Sony"), Value::str("Panasonic")],
                vec![Value::str("TV"), Value::str("VCR")],
            ],
        );
        let mut out_s = Schema::from_pairs(&[
            ("Country", DataType::Str),
            ("Sony**TV**Price", DataType::Int),
            ("Sony**TV**Quantity", DataType::Int),
            ("Sony**VCR**Price", DataType::Int),
            ("Sony**VCR**Quantity", DataType::Int),
            ("Panasonic**TV**Price", DataType::Int),
            ("Panasonic**TV**Quantity", DataType::Int),
            ("Panasonic**VCR**Price", DataType::Int),
            ("Panasonic**VCR**Quantity", DataType::Int),
        ])
        .unwrap();
        out_s.set_key(vec![0]);
        let out = gpivot(&t, &spec, Arc::new(out_s)).unwrap();
        assert_eq!(out.len(), 2);
        let usa = out.iter().find(|r| r[0] == Value::str("USA")).unwrap();
        assert_eq!(usa[1], Value::Int(100));
        assert_eq!(usa[2], Value::Int(10));
        assert_eq!(usa[3], Value::Int(200));
        assert_eq!(usa[4], Value::Int(20));
        assert!(usa[5].is_null());
    }

    #[test]
    fn partitioned_pivot_agrees_with_sequential() {
        let schema = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("AuctionID", DataType::Int),
                    ("Attribute", DataType::Str),
                    ("Value", DataType::Str),
                ],
                &["AuctionID", "Attribute"],
            )
            .unwrap(),
        );
        let rows: Vec<Row> = (0..300)
            .flat_map(|id| {
                vec![
                    row![id, "Manufacturer", format!("m{}", id % 7)],
                    row![id, "Type", format!("t{}", id % 3)],
                ]
            })
            .collect();
        let t = Table::bag(schema, rows);
        let seq = gpivot(&t, &fig1_spec(), fig1_out_schema()).unwrap();
        let par = gpivot_partitioned(&t, &fig1_spec(), fig1_out_schema(), 16).unwrap();
        assert!(par.bag_eq(&seq));
    }

    #[test]
    fn partitioned_pivot_still_detects_key_violation() {
        let schema = iteminfo().schema().clone();
        let t = Table::bag(
            schema,
            vec![
                row![1, "Manufacturer", "Sony"],
                row![1, "Manufacturer", "JVC"],
            ],
        );
        let err = gpivot_partitioned(&t, &fig1_spec(), fig1_out_schema(), 16).unwrap_err();
        assert!(matches!(err, ExecError::DuplicatePivotCell { .. }));
    }

    #[test]
    fn unpivot_reverses_pivot() {
        let out = gpivot(&iteminfo(), &fig1_spec(), fig1_out_schema()).unwrap();
        let unspec = UnpivotSpec::new(
            vec![
                UnpivotGroup {
                    tags: vec![Value::str("Manufacturer")],
                    cols: vec!["Manufacturer**Value".into()],
                },
                UnpivotGroup {
                    tags: vec![Value::str("Type")],
                    cols: vec!["Type**Value".into()],
                },
            ],
            vec!["Attribute"],
            vec!["Value"],
        );
        let mut narrow_s = Schema::from_pairs(&[
            ("AuctionID", DataType::Int),
            ("Attribute", DataType::Str),
            ("Value", DataType::Str),
        ])
        .unwrap();
        narrow_s.set_key(vec![0, 1]);
        let back = gunpivot(&out, &unspec, Arc::new(narrow_s)).unwrap();
        // Round trip loses the unlisted "Category" row only.
        let mut rows = back.sorted_rows();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                row![1, "Manufacturer", "Sony"],
                row![1, "Type", "TV"],
                row![2, "Manufacturer", "Panasonic"],
                row![3, "Type", "VCR"],
            ]
        );
    }

    #[test]
    fn unpivot_skips_all_null_groups() {
        let schema = Arc::new(
            Schema::from_pairs(&[
                ("k", DataType::Int),
                ("a", DataType::Int),
                ("b", DataType::Int),
            ])
            .unwrap(),
        );
        let t = Table::bag(
            schema,
            vec![Row::new(vec![Value::Int(1), Value::Null, Value::Null])],
        );
        let spec = UnpivotSpec::simple(vec!["a", "b"], "which", "val");
        let out_s = Arc::new(
            Schema::from_pairs(&[
                ("k", DataType::Int),
                ("which", DataType::Str),
                ("val", DataType::Int),
            ])
            .unwrap(),
        );
        let out = gunpivot(&t, &spec, out_s).unwrap();
        assert!(out.is_empty());
    }
}
