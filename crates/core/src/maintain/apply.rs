//! The **apply phase** for a top-level GPIVOT: the update propagation rules
//! of Fig. 23, realized as a MERGE against the materialized view.
//!
//! Given the final delta over the pivot *input* (the relational core), each
//! affected key's view row is updated in place: deleted source rows `⊥`-out
//! their cells, inserted source rows overwrite theirs; a row whose cells
//! all become `⊥` is deleted from the view, and a fresh key with any
//! non-`⊥` cell is inserted. This is exactly the paper's left-outer-join
//! MERGE (§7.1) without ever touching unaffected rows.
//!
//! The MERGE is computed in two halves so a service can do the fallible
//! half off to the side: `plan_*_update` reads the view and returns the
//! row-level patch (a list of [`RowOp`]s, each view key at most once);
//! [`apply_row_ops`] writes it in place and cannot fail.

use crate::error::{CoreError, Result};
use gpivot_algebra::PivotSpec;
use gpivot_exec::pivot::PivotLayout;
use gpivot_storage::{Row, Schema, Table, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Row-level effect counters from an apply phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyStats {
    pub inserted: usize,
    pub updated: usize,
    pub deleted: usize,
}

impl ApplyStats {
    /// Total rows touched.
    pub fn total(&self) -> usize {
        self.inserted + self.updated + self.deleted
    }
}

/// One keyed write of a MERGE against a materialized view.
#[derive(Debug, Clone, PartialEq)]
pub enum RowOp {
    /// Remove the row stored under this key.
    Delete(Row),
    /// Replace the row stored under this key (the new row has the same key).
    Update(Row, Row),
    /// Add a row whose key the view does not hold.
    Insert(Row),
}

/// The MERGE decision for one view key, shared by the three update-rule
/// strategies: `row` is the key's post-state row and `existing` the row
/// the view holds under the key now, if any. All-`⊥` measures (past the
/// `n_k` key columns) or a failed `keep` test mean the row must not be in
/// the view; a post-state equal to the stored row writes nothing.
pub(crate) fn merge_key(
    ops: &mut Vec<RowOp>,
    stats: &mut ApplyStats,
    key: Row,
    row: Row,
    n_k: usize,
    existing: Option<&Row>,
    keep: impl FnOnce(&Row) -> bool,
) {
    let stays = !row.values()[n_k..].iter().all(Value::is_null) && keep(&row);
    match (existing, stays) {
        (Some(_), false) => {
            ops.push(RowOp::Delete(key));
            stats.deleted += 1;
        }
        (Some(old), true) if *old == row => {} // no-op: changes that cancel
        (Some(_), true) => {
            ops.push(RowOp::Update(key, row));
            stats.updated += 1;
        }
        (None, false) => {} // no-op: deletes for an absent key
        (None, true) => {
            ops.push(RowOp::Insert(row));
            stats.inserted += 1;
        }
    }
}

/// Write a patch computed against `mv`'s current state into it, in place.
/// Infallible by construction of the patch: deletes and updates name keys
/// the table holds, inserts name keys it does not.
///
/// `mirror`, when given, is a vector position-for-position parallel to
/// `mv.rows()` — each entry its row projected onto the column list beside
/// it — and gets the same writes, at the positions the keyed ops resolve
/// anyway. A holder sharing it makes the first write detach a copy.
pub fn apply_row_ops(
    mv: &mut Table,
    ops: Vec<RowOp>,
    mut mirror: Option<(&mut Arc<Vec<Row>>, &[usize])>,
) {
    for op in ops {
        match op {
            RowOp::Delete(key) => {
                if let (Some((pos, _)), Some((rows, _))) = (mv.delete_by_key(&key), &mut mirror) {
                    Arc::make_mut(rows).swap_remove(pos);
                }
            }
            RowOp::Update(key, row) => {
                if let (Some((pos, _)), Some((rows, idx))) =
                    (mv.update_by_key(&key, row), &mut mirror)
                {
                    Arc::make_mut(rows)[pos] = mv.rows()[pos].project(idx);
                }
            }
            RowOp::Insert(row) => {
                let inserted = mv.insert(row);
                debug_assert!(inserted.is_ok(), "patch insert refused: {inserted:?}");
                if let (Ok(()), Some((rows, idx))) = (inserted, &mut mirror) {
                    Arc::make_mut(rows).extend(mv.rows().last().map(|r| r.project(idx)));
                }
            }
        }
    }
}

/// One key's pending cell changes: `(group index, signed weight, measures)`.
type CellChanges = Vec<(usize, i64, Vec<Value>)>;

/// Collect the per-key cell changes carried by a pivot-input delta, given
/// as signed rows in which equal rows may repeat.
///
/// Rows whose dimension tuple is not an output parameter, or whose measures
/// are all `⊥`, are irrelevant to the pivot output and skipped. Under each
/// key the weights of equal `(cell, measures)` entries are added up, and
/// entries (and keys) that sum to zero are dropped: a core row is exactly
/// `K ∪ by ∪ on`, so this is whole-row consolidation, done only for the
/// rows the pivot keeps.
pub fn collect_cell_changes(
    delta_core: &[(Row, i64)],
    layout: &PivotLayout,
) -> HashMap<Row, CellChanges> {
    let mut by_key: HashMap<Row, CellChanges> = HashMap::new();
    for (row, w) in delta_core {
        let tags = row.project(&layout.by_idx);
        let Some(&gi) = layout.group_lookup.get(&tags) else {
            continue;
        };
        if layout.on_idx.iter().all(|&oi| row[oi].is_null()) {
            continue;
        }
        let measures = || layout.on_idx.iter().map(|&oi| &row[oi]);
        let changes = by_key.entry(row.project(&layout.k_idx)).or_default();
        match changes
            .iter_mut()
            .find(|(g, _, m)| *g == gi && m.iter().eq(measures()))
        {
            Some((_, sum, _)) => *sum += w,
            None => changes.push((gi, *w, measures().cloned().collect())),
        }
    }
    by_key.retain(|_, changes| {
        changes.retain(|(_, w, _)| *w != 0);
        !changes.is_empty()
    });
    by_key
}

/// Fig. 23's update rules: MERGE `delta_core` (signed rows over the pivot
/// input with schema `core_schema`, not necessarily consolidated) into the
/// pivoted materialized view — as a patch against `mv`, which is left
/// untouched ([`apply_row_ops`] installs it).
pub fn plan_pivot_update(
    mv: &Table,
    spec: &PivotSpec,
    core_schema: &Schema,
    delta_core: &[(Row, i64)],
) -> Result<(Vec<RowOp>, ApplyStats)> {
    let layout = PivotLayout::resolve(spec, core_schema)?;
    let n_k = layout.k_idx.len();
    let n_on = layout.on_idx.len();
    let width = n_k + spec.groups.len() * n_on;
    if mv.schema().arity() != width {
        return Err(CoreError::StrategyNotApplicable {
            strategy: "pivot-update (Fig. 23)".into(),
            reason: format!(
                "materialized view arity {} does not match pivot layout width {width}",
                mv.schema().arity()
            ),
        });
    }

    let changes = collect_cell_changes(delta_core, &layout);
    let mut stats = ApplyStats::default();
    let mut ops = Vec::with_capacity(changes.len());

    for (key, mut cell_changes) in changes {
        let existing = mv.get_by_key(&key);
        let mut cells: Vec<Value> = match existing {
            Some(row) => row.to_vec(),
            None => blank_row(&key, width),
        };
        overwrite_cells(&mut cells, &mut cell_changes, n_k, n_on);
        let row = Row::new(cells);
        merge_key(&mut ops, &mut stats, key, row, n_k, existing, |_| true);
    }
    Ok((ops, stats))
}

/// The row a key absent from the view starts from: its key, then all `⊥`.
pub(crate) fn blank_row(key: &Row, width: usize) -> Vec<Value> {
    let mut v = Vec::with_capacity(width);
    v.extend(key.iter().cloned());
    v.resize(width, Value::Null);
    v
}

/// Fold one key's cell changes into its row: deleted source rows `⊥`-out
/// their cells, inserted ones overwrite theirs.
pub(crate) fn overwrite_cells(
    cells: &mut [Value],
    cell_changes: &mut CellChanges,
    n_k: usize,
    n_on: usize,
) {
    // Deletes before inserts: a batch may replace a cell's source row.
    cell_changes.sort_by_key(|(_, w, _)| *w);
    for (gi, w, measures) in cell_changes.iter() {
        let base = n_k + gi * n_on;
        if *w < 0 {
            cells[base..base + n_on].fill(Value::Null);
        } else {
            cells[base..base + n_on].clone_from_slice(measures);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::delta_prop::consolidate;
    use gpivot_storage::{row, DataType, Delta};

    /// A delta as the signed rows the apply rules take.
    fn signed(d: &Delta) -> Vec<(Row, i64)> {
        d.iter().map(|(r, &w)| (r.clone(), w)).collect()
    }

    /// Plan the Fig. 23 MERGE and apply it in place.
    fn apply_pivot_update(
        mv: &mut Table,
        spec: &PivotSpec,
        core_schema: &Schema,
        delta_core: &[(Row, i64)],
    ) -> Result<ApplyStats> {
        let (ops, stats) = plan_pivot_update(mv, spec, core_schema, delta_core)?;
        apply_row_ops(mv, ops, None);
        Ok(stats)
    }

    /// Core schema: (id, attr, val) with key (id, attr).
    fn core_schema() -> Schema {
        Schema::from_pairs_keyed(
            &[
                ("id", DataType::Int),
                ("attr", DataType::Str),
                ("val", DataType::Int),
            ],
            &["id", "attr"],
        )
        .unwrap()
    }

    fn spec() -> PivotSpec {
        PivotSpec::simple("attr", "val", vec![Value::str("a"), Value::str("b")])
    }

    fn mv() -> Table {
        let mut s = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("a**val", DataType::Int),
            ("b**val", DataType::Int),
        ])
        .unwrap();
        s.set_key(vec![0]);
        Table::from_rows(
            Arc::new(s),
            vec![
                Row::new(vec![Value::Int(1), Value::Int(10), Value::Int(20)]),
                Row::new(vec![Value::Int(2), Value::Int(30), Value::Null]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn insert_new_key() {
        let mut t = mv();
        let d = Delta::from_inserts(vec![row![3, "a", 99]]);
        let stats = apply_pivot_update(&mut t, &spec(), &core_schema(), &signed(&d)).unwrap();
        assert_eq!(
            stats,
            ApplyStats {
                inserted: 1,
                updated: 0,
                deleted: 0
            }
        );
        assert_eq!(
            t.get_by_key(&row![3]),
            Some(&Row::new(vec![Value::Int(3), Value::Int(99), Value::Null]))
        );
    }

    #[test]
    fn update_existing_cell_in_place() {
        let mut t = mv();
        // Replace (2, a, 30) with (2, a, 77): delete + insert in one batch.
        let mut d = Delta::new();
        d.add(row![2, "a", 30], -1);
        d.add(row![2, "a", 77], 1);
        let stats = apply_pivot_update(&mut t, &spec(), &core_schema(), &signed(&d)).unwrap();
        assert_eq!(
            stats,
            ApplyStats {
                inserted: 0,
                updated: 1,
                deleted: 0
            }
        );
        assert_eq!(t.get_by_key(&row![2]).unwrap()[1], Value::Int(77));
    }

    #[test]
    fn delete_cell_keeps_row_with_other_cells() {
        let mut t = mv();
        let d = Delta::from_deletes(vec![row![1, "a", 10]]);
        let stats = apply_pivot_update(&mut t, &spec(), &core_schema(), &signed(&d)).unwrap();
        assert_eq!(stats.updated, 1);
        let r = t.get_by_key(&row![1]).unwrap();
        assert!(r[1].is_null());
        assert_eq!(r[2], Value::Int(20));
    }

    #[test]
    fn delete_last_cell_removes_row() {
        let mut t = mv();
        let d = Delta::from_deletes(vec![row![2, "a", 30]]);
        let stats = apply_pivot_update(&mut t, &spec(), &core_schema(), &signed(&d)).unwrap();
        assert_eq!(stats.deleted, 1);
        assert!(t.get_by_key(&row![2]).is_none());
    }

    #[test]
    fn fill_empty_cell_of_existing_row() {
        let mut t = mv();
        let d = Delta::from_inserts(vec![row![2, "b", 55]]);
        apply_pivot_update(&mut t, &spec(), &core_schema(), &signed(&d)).unwrap();
        let r = t.get_by_key(&row![2]).unwrap();
        assert_eq!(r[2], Value::Int(55));
        assert_eq!(r[1], Value::Int(30));
    }

    #[test]
    fn unlisted_groups_and_null_measures_ignored() {
        let mut t = mv();
        let mut d = Delta::new();
        d.add(row![1, "zzz", 1], 1); // unlisted dimension value
        d.add(
            Row::new(vec![Value::Int(1), Value::str("a"), Value::Null]),
            1,
        ); // all-⊥ measures
        let stats = apply_pivot_update(&mut t, &spec(), &core_schema(), &signed(&d)).unwrap();
        assert_eq!(stats.total(), 0);
    }

    #[test]
    fn deletes_for_absent_key_are_noops() {
        let mut t = mv();
        let d = Delta::from_deletes(vec![row![9, "a", 1]]);
        let stats = apply_pivot_update(&mut t, &spec(), &core_schema(), &signed(&d)).unwrap();
        assert_eq!(stats.total(), 0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unconsolidated_rows_plan_the_patch_of_their_consolidation() {
        // Key 9 is outside the view; key 1 holds both cells, key 2 only `a`.
        let cases = [row![9, "a", 5], row![1, "a", 10], row![2, "b", 55]]
            .into_iter()
            .flat_map(|r| {
                [
                    vec![(r.clone(), 1), (r.clone(), -1)],
                    vec![(r.clone(), 1), (r.clone(), 1), (r.clone(), -1)],
                ]
            });
        for rows in cases {
            let consolidated = signed(&consolidate(rows.iter().cloned()));
            assert_eq!(
                plan_pivot_update(&mv(), &spec(), &core_schema(), &rows).unwrap(),
                plan_pivot_update(&mv(), &spec(), &core_schema(), &consolidated).unwrap(),
                "{rows:?}"
            );
        }
    }
}
