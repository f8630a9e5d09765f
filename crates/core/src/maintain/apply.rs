//! The **apply phase** of the update-rule strategies: one MERGE against the
//! materialized view (§7.1) for Fig. 23 (GPIVOT), Fig. 27 (GPIVOT over
//! GROUPBY) and Fig. 29 (σ over GPIVOT).
//!
//! A view row is its key `K` and then one *cell* per pivot group, each cell
//! one value per pivoted measure. The three rules differ only in how a
//! touched cell folds its delta, and [`MergeLayout`] — compiled once, at
//! registration — says which fold each measure takes:
//!
//! * **overwrite** (Fig. 23 and 29): a deleted source row ⊥-s out its cell,
//!   an inserted one overwrites it;
//! * **sum / count / count(*)** (Fig. 27): the cell is a payload of additive
//!   aggregates and the delta's aggregates add to it — F-IVM's reading of
//!   a view as keys mapped to ring payloads (Kara et al., PAPERS.md).
//!
//! **Liveness** is one rule. An overwritten cell is live iff a measure is
//! non-⊥. An aggregate cell is live iff one of its liveness counts is > 0:
//! its `count(*)` when the cell shows a COUNT measure (a count is never ⊥,
//! so the definition shows every group), else each SUM's `count(col)` (a
//! SUM is ⊥ iff its `count(col)` is 0). A dead cell is stored all-⊥, and a
//! row with no live cell is not stored — the definition's own pivot drops
//! all-⊥ rows, so the view never shows one.
//!
//! [`plan_merge`] groups the signed core rows by view key in place — the
//! first row of each key stands for it, so no key row is built — folds
//! each touched key's cells starting from its stored row (or a blank one),
//! and decides the key with `merge_key`.
//! Under Fig. 29 a key absent from the view may hold cells σ rejected, so
//! it is not folded: if an inserted row touches a cell σ reads it is a
//! *candidate*, whose post-state row [`MergeLayout::candidate_rows`]
//! recomputes from the core restricted to the candidates. The Fig. 27
//! layout and its hidden counts are compiled in [`super::group_pivot`],
//! the Fig. 29 candidates in [`super::select_pivot`].
//!
//! The MERGE is computed in two halves so a service can do the fallible
//! half off to the side: planning reads the view and returns the
//! row-level patch (a list of [`RowOp`]s, each view key at most once, each
//! naming its key by a whole row); [`apply_row_ops`] writes it in place
//! and cannot fail.

use crate::error::{CoreError, Result};
use crate::maintain::select_pivot::Candidates;
use gpivot_algebra::{BoundExpr, Plan};
use gpivot_exec::pivot::PivotLayout;
use gpivot_storage::{Catalog, ColsKey, Row, RowMap, Table, Value};
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

/// One keyed write of a MERGE against a materialized view. Each names its
/// key by a whole row of the view's shape; the view reads the key columns
/// in place.
#[derive(Debug, Clone, PartialEq)]
pub enum RowOp {
    /// Remove this stored row (found by its key).
    Delete(Row),
    /// Replace the row stored under this row's key with it.
    Update(Row),
    /// Add a row whose key the view does not hold.
    Insert(Row),
}

/// How one pivoted measure folds a delta into its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fold {
    /// Fig. 23 / 29: the cell takes the inserted source row's value.
    Overwrite,
    /// Fig. 27 `sum(col)`; `count` is the measure holding its `count(col)`.
    Sum { count: usize },
    /// Fig. 27 `count(col)`.
    Count,
    /// Fig. 27 `count(*)`.
    CountStar,
}

impl Fold {
    /// A cell change's start for a row with measure `v`: the value itself
    /// to overwrite with, else the aggregate of no rows (⊥ for a sum, 0
    /// for a count), which [`Fold::add`] then adds the row to.
    fn init(self, v: &Value) -> Value {
        match self {
            Fold::Overwrite => v.clone(),
            Fold::Sum { .. } => Value::Null,
            Fold::Count | Fold::CountStar => Value::Int(0),
        }
    }

    /// Add the contribution of `v` at weight `w` to the aggregate `acc`
    /// (nothing for an overwrite).
    fn add(self, acc: &mut Value, v: &Value, w: i64) {
        let d = match (self, v) {
            (Fold::CountStar, _) => Value::Int(w),
            (Fold::Count, v) if !v.is_null() => Value::Int(w),
            (Fold::Sum { .. }, Value::Int(i)) => Value::Int(i * w),
            (Fold::Sum { .. }, Value::Float(f)) => Value::Float(f * w as f64),
            _ => return,
        };
        add_into(acc, &d);
    }
}

/// `acc + d`, either side ⊥ being the empty sum (a dead cell's count is 0).
fn add_into(acc: &mut Value, d: &Value) {
    if acc.is_null() {
        *acc = d.clone();
    } else if !d.is_null() {
        *acc = acc.numeric_add(d);
    }
}

/// Where a core row's parts sit, and how each cell folds its delta: the
/// per-view half of the MERGE, compiled at registration.
#[derive(Debug, Clone)]
pub struct MergeLayout {
    /// The plan whose delta [`plan_merge`] folds: the pivot's input, or
    /// under Fig. 27 the GROUPBY's.
    pub(super) core: Plan,
    /// View-key positions in a core row.
    pub(super) key: Vec<usize>,
    /// Pivot-tag positions in a core row.
    pub(super) tags: Vec<usize>,
    /// Pivot-tag tuple → group (cell) index.
    pub(super) groups: RowMap<Row, usize>,
    /// Per measure: its input position in a core row (unused by
    /// `count(*)`) and its fold.
    pub(super) measures: Vec<(usize, Fold)>,
    /// The measures whose count > 0 keeps an aggregate cell live; empty
    /// for overwrite folds.
    pub(super) live: Vec<usize>,
    /// Fig. 29 only: what a candidate recompute needs.
    pub(super) sigma: Option<Candidates>,
}

/// One key's pending changes: `(group, weight, measures)`. Overwrite folds
/// keep one entry per distinct measures tuple with its summed weight;
/// aggregate folds one entry per group, with the delta's aggregates.
type CellChanges = Vec<(usize, i64, Vec<Value>)>;

impl MergeLayout {
    /// The layout of `[σ] GPivot(core)` (Fig. 23, or Fig. 29 under σ):
    /// every measure overwrites.
    pub fn pivot(plan: &Plan, catalog: &Catalog) -> Result<MergeLayout> {
        let (predicate, pivot) = match plan {
            Plan::Select { input, predicate } => (Some(predicate), input.as_ref()),
            p => (None, p),
        };
        let Plan::GPivot { input: core, spec } = pivot else {
            return Err(not_applicable("pivot-update", "the top is not a GPivot"));
        };
        let schema = core.schema(catalog)?;
        let l = PivotLayout::resolve(spec, &schema)?;
        let sigma = predicate.map(|p| Candidates::new(p, spec, &schema, &l.k_idx));
        Ok(MergeLayout {
            core: core.as_ref().clone(),
            key: l.k_idx,
            tags: l.by_idx,
            groups: l.group_lookup,
            measures: l.on_idx.into_iter().map(|i| (i, Fold::Overwrite)).collect(),
            live: Vec::new(),
            sigma,
        })
    }

    /// The pivot group (cell) of a core row, looked up by its tag values
    /// in place when the tags are one column.
    fn group_of(&self, row: &Row) -> Option<usize> {
        let gi = match self.tags[..] {
            [t] => self.groups.get(std::slice::from_ref(&row[t])),
            _ => self.groups.get(&row.project(&self.tags)),
        };
        gi.copied()
    }

    /// Gather `delta`'s signed core rows per view key, grouped in place:
    /// each entry is the first row of a key, which stands for the key, and
    /// that key's changes. Rows outside the pivot's groups, and overwrite
    /// rows whose measures are all ⊥, are skipped. Overwrite entries add up
    /// the weights of equal rows — a core row is `K ∪ by ∪ on`, so this is
    /// whole-row consolidation, and an entry whose weights cancel folds
    /// nothing.
    fn collect<'a>(&'a self, delta: &'a [(Row, i64)]) -> Vec<(&'a Row, CellChanges)> {
        let overwrite = self.live.is_empty();
        let mut keys: RowMap<ColsKey<'a>, usize> = RowMap::default();
        let mut by_key: Vec<(&'a Row, CellChanges)> = Vec::new();
        for (row, w) in delta {
            let Some(gi) = self.group_of(row) else {
                continue;
            };
            let measures = || self.measures.iter().map(|&(i, _)| &row[i]);
            if overwrite && measures().all(Value::is_null) {
                continue;
            }
            let k = *keys.entry(ColsKey::new(row, &self.key)).or_insert_with(|| {
                by_key.push((row, CellChanges::new()));
                by_key.len() - 1
            });
            let changes = &mut by_key[k].1;
            let same = |(g, _, m): &(usize, i64, Vec<Value>)| {
                *g == gi && (!overwrite || m.iter().eq(measures()))
            };
            let at = changes.iter().position(same).unwrap_or_else(|| {
                let init = self.measures.iter().map(|&(i, fold)| fold.init(&row[i]));
                changes.push((gi, 0, init.collect()));
                changes.len() - 1
            });
            let (_, sum, acc) = &mut changes[at];
            *sum += w;
            for (&(i, fold), a) in self.measures.iter().zip(acc.iter_mut()) {
                fold.add(a, &row[i], *w);
            }
        }
        by_key
    }

    /// Fold one key's changes into its cells (the row past the key).
    fn fold(&self, cells: &mut [Value], changes: &mut CellChanges) {
        let n_on = self.measures.len();
        if self.live.is_empty() {
            // Deletes before inserts: a batch may replace a cell's source row.
            changes.sort_by_key(|(_, w, _)| *w);
            for (gi, w, measures) in changes.iter() {
                let cell = &mut cells[gi * n_on..][..n_on];
                if *w < 0 {
                    cell.fill(Value::Null);
                } else if *w > 0 {
                    cell.clone_from_slice(measures);
                }
            }
            return;
        }
        for (gi, _, delta) in changes.iter() {
            let cell = &mut cells[gi * n_on..][..n_on];
            // Counts first: a sum reads its partner's new count.
            for ((_, fold), (c, d)) in self.measures.iter().zip(cell.iter_mut().zip(delta)) {
                if matches!(fold, Fold::Count | Fold::CountStar) {
                    add_into(c, d);
                }
            }
            if !(self.live.iter()).any(|&j| matches!(cell[j], Value::Int(n) if n > 0)) {
                cell.fill(Value::Null);
                continue;
            }
            for (j, &(_, fold)) in self.measures.iter().enumerate() {
                match fold {
                    Fold::Sum { count } if cell[count] == Value::Int(0) => cell[j] = Value::Null,
                    Fold::Sum { .. } => add_into(&mut cell[j], &delta[j]),
                    _ => {}
                }
            }
        }
    }
}

pub(super) fn not_applicable(strategy: &str, reason: &str) -> CoreError {
    CoreError::StrategyNotApplicable {
        strategy: strategy.into(),
        reason: reason.into(),
    }
}

/// The MERGE of `delta` — signed core rows, not necessarily consolidated —
/// into `mv`, as a patch against it (`mv` is left untouched;
/// [`apply_row_ops`] installs the patch). With `sigma` (Fig. 29) a row
/// stays only while σ holds, and keys absent from `mv` are not folded:
/// those with an inserted row in a cell σ reads come back as candidates
/// (key rows) for [`MergeLayout::candidate_rows`], the rest stay absent
/// (σ is null-intolerant, so nulling more cells cannot make a row pass).
///
/// Each touched key is probed in `mv` with the K columns of the core row
/// that stands for it; a key row is built only for a blank row or a
/// candidate.
pub fn plan_merge(
    mv: &Table,
    layout: &MergeLayout,
    delta: &[(Row, i64)],
    sigma: Option<&BoundExpr>,
) -> (Vec<RowOp>, ApplyStats, Vec<Row>) {
    let n_k = layout.key.len();
    let changes = layout.collect(delta);
    let mut stats = ApplyStats::default();
    let mut ops = Vec::with_capacity(changes.len());
    let mut candidates = Vec::new();
    for (first, mut cell_changes) in changes {
        let key = || layout.key.iter().map(|&i| &first[i]);
        let existing = mv.get_by_key_values(key());
        let mut cells = match (existing, sigma, &layout.sigma) {
            (Some(row), ..) => row.to_vec(),
            (None, Some(_), Some(c)) => {
                if (cell_changes.iter()).any(|(gi, w, _)| *w > 0 && c.read[*gi]) {
                    candidates.push(first.project(&layout.key));
                }
                continue;
            }
            (None, ..) => {
                let blank = std::iter::repeat_n(Value::Null, mv.schema().arity() - n_k);
                key().cloned().chain(blank).collect()
            }
        };
        layout.fold(&mut cells[n_k..], &mut cell_changes);
        let (row, keep) = (Row::new(cells), |row: &Row| {
            sigma.is_none_or(|s| s.holds(row))
        });
        merge_key(&mut ops, &mut stats, row, n_k, existing, keep);
    }
    (ops, stats, candidates)
}

/// The MERGE decision for one view key: `row` is the key's post-state row
/// and `existing` the row the view holds under the key now, if any.
/// All-`⊥` measures (past the `n_k` key columns) or a failed `keep` test
/// mean the row must not be in the view; a post-state equal to the stored
/// row writes nothing.
pub(crate) fn merge_key(
    ops: &mut Vec<RowOp>,
    stats: &mut ApplyStats,
    row: Row,
    n_k: usize,
    existing: Option<&Row>,
    keep: impl FnOnce(&Row) -> bool,
) {
    let stays = !row.values()[n_k..].iter().all(Value::is_null) && keep(&row);
    match (existing, stays) {
        (Some(old), false) => {
            ops.push(RowOp::Delete(old.clone()));
            stats.deleted += 1;
        }
        (Some(old), true) if *old == row => {} // no-op: changes that cancel
        (Some(_), true) => {
            ops.push(RowOp::Update(row));
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
            RowOp::Delete(row) => {
                if let (Some((pos, _)), Some((rows, _))) = (mv.delete_by_key_of(&row), &mut mirror)
                {
                    Arc::make_mut(rows).swap_remove(pos);
                }
            }
            RowOp::Update(row) => {
                if let (Some((pos, _)), Some((rows, idx))) = (mv.update_by_key_of(row), &mut mirror)
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::maintain::delta_prop::consolidate;
    use gpivot_algebra::PivotSpec;
    use gpivot_storage::{row, DataType, Delta, Schema};

    /// A delta as the signed rows the MERGE takes.
    pub(crate) fn signed(d: &Delta) -> Vec<(Row, i64)> {
        d.iter().map(|(r, &w)| (r.clone(), w)).collect()
    }

    /// Plan the MERGE (no σ) and apply it in place.
    pub(crate) fn apply(mv: &mut Table, layout: &MergeLayout, delta: &[(Row, i64)]) -> ApplyStats {
        let (ops, stats, candidates) = plan_merge(mv, layout, delta, None);
        assert!(candidates.is_empty());
        apply_row_ops(mv, ops, None);
        stats
    }

    /// A catalog holding one table `name` with `schema` and `rows`.
    pub(crate) fn catalog_of(name: &str, schema: Schema, rows: Vec<Row>) -> Catalog {
        let mut c = Catalog::new();
        c.register(name, Table::from_rows(Arc::new(schema), rows).unwrap())
            .unwrap();
        c
    }

    /// A keyed view table over `fields`, holding `rows`.
    pub(crate) fn view_table(fields: &[(&str, DataType)], n_k: usize, rows: Vec<Row>) -> Table {
        let mut s = Schema::from_pairs(fields).unwrap();
        s.set_key((0..n_k).collect());
        Table::from_rows(Arc::new(s), rows).unwrap()
    }

    /// The Fig. 23 pivot of `items` on `attr`.
    fn spec() -> PivotSpec {
        PivotSpec::simple("attr", "val", vec![Value::str("a"), Value::str("b")])
    }

    /// `items` = (id, attr, val) keyed (id, attr), holding `rows`: the core
    /// of the Fig. 23 and Fig. 29 cases.
    pub(crate) fn items(rows: Vec<Row>) -> Catalog {
        let schema = Schema::from_pairs_keyed(
            &[
                ("id", DataType::Int),
                ("attr", DataType::Str),
                ("val", DataType::Int),
            ],
            &["id", "attr"],
        )
        .unwrap();
        catalog_of("items", schema, rows)
    }

    fn layout() -> MergeLayout {
        let plan = Plan::scan("items").gpivot(spec());
        MergeLayout::pivot(&plan, &items(vec![])).unwrap()
    }

    fn mv() -> Table {
        view_table(
            &[
                ("id", DataType::Int),
                ("a**val", DataType::Int),
                ("b**val", DataType::Int),
            ],
            1,
            vec![
                Row::new(vec![Value::Int(1), Value::Int(10), Value::Int(20)]),
                Row::new(vec![Value::Int(2), Value::Int(30), Value::Null]),
            ],
        )
    }

    fn merge(t: &mut Table, d: &Delta) -> ApplyStats {
        apply(t, &layout(), &signed(d))
    }

    #[test]
    fn insert_new_key() {
        let mut t = mv();
        let stats = merge(&mut t, &Delta::from_inserts(vec![row![3, "a", 99]]));
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
        let stats = merge(&mut t, &d);
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
        let stats = merge(&mut t, &Delta::from_deletes(vec![row![1, "a", 10]]));
        assert_eq!(stats.updated, 1);
        let r = t.get_by_key(&row![1]).unwrap();
        assert!(r[1].is_null());
        assert_eq!(r[2], Value::Int(20));
    }

    #[test]
    fn delete_last_cell_removes_row() {
        let mut t = mv();
        let stats = merge(&mut t, &Delta::from_deletes(vec![row![2, "a", 30]]));
        assert_eq!(stats.deleted, 1);
        assert!(t.get_by_key(&row![2]).is_none());
    }

    #[test]
    fn fill_empty_cell_of_existing_row() {
        let mut t = mv();
        merge(&mut t, &Delta::from_inserts(vec![row![2, "b", 55]]));
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
        assert_eq!(merge(&mut t, &d).total(), 0);
    }

    #[test]
    fn deletes_for_absent_key_are_noops() {
        let mut t = mv();
        let stats = merge(&mut t, &Delta::from_deletes(vec![row![9, "a", 1]]));
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
                plan_merge(&mv(), &layout(), &rows, None),
                plan_merge(&mv(), &layout(), &consolidated, None),
                "{rows:?}"
            );
        }
    }
}
