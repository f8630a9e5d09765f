//! Materialized views and the [`ViewManager`] — the integration point of
//! the whole paper: compile (normalize + choose strategy + materialize),
//! refresh (propagate + apply), commit, verify.

use crate::error::{CoreError, Result, StalePlan};
use crate::maintain::apply::{
    apply_row_ops, merge_key, plan_merge, ApplyStats, MergeLayout, RowOp,
};
use crate::maintain::delta_prop::{consolidate, propagate_signed, PropagationCtx, SignedRows};
use crate::maintain::strategy::{MaintenanceOutcome, MaintenancePlan, Strategy};
use crate::maintain::SourceDeltas;
use crate::rewrite::{
    normalize_view, normalize_view_with_select_pushdown, NormalizedView, TopShape,
};
use gpivot_algebra::plan::{JoinKind, Plan};
use gpivot_analyze::Diagnostic;
use gpivot_exec::Executor;
use gpivot_storage::{Catalog, Delta, Field, Row, Schema, SchemaRef, Table};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// A materialized view: definition, compiled maintenance form, and data.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    name: String,
    definition: Plan,
    strategy: Strategy,
    normalized: NormalizedView,
    /// The MERGE layout of the update-rule strategies, compiled with the
    /// view; `None` under `Recompute` and `InsertDelete`.
    layout: Option<MergeLayout>,
    /// The base tables the definition and its normalized form read.
    dependencies: BTreeSet<String>,
    table: Table,
    /// Warning/info diagnostics the plan lint recorded at registration
    /// (empty when created directly or registered with lint skipped).
    lint_warnings: Vec<Diagnostic>,
    /// How [`MaterializedView::query`] reshapes the table; `None` when the
    /// user-facing shape *is* the table.
    output: Option<Output>,
    /// Set by [`ViewManager::commit_epoch`] when it commits a change to a
    /// table this view reads without refreshing the view; cleared by
    /// [`ViewManager::install_view`]. A lagging table no longer reflects
    /// the catalog: the view neither derives from a σ-parent nor serves as
    /// one, and [`ViewManager::plan_epoch`] leaves it out.
    lagging: bool,
}

/// The user-facing shape of a view whose output permutes, renames or hides
/// columns of its materialized table, resolved once at compile time.
#[derive(Debug, Clone)]
struct Output {
    /// The table column behind each output column.
    idx: Vec<usize>,
    schema: SchemaRef,
    /// The table's rows projected onto `idx`, position-for-position
    /// parallel to `table.rows()`: built by the first read, handed to
    /// every read after it by reference count, and from then on patched by
    /// [`MaterializedView::install`] with the same [`RowOp`]s as the table
    /// (a reader still holding a result makes that write detach a copy).
    /// Empty until read, and again after a whole-table or bag patch. A
    /// clone of the view shares the allocation until either side writes.
    rows: OnceLock<Arc<Vec<Row>>>,
}

/// What one refresh writes into a view's table, computed without touching
/// it ([`MaterializedView::plan_refresh`]) and written in place by
/// [`MaterializedView::install`] — the paper's MERGE against the view
/// (§7.1) as a value. Valid only against the view state it was planned on.
#[derive(Debug)]
pub struct ViewPatch(PatchKind);

#[derive(Debug)]
enum PatchKind {
    /// Keyed MERGE of the update-rule strategies: each key at most once.
    Rows(Vec<RowOp>),
    /// Insert/delete propagation; passed [`Table::check_delta`] at plan time.
    Delta(Delta),
    /// Recomputation: the whole new table.
    Replace(Table),
}

/// Options for registering a view with [`ViewManager::register_view_with`].
///
/// The default options auto-select the maintenance strategy from the view's
/// normalized shape (the paper's planner). Setting
/// [`ViewOptions::strategy`] forces a strategy; setting
/// [`ViewOptions::expected_delta_rows`] instead asks the cost model
/// ([`crate::cost`]) to pick the cheapest strategy at that per-refresh
/// delta size. A bare [`Strategy`] converts into options, so
/// `register_view_with(name, plan, Strategy::PivotUpdate)` reads naturally.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ViewOptions {
    /// Force this maintenance strategy (skips both planners).
    pub strategy: Option<Strategy>,
    /// Ask the cost model to choose, sized for this many delta rows per
    /// refresh. Ignored when [`ViewOptions::strategy`] is set.
    pub expected_delta_rows: Option<f64>,
    /// Skip the static plan lint (`gpivot-analyze`). By default
    /// registration refuses plans with `Error`-severity diagnostics
    /// ([`CoreError::PlanLint`]) and records warnings on the view
    /// ([`MaterializedView::lint_warnings`]).
    pub skip_lint: bool,
}

impl ViewOptions {
    /// Options that auto-select the strategy (same as `Default`).
    pub fn new() -> Self {
        ViewOptions::default()
    }

    /// Force `strategy`.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Choose the strategy with the cost model at this expected delta size.
    pub fn expected_delta_rows(mut self, rows: f64) -> Self {
        self.expected_delta_rows = Some(rows);
        self
    }

    /// Register without running the static plan lint. The view is
    /// installed even if the analyzer would refuse it, and no lint
    /// warnings are recorded.
    pub fn skip_plan_lint(mut self) -> Self {
        self.skip_lint = true;
        self
    }
}

impl From<Strategy> for ViewOptions {
    fn from(strategy: Strategy) -> Self {
        ViewOptions::new().strategy(strategy)
    }
}

/// Does the tree contain a non-inner join (not delta-propagatable)?
fn has_outer_join(plan: &Plan) -> bool {
    if let Plan::Join { kind, .. } = plan {
        if *kind != JoinKind::Inner {
            return true;
        }
    }
    plan.children().iter().any(|c| has_outer_join(c))
}

/// Execute and key-index a plan's result. The key index is built in place
/// over the executor's row storage ([`Table::into_keyed`]) — no row copy.
fn materialize(plan: &Plan, catalog: &Catalog, exec: &Executor) -> Result<Table> {
    key_indexed(exec.run(plan, catalog)?)
}

/// Key-index an executor result in place, if its schema declares a key.
fn key_indexed(bag: Table) -> Result<Table> {
    if bag.schema().has_key() {
        let schema = bag.schema().clone();
        Ok(bag.into_keyed(schema)?)
    } else {
        Ok(bag)
    }
}

impl MaterializedView {
    /// Compile and materialize a view with an explicit strategy, running
    /// the initial materialization on `exec`.
    pub fn create_with(
        name: impl Into<String>,
        definition: Plan,
        strategy: Strategy,
        catalog: &Catalog,
        exec: &Executor,
    ) -> Result<Self> {
        let name = name.into();
        let _compile = tracing::span("compile.view").enter();
        let (normalized, layout) = {
            let _s = tracing::span("compile.normalize").enter();
            Self::compile(&definition, strategy, catalog)?
        };
        let table = {
            let _s = tracing::span("compile.materialize").enter();
            materialize(&normalized.plan, catalog, exec)?
        };
        Self::assemble(name, definition, strategy, normalized, layout, table)
    }

    fn assemble(
        name: String,
        definition: Plan,
        strategy: Strategy,
        normalized: NormalizedView,
        layout: Option<MergeLayout>,
        table: Table,
    ) -> Result<Self> {
        let mut dependencies = normalized.plan.base_tables();
        dependencies.extend(definition.base_tables());
        let schema = table.schema();
        let identity = normalized.identity_output && normalized.output.len() == schema.arity();
        let output = if identity {
            None
        } else {
            let idx: Vec<usize> = normalized
                .output
                .iter()
                .map(|(from, _)| schema.index_of(from))
                .collect::<gpivot_storage::Result<_>>()?;
            let fields = normalized
                .output
                .iter()
                .zip(&idx)
                .map(|((_, to), &i)| Field::new(to.clone(), schema.field_at(i).data_type))
                .collect();
            Some(Output {
                idx,
                schema: Arc::new(Schema::new(fields)?),
                rows: OnceLock::new(),
            })
        };
        Ok(MaterializedView {
            name,
            definition,
            strategy,
            normalized,
            layout,
            dependencies,
            table,
            lint_warnings: Vec::new(),
            output,
            lagging: false,
        })
    }

    /// Rebuild a view from a persisted snapshot *without* recomputing it.
    ///
    /// Compiles the definition exactly like [`MaterializedView::create_with`]
    /// but installs `snapshot` as the materialized table when its schema
    /// matches the compiled plan's output schema (re-keying it in place if
    /// the schema declares a key). On any mismatch — e.g. the snapshot was
    /// written by an older build whose normalization differs — it falls back
    /// to a full materialization. Returns the view plus `true` iff the
    /// snapshot was used as-is.
    pub fn from_snapshot(
        name: impl Into<String>,
        definition: Plan,
        strategy: Strategy,
        snapshot: Table,
        catalog: &Catalog,
        exec: &Executor,
    ) -> Result<(Self, bool)> {
        let name = name.into();
        let _compile = tracing::span("compile.view").enter();
        let (normalized, layout) = Self::compile(&definition, strategy, catalog)?;
        let expected = normalized.plan.schema(catalog)?;
        let (table, used_snapshot) = if **snapshot.schema() == *expected {
            let table = if expected.has_key() {
                snapshot.into_keyed(expected)?
            } else {
                snapshot
            };
            (table, true)
        } else {
            (materialize(&normalized.plan, catalog, exec)?, false)
        };
        let view = Self::assemble(name, definition, strategy, normalized, layout, table)?;
        Ok((view, used_snapshot))
    }

    /// The normalize + shape-check half of [`MaterializedView::create_with`]:
    /// produce the maintenance form for `strategy` and, for the
    /// update-rule strategies, its MERGE layout — or explain why the
    /// strategy does not apply.
    fn compile(
        definition: &Plan,
        strategy: Strategy,
        catalog: &Catalog,
    ) -> Result<(NormalizedView, Option<MergeLayout>)> {
        let not_applicable = |reason: String| CoreError::StrategyNotApplicable {
            strategy: strategy.id().into(),
            reason,
        };
        let mut nv = match strategy {
            Strategy::Recompute | Strategy::InsertDelete => {
                // Maintain the original tree directly.
                let schema = definition.schema(catalog)?;
                let output = schema
                    .column_names()
                    .iter()
                    .map(|c| (c.to_string(), c.to_string()))
                    .collect();
                let nv = NormalizedView {
                    plan: definition.clone(),
                    output,
                    identity_output: true,
                    log: vec![],
                    shape: if definition.pivot_count() > 0 {
                        TopShape::StuckPivot
                    } else {
                        TopShape::Relational
                    },
                };
                return Ok((nv, None));
            }
            Strategy::SelectPushdownUpdate => {
                normalize_view_with_select_pushdown(definition, catalog)?
            }
            _ => normalize_view(definition, catalog)?,
        };
        match (strategy, &nv.shape) {
            (Strategy::PivotUpdate | Strategy::SelectPushdownUpdate, TopShape::PivotTop { .. })
            | (Strategy::GroupByInsDel, TopShape::PivotOverGroupBy { .. }) => {}
            (Strategy::SelectPivotUpdate, TopShape::SelectOverPivot { predicate, .. }) => {
                if !predicate.is_null_intolerant() {
                    let reason = format!("predicate `{predicate}` is not null-intolerant");
                    return Err(not_applicable(reason));
                }
            }
            (Strategy::GroupPivotUpdate, TopShape::PivotOverGroupBy { .. }) => {
                let (plan, layout) = MergeLayout::group_pivot(&nv.plan, catalog)?;
                nv.plan = plan;
                return Ok((nv, Some(layout)));
            }
            (_, shape) => return Err(not_applicable(format!("normalized shape is {shape:?}"))),
        }
        let layout = MergeLayout::pivot(&nv.plan, catalog)?;
        Ok((nv, Some(layout)))
    }

    /// View name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The chosen maintenance strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The original view definition.
    pub fn definition(&self) -> &Plan {
        &self.definition
    }

    /// Non-fatal diagnostics (warnings and infos) the static plan lint
    /// recorded when this view was registered through a [`ViewManager`].
    /// Empty for views created directly or registered with
    /// [`ViewOptions::skip_plan_lint`].
    pub fn lint_warnings(&self) -> &[Diagnostic] {
        &self.lint_warnings
    }

    /// The normalized form used for maintenance.
    pub fn normalized(&self) -> &NormalizedView {
        &self.normalized
    }

    /// The materialized table (normalized schema; may contain hidden
    /// maintenance columns — use [`MaterializedView::query`] for the
    /// user-facing shape).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Number of materialized rows.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True iff no rows are materialized.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The user-facing view contents: the materialized table projected
    /// through the output rename map. O(1) — the table's own rows, or the
    /// projected rows kept beside them (the first read builds those).
    pub fn query(&self) -> Result<Table> {
        let Some(out) = &self.output else {
            // Share the rows; a reader has no use for a copy of the
            // key index.
            return Ok(self.table.as_bag());
        };
        let rows = out
            .rows
            .get_or_init(|| Arc::new(self.table.iter().map(|r| r.project(&out.idx)).collect()));
        Ok(Table::bag_shared(out.schema.clone(), Arc::clone(rows)))
    }

    /// The compiled maintenance plan (explainability).
    pub fn maintenance_plan(&self) -> MaintenancePlan {
        MaintenancePlan {
            strategy: self.strategy,
            rewrite_log: self.normalized.log.clone(),
            normalized_explain: self.normalized.plan.explain(),
            derived_from: None,
        }
    }

    /// Refresh the view against pending source deltas (the catalog still
    /// holds the pre-update state):
    /// [`MaterializedView::plan_refresh`] then
    /// [`MaterializedView::install`]. On error the view is untouched.
    pub fn maintain_with(
        &mut self,
        catalog: &Catalog,
        deltas: &SourceDeltas,
        exec: &Executor,
    ) -> Result<MaintenanceOutcome> {
        let (patch, outcome) = self.plan_refresh(catalog, deltas, exec)?;
        self.install(patch);
        Ok(outcome)
    }

    /// The fallible, read-only half of a refresh: propagate `deltas`
    /// through the view's plan against the pre-update `catalog`, then
    /// compute — against this view's table, without writing to it — the
    /// row-level patch the strategy's apply rules call for. Every error a
    /// refresh can raise (injected faults included) is raised here, so a
    /// failed or abandoned refresh leaves nothing to undo. Every executor
    /// runs plans alike, on the calling thread, so the one passed in is
    /// not consulted.
    pub fn plan_refresh(
        &self,
        catalog: &Catalog,
        deltas: &SourceDeltas,
        _exec: &Executor,
    ) -> Result<(ViewPatch, MaintenanceOutcome)> {
        use gpivot_storage::FaultSite;
        // Chaos-testing hooks: the Propagate site fires before any delta
        // work, the Apply site after propagation but before the patch is
        // computed. Context = the view name, so schedules can target one
        // view. Both are free no-ops with the default (disabled) injector.
        let faults = catalog.fault_injector();
        faults.check(FaultSite::Propagate, &self.name)?;
        let ctx = PropagationCtx::new(catalog, deltas);
        // Propagate the source deltas to just below the strategy's apply
        // rules; the returned guard is the apply phase's span.
        let propagate_to_apply = |below: &Plan| -> Result<(SignedRows, tracing::Entered)> {
            let d = {
                let _s = tracing::span("maintain.propagate").enter();
                propagate_signed(below, &ctx)?
            };
            faults.check(FaultSite::Apply, &self.name)?;
            Ok((d, tracing::span("maintain.apply").enter()))
        };
        let mut outcome = MaintenanceOutcome::default();
        let patch = match self.strategy {
            Strategy::Recompute => {
                let bag = {
                    let _s = tracing::span("maintain.propagate").enter();
                    ctx.eval_post(&self.normalized.plan)?
                };
                faults.check(FaultSite::Apply, &self.name)?;
                let _a = tracing::span("maintain.apply").enter();
                let table = key_indexed(bag)?;
                outcome.stats.inserted = table.len();
                PatchKind::Replace(table)
            }
            Strategy::InsertDelete => {
                let (rows, _apply) = propagate_to_apply(&self.normalized.plan)?;
                outcome.delta_rows = rows.len();
                let d = consolidate(rows);
                outcome.stats = delta_stats(&d);
                self.table
                    .check_delta(&d)
                    .map_err(|e| e.in_table(&self.name))?;
                PatchKind::Delta(d)
            }
            // The MERGE at the top pivot: Fig. 23, Fig. 27 under
            // `GroupPivotUpdate`, Fig. 29 under `SelectPivotUpdate`. Under
            // `GroupByInsDel` the pivot's input is the GROUPBY, which
            // insert/delete propagation crosses by recomputing the affected
            // groups.
            Strategy::PivotUpdate
            | Strategy::SelectPushdownUpdate
            | Strategy::GroupByInsDel
            | Strategy::SelectPivotUpdate
            | Strategy::GroupPivotUpdate => {
                let layout = self
                    .layout
                    .as_ref()
                    .ok_or_else(|| self.lost("merge layout"))?;
                let (d, _apply) = propagate_to_apply(&layout.core)?;
                outcome.delta_rows = d.len();
                let sigma = match &self.normalized.plan {
                    Plan::Select { predicate, .. } => Some(predicate.bind(self.table.schema())?),
                    _ => None,
                };
                let (mut ops, stats, candidates) =
                    plan_merge(&self.table, layout, &d, sigma.as_ref());
                outcome.stats = stats;
                if let (Some(sigma), false) = (&sigma, candidates.is_empty()) {
                    let _s = tracing::span("maintain.candidates").enter();
                    let rows = layout.candidate_rows(&self.table, candidates, &ctx, &d, sigma)?;
                    outcome.stats.inserted += rows.len();
                    ops.extend(rows.into_iter().map(RowOp::Insert));
                }
                PatchKind::Rows(ops)
            }
        };
        outcome.rows_propagated = ctx.rows_evaluated();
        Ok((ViewPatch(patch), outcome))
    }

    /// Plan this view's refresh as a σ-child: its normalized plan is
    /// `σ(parent)` over the same table schema, so its post state is the
    /// parent's post state filtered by σ. Re-test σ on the post rows the
    /// parent's `patch` carries against this view's own membership —
    /// O(|patch|): nothing is propagated, probed or recomputed. The
    /// Propagate and Apply fault sites fire first, as for a planned
    /// refresh.
    fn derive_refresh(
        &self,
        catalog: &Catalog,
        parent: &ViewPatch,
    ) -> Result<(ViewPatch, MaintenanceOutcome)> {
        use gpivot_storage::FaultSite;
        let faults = catalog.fault_injector();
        faults.check(FaultSite::Propagate, &self.name)?;
        faults.check(FaultSite::Apply, &self.name)?;
        let _s = tracing::span("maintain.derive").enter();
        let Plan::Select { predicate, .. } = &self.normalized.plan else {
            return Err(self.lost("top select"));
        };
        let sigma = predicate.bind(self.table.schema())?;
        let mut outcome = MaintenanceOutcome::default();
        let patch = match &parent.0 {
            PatchKind::Rows(parent_ops) => {
                let key = self.table.schema().key();
                let n_k = key.ok_or_else(|| self.lost("key"))?.len();
                let mut ops = Vec::new();
                for op in parent_ops {
                    let row = match op {
                        RowOp::Delete(row) => {
                            if let Some(held) = self.table.get_by_key_of(row) {
                                ops.push(RowOp::Delete(held.clone()));
                                outcome.stats.deleted += 1;
                            }
                            continue;
                        }
                        RowOp::Update(row) | RowOp::Insert(row) => row,
                    };
                    // The parent keeps `row`; this view keeps it iff σ holds,
                    // sharing the parent's row storage.
                    let held = self.table.get_by_key_of(row);
                    merge_key(
                        &mut ops,
                        &mut outcome.stats,
                        row.clone(),
                        n_k,
                        held,
                        |row| sigma.holds(row),
                    );
                }
                outcome.delta_rows = parent_ops.len();
                PatchKind::Rows(ops)
            }
            PatchKind::Delta(parent_delta) => {
                let d = parent_delta.filter_rows(|row| sigma.holds(row));
                outcome.delta_rows = parent_delta.distinct_len();
                outcome.stats = delta_stats(&d);
                self.table
                    .check_delta(&d)
                    .map_err(|e| e.in_table(&self.name))?;
                PatchKind::Delta(d)
            }
            PatchKind::Replace(parent_table) => {
                let rows = parent_table
                    .iter()
                    .filter(|row| sigma.holds(row))
                    .cloned()
                    .collect();
                let table = key_indexed(Table::bag(self.table.schema().clone(), rows))?;
                outcome.delta_rows = parent_table.len();
                outcome.stats.inserted = table.len();
                PatchKind::Replace(table)
            }
        };
        Ok((ViewPatch(patch), outcome))
    }

    /// The infallible half of a refresh: write a patch from
    /// [`MaterializedView::plan_refresh`] into the table, in place — only
    /// the rows it names are touched. The patch must have been planned
    /// against this view's current state (a [`ViewManager`] enforces that
    /// with its generation check).
    pub fn install(&mut self, patch: ViewPatch) {
        // Only a keyed patch says where its rows sit; after the other two
        // the next read projects afresh.
        let mirror = match (&patch.0, &mut self.output) {
            (PatchKind::Rows(_), Some(out)) => out.rows.get_mut().map(|rows| (rows, &out.idx[..])),
            (_, Some(out)) => {
                out.rows.take();
                None
            }
            (_, None) => None,
        };
        match patch.0 {
            PatchKind::Rows(ops) => apply_row_ops(&mut self.table, ops, mirror),
            PatchKind::Delta(d) => {
                let applied = self.table.apply_delta(&d);
                debug_assert!(applied.is_ok(), "checked delta refused: {applied:?}");
            }
            PatchKind::Replace(table) => self.table = table,
        }
    }

    fn lost(&self, what: &str) -> CoreError {
        CoreError::StrategyNotApplicable {
            strategy: self.strategy.id().into(),
            reason: format!("normalized plan lost its {what}"),
        }
    }

    /// The base tables this view reads — the service layer's dependency
    /// edges for dirty-table scheduling. Computed once, at compile time.
    pub fn dependencies(&self) -> &BTreeSet<String> {
        &self.dependencies
    }

    /// Does `deltas` change a table this view reads? A table whose delta
    /// cancelled to empty changes nothing.
    fn reads_any(&self, deltas: &SourceDeltas) -> bool {
        deltas
            .iter()
            .any(|(t, d)| !d.is_empty() && self.dependencies.contains(t))
    }
}

/// Row counts of a consolidated insert/delete patch.
fn delta_stats(d: &Delta) -> ApplyStats {
    let mut stats = ApplyStats::default();
    for (_, &w) in d.iter() {
        if w > 0 {
            stats.inserted += w as usize;
        } else {
            stats.deleted += (-w) as usize;
        }
    }
    stats
}

/// Owns a catalog plus a set of materialized views, and runs the paper's
/// compile + refresh cycle over them.
///
/// A refresh is **plan → validate → commit**, and there is no other way
/// to refresh a view: [`ViewManager::plan_member`] and
/// [`ViewManager::plan_commit`] (or [`ViewManager::plan_epoch`], both at
/// once) read the manager and can fail; [`ViewManager::commit_epoch`]
/// writes the result in place and cannot, short of refusing a stale plan
/// whole. [`ViewManager::refresh`] runs them in sequence; a service runs
/// the planning under a read lock and the commit under its write lock.
/// A view is therefore either in step with the catalog or lagging it
/// ([`ViewManager::is_lagging`]).
///
/// **σ-edges.** A view whose normalized plan is `σ(input)` is the σ-child
/// of a registered view whose normalized plan is `input` and whose table
/// schema is the child's ([`ViewManager::sigma_parent`]). An epoch plans
/// the child from its parent's patch instead of by its own strategy
/// ([`ViewManager::refresh_groups`], [`ViewManager::plan_member`]).
#[derive(Debug, Clone, Default)]
pub struct ViewManager {
    catalog: Catalog,
    views: BTreeMap<String, MaterializedView>,
    /// Bumped by everything that can change the catalog or a view. Plans
    /// record it; a plan from another generation is refused at commit.
    generation: u64,
    /// Each σ-child's parent, child → parent. Recomputed by
    /// [`ViewManager::install_view`] and [`ViewManager::drop_view`].
    sigma_parents: BTreeMap<String, String>,
}

/// One view's planned refresh, from [`ViewManager::plan_member`].
#[derive(Debug)]
pub struct RefreshPlan {
    view: String,
    generation: u64,
    patch: ViewPatch,
    outcome: MaintenanceOutcome,
}

/// One unit of an epoch's fan-out, from [`ViewManager::refresh_groups`]:
/// a root view planned by its own strategy, then the σ-children planned
/// from an earlier member's patch, every child after its parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefreshGroup<'v> {
    members: Vec<(&'v str, Option<usize>)>,
}

impl<'v> RefreshGroup<'v> {
    /// Each member's name, with the position in this group of the parent
    /// it derives from (`None` for the root). Plan them in this order.
    pub fn members(&self) -> &[(&'v str, Option<usize>)] {
        &self.members
    }
}

impl RefreshPlan {
    /// What the refresh will have done once committed.
    pub fn outcome(&self) -> &MaintenanceOutcome {
        &self.outcome
    }
}

/// A validated epoch, ready for [`ViewManager::commit_epoch`]: the base
/// deltas (every one passed [`Catalog::check_delta`]) and the refresh
/// plans of the views that read them. Made by [`ViewManager::plan_commit`]
/// (no views yet — [`EpochPlan::add_view`] them) or
/// [`ViewManager::plan_epoch`] (complete). Dropping it is the rollback.
#[derive(Debug)]
pub struct EpochPlan<'a> {
    generation: u64,
    /// Borrowed from the caller, or owned when [`ViewManager::plan_epoch`]
    /// took rows out ([`SourceDeltas::admit`]).
    deltas: Cow<'a, SourceDeltas>,
    views: BTreeMap<String, RefreshPlan>,
}

impl EpochPlan<'_> {
    /// Commit `view`'s planned refresh with this epoch.
    pub fn add_view(&mut self, view: impl Into<String>, refresh: RefreshPlan) {
        self.views.insert(view.into(), refresh);
    }

    /// The planned view refreshes, by view name.
    pub fn views(&self) -> impl Iterator<Item = (&str, &RefreshPlan)> {
        self.views.iter().map(|(name, r)| (name.as_str(), r))
    }
}

impl ViewManager {
    /// Wrap a catalog.
    pub fn new(catalog: Catalog) -> Self {
        ViewManager {
            catalog,
            ..ViewManager::default()
        }
    }

    /// The base-table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog (loading data, etc.).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        self.generation += 1;
        &mut self.catalog
    }

    /// Pick the best strategy for a view definition (the paper's planner:
    /// normalize, then match the top shape).
    pub fn choose_strategy(&self, definition: &Plan) -> Strategy {
        if has_outer_join(definition) {
            return Strategy::Recompute;
        }
        let Ok(nv) = normalize_view(definition, &self.catalog) else {
            return Strategy::Recompute;
        };
        match nv.shape {
            TopShape::PivotTop { .. } => Strategy::PivotUpdate,
            TopShape::SelectOverPivot { ref predicate, .. } => {
                if predicate.is_null_intolerant() {
                    Strategy::SelectPivotUpdate
                } else {
                    Strategy::InsertDelete
                }
            }
            TopShape::PivotOverGroupBy { .. } => {
                // Prefer the Fig. 27 combined rules; fall back when the
                // aggregates are not self-maintainable.
                if MergeLayout::group_pivot(&nv.plan, &self.catalog).is_ok() {
                    Strategy::GroupPivotUpdate
                } else {
                    Strategy::GroupByInsDel
                }
            }
            TopShape::Relational | TopShape::StuckPivot => Strategy::InsertDelete,
        }
    }

    /// Register a view, auto-selecting the maintenance strategy (the
    /// paper's shape-based planner). Shorthand for
    /// [`ViewManager::register_view_with`] with default [`ViewOptions`].
    pub fn register_view(&mut self, name: impl Into<String>, definition: Plan) -> Result<Strategy> {
        self.register_view_with(name, definition, ViewOptions::new())
    }

    /// Register a view with explicit [`ViewOptions`]. Accepts a bare
    /// [`Strategy`] too (`register_view_with("v", plan, Strategy::Recompute)`).
    ///
    /// Registration first runs the static plan lint (`gpivot-analyze`):
    /// `Error`-severity diagnostics reject the view with
    /// [`CoreError::PlanLint`] (opt out with
    /// [`ViewOptions::skip_plan_lint`]); warnings are kept on the view
    /// ([`MaterializedView::lint_warnings`]).
    ///
    /// Strategy resolution: a forced [`ViewOptions::strategy`] wins; else
    /// [`ViewOptions::expected_delta_rows`] asks the cost model
    /// ([`crate::cost`], the paper's §3 "cost-based optimizer" hook) — a
    /// cost-picked strategy that then fails shape validation is reported as
    /// [`CoreError::StrategyNotApplicable`] rather than silently swapped;
    /// else the shape-based planner ([`ViewManager::choose_strategy`])
    /// decides. Returns the strategy the view was compiled with.
    pub fn register_view_with(
        &mut self,
        name: impl Into<String>,
        definition: Plan,
        options: impl Into<ViewOptions>,
    ) -> Result<Strategy> {
        let name = name.into();
        let options = options.into();
        // Static plan lint (§4/§5 safety conditions checked up front):
        // refuse hard violations before any compilation work, keep the
        // soft findings to attach to the installed view.
        let lint_warnings = if options.skip_lint {
            Vec::new()
        } else {
            let report = gpivot_analyze::analyze(&definition, &self.catalog);
            if report.has_errors() {
                return Err(CoreError::PlanLint {
                    view: name,
                    diagnostics: report.diagnostics,
                });
            }
            report.diagnostics
        };
        if let Some(strategy) = options.strategy {
            self.install_new_view(name, definition, strategy, lint_warnings)?;
            return Ok(strategy);
        }
        if let Some(expected_delta_rows) = options.expected_delta_rows {
            let stats = crate::cost::CatalogStats::from_catalog(&self.catalog);
            let costed = crate::cost::cheapest_strategy(
                &definition,
                &stats,
                &self.catalog,
                expected_delta_rows,
            )
            .map(|(s, _)| s);
            let Some(strategy) = costed else {
                // No strategy costs out; fall back to the shape planner.
                let strategy = self.choose_strategy(&definition);
                self.install_new_view(name, definition, strategy, lint_warnings)?;
                return Ok(strategy);
            };
            // Cost-picked strategies can still fail shape validation at
            // create time (e.g. a non-null-intolerant predicate); surface
            // that instead of silently installing something else.
            return match self.install_new_view(name, definition, strategy, lint_warnings) {
                Ok(()) => Ok(strategy),
                Err(CoreError::DuplicateView(v)) => Err(CoreError::DuplicateView(v)),
                Err(_) => Err(CoreError::StrategyNotApplicable {
                    strategy: strategy.id().into(),
                    reason: "cost-selected strategy failed to compile; \
                             use register_view for the shape-based choice"
                        .into(),
                }),
            };
        }
        let strategy = self.choose_strategy(&definition);
        self.install_new_view(name, definition, strategy, lint_warnings)?;
        Ok(strategy)
    }

    /// Compile, materialize, and insert a view under `name`.
    fn install_new_view(
        &mut self,
        name: String,
        definition: Plan,
        strategy: Strategy,
        lint_warnings: Vec<Diagnostic>,
    ) -> Result<()> {
        if self.views.contains_key(&name) {
            return Err(CoreError::DuplicateView(name));
        }
        let mut view = MaterializedView::create_with(
            name.clone(),
            definition,
            strategy,
            &self.catalog,
            &Executor::new(),
        )?;
        view.lint_warnings = lint_warnings;
        self.install_view(view);
        Ok(())
    }

    /// Drop a view.
    pub fn drop_view(&mut self, name: &str) -> Result<MaterializedView> {
        self.generation += 1;
        let view = self
            .views
            .remove(name)
            .ok_or_else(|| CoreError::UnknownView(name.to_string()))?;
        self.link_sigma_parents();
        Ok(view)
    }

    /// Borrow a view.
    pub fn view(&self, name: &str) -> Result<&MaterializedView> {
        self.views
            .get(name)
            .ok_or_else(|| CoreError::UnknownView(name.to_string()))
    }

    /// The user-facing contents of a view.
    pub fn query_view(&self, name: &str) -> Result<Table> {
        self.view(name)?.query()
    }

    /// Names of all views.
    pub fn view_names(&self) -> Vec<&str> {
        self.views.keys().map(String::as_str).collect()
    }

    /// Iterate all views in name order.
    pub fn views(&self) -> impl Iterator<Item = &MaterializedView> {
        self.views.values()
    }

    /// Install (or overwrite) an already-materialized view under its own
    /// name: how a recovered, re-admitted or re-registered view enters the
    /// registry. Epoch refreshes do not come through here — they patch the
    /// registered view in place ([`ViewManager::commit_epoch`]).
    /// The view is taken to reflect the current catalog: it does not lag.
    pub fn install_view(&mut self, mut view: MaterializedView) {
        self.generation += 1;
        view.lagging = false;
        self.views.insert(view.name().to_string(), view);
        self.link_sigma_parents();
    }

    /// Recompute every σ-edge: a view whose normalized plan is
    /// `σ(input)` takes the lowest-named view whose normalized plan is
    /// `input` and whose table schema is its own. O(views²) plan compares,
    /// run only when the registry changes.
    fn link_sigma_parents(&mut self) {
        let views = &self.views;
        self.sigma_parents = views
            .values()
            .filter_map(|child| {
                let Plan::Select { input, .. } = &child.normalized.plan else {
                    return None;
                };
                let parent = views.values().find(|p| {
                    p.normalized.plan == **input && p.table.schema() == child.table.schema()
                })?;
                Some((child.name.clone(), parent.name.clone()))
            })
            .collect();
    }

    /// The σ-parent of view `name`, if it has one: the registered view
    /// whose patch an epoch plans it from while neither lags.
    pub fn sigma_parent(&self, name: &str) -> Option<&str> {
        self.sigma_parents.get(name).map(String::as_str)
    }

    /// Has a committed epoch changed a table view `name` reads without
    /// refreshing it? A lagging view stays so until it is installed afresh
    /// ([`ViewManager::install_view`]); an unknown view does not lag.
    pub fn is_lagging(&self, name: &str) -> bool {
        self.views.get(name).is_some_and(|v| v.lagging)
    }

    /// The σ-parent `name` derives from this epoch: its parent, when
    /// neither lags. A lagging view plans by its own strategy.
    fn derives_from(&self, name: &str) -> Option<&str> {
        let parent = self.sigma_parent(name)?;
        (!self.is_lagging(name) && !self.is_lagging(parent)).then_some(parent)
    }

    /// The views that read a table `deltas` changes, in name order. A
    /// table whose delta cancelled to empty changes nothing.
    pub fn affected_views<'s>(
        &'s self,
        deltas: &'s SourceDeltas,
    ) -> impl Iterator<Item = &'s MaterializedView> {
        self.views.values().filter(|v| v.reads_any(deltas))
    }

    /// Group `views` (the ones an epoch refreshes) into refresh groups: a
    /// view whose σ-parent is among `views` and neither of which lags joins
    /// its parent's group; every other view roots its own.
    /// Groups come in the order of their roots in `views`.
    pub fn refresh_groups<'v>(&self, views: &[&'v str]) -> Vec<RefreshGroup<'v>> {
        let parent_of = |v: &str| self.derives_from(v).filter(|p| views.contains(p));
        let mut groups = Vec::new();
        for &root in views.iter().filter(|v| parent_of(v).is_none()) {
            let mut members = vec![(root, None)];
            let mut next = 0;
            while let Some(&(parent, _)) = members.get(next) {
                let children = views.iter().filter(|c| parent_of(c) == Some(parent));
                members.extend(children.map(|&c| (c, Some(next))));
                next += 1;
            }
            groups.push(RefreshGroup { members });
        }
        groups
    }

    /// **Plan** one view's refresh against `deltas` and the pre-update
    /// catalog. Reads only. Without `parent`, by the view's own strategy
    /// ([`MaterializedView::plan_refresh`]); with `parent` (the planned
    /// refresh of the member it derives from, per
    /// [`RefreshGroup::members`]), by re-testing the view's σ on the
    /// parent's post rows — O(|parent patch|), no propagation. A `parent`
    /// that is not the view's in-step σ-parent, planned against this
    /// state, is refused.
    pub fn plan_member(
        &self,
        name: &str,
        deltas: &SourceDeltas,
        parent: Option<&RefreshPlan>,
    ) -> Result<RefreshPlan> {
        let view = self.view(name)?;
        let (patch, outcome) = match parent {
            None => view.plan_refresh(&self.catalog, deltas, &Executor::new())?,
            Some(parent)
                if self.derives_from(name) == Some(parent.view.as_str())
                    && parent.generation == self.generation =>
            {
                view.derive_refresh(&self.catalog, &parent.patch)?
            }
            Some(parent) => {
                return Err(CoreError::StrategyNotApplicable {
                    strategy: "σ re-test of a parent patch".into(),
                    reason: format!("{} is not the in-step σ-parent of {name}", parent.view),
                })
            }
        };
        Ok(RefreshPlan {
            view: name.to_string(),
            generation: self.generation,
            patch,
            outcome,
        })
    }

    /// **Validate** the base-table half of an epoch: would every delta
    /// apply ([`Catalog::check_delta`] — arity, keys, the `Commit` fault
    /// site)? O(|Δ|); reads only. The returned plan holds no view refresh
    /// yet.
    pub fn plan_commit<'a>(&self, deltas: &'a SourceDeltas) -> Result<EpochPlan<'a>> {
        self.validate(Cow::Borrowed(deltas))
    }

    /// [`ViewManager::plan_commit`] over deltas it borrows or owns.
    fn validate<'a>(&self, deltas: Cow<'a, SourceDeltas>) -> Result<EpochPlan<'a>> {
        let _s = tracing::span("maintain.stage").enter();
        for (t, d) in deltas.iter() {
            self.catalog.check_delta(t, d)?;
        }
        Ok(EpochPlan {
            generation: self.generation,
            deltas,
            views: BTreeMap::new(),
        })
    }

    /// Plan a whole epoch: take out the rows the catalog cannot take
    /// ([`SourceDeltas::admit`]), then plan every affected view that
    /// does not lag, group by group ([`ViewManager::refresh_groups`]), then
    /// the base deltas. A lagging view's table does not reflect the
    /// pre-update catalog, so a patch planned against it would not bring it
    /// in step; it stays out until it is installed afresh.
    pub fn plan_epoch<'a>(&self, deltas: &'a SourceDeltas) -> Result<EpochPlan<'a>> {
        let (deltas, _) = deltas.admit(&self.catalog);
        let affected: Vec<&str> = self
            .affected_views(&deltas)
            .filter(|v| !v.lagging)
            .map(MaterializedView::name)
            .collect();
        let mut views = BTreeMap::new();
        for group in self.refresh_groups(&affected) {
            let mut planned: Vec<RefreshPlan> = Vec::with_capacity(group.members().len());
            for &(name, parent) in group.members() {
                let refresh = self.plan_member(name, &deltas, parent.map(|i| &planned[i]))?;
                planned.push(refresh);
            }
            views.extend(planned.into_iter().map(|r| (r.view.clone(), r)));
        }
        Ok(EpochPlan {
            views,
            ..self.validate(deltas)?
        })
    }

    /// **Commit** a planned epoch in place: apply the validated base deltas
    /// to the live tables and install every view patch — O(|Δ|) keyed
    /// writes, no table copied. A table whose rows a reader still shares
    /// detaches once (copy-on-write), leaving the reader's snapshot intact.
    ///
    /// Nothing past the first line can fail: every fallible step ran at
    /// plan time against exactly this state, which is what the generation
    /// check establishes. A plan from any other generation is refused
    /// with nothing touched. A caller serving concurrent readers holds its
    /// write lock across this call; that is what makes the many in-place
    /// writes one atomic step to them.
    ///
    /// A view the plan left out although its tables changed lags from here
    /// on ([`ViewManager::is_lagging`]).
    pub fn commit_epoch(&mut self, mut plan: EpochPlan<'_>) -> std::result::Result<(), StalePlan> {
        let mut planned =
            std::iter::once(plan.generation).chain(plan.views.values().map(|r| r.generation));
        if let Some(planned_at) = planned.find(|g| *g != self.generation) {
            return Err(StalePlan {
                planned_at,
                current: self.generation,
            });
        }
        let _s = tracing::span("maintain.commit").enter();
        self.generation += 1;
        for (t, d) in plan.deltas.iter() {
            if let Ok(table) = self.catalog.table_mut(t) {
                let applied = table.apply_delta(d);
                debug_assert!(applied.is_ok(), "checked delta refused: {applied:?}");
            }
        }
        for (name, view) in self.views.iter_mut() {
            match plan.views.remove(name) {
                Some(refresh) => view.install(refresh.patch),
                None => view.lagging |= view.reads_any(&plan.deltas),
            }
        }
        Ok(())
    }

    /// Full refresh cycle: plan every affected view and the base-table
    /// commit, then commit it all in place. All or nothing — an error
    /// leaves every view and table as it was. Returns the outcome of each
    /// view that was refreshed.
    pub fn refresh(
        &mut self,
        deltas: &SourceDeltas,
    ) -> Result<BTreeMap<String, MaintenanceOutcome>> {
        let plan = self.plan_epoch(deltas)?;
        let outcomes = plan
            .views()
            .map(|(name, r)| (name.to_string(), r.outcome.clone()))
            .collect();
        self.commit_epoch(plan)?;
        Ok(outcomes)
    }

    /// Verify what readers of a view see ([`MaterializedView::query`])
    /// against its definition run over the catalog (testing aid).
    pub fn verify_view(&self, name: &str) -> Result<bool> {
        let view = self.view(name)?;
        let fresh = Executor::new().run(&view.definition, &self.catalog)?;
        Ok(view.query()?.bag_eq(&fresh))
    }

    /// The compiled maintenance plan of a view, naming the σ-parent it
    /// derives its refreshes from, if any.
    pub fn maintenance_plan(&self, name: &str) -> Result<MaintenancePlan> {
        Ok(MaintenancePlan {
            derived_from: self.sigma_parent(name).map(String::from),
            ..self.view(name)?.maintenance_plan()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_algebra::{AggSpec, Expr, PivotSpec};
    use gpivot_storage::{row, DataType, Schema, Value};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let items = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("id", DataType::Int),
                    ("attr", DataType::Str),
                    ("val", DataType::Int),
                ],
                &["id", "attr"],
            )
            .unwrap(),
        );
        c.register(
            "items",
            Table::from_rows(
                items,
                vec![
                    row![1, "a", 10],
                    row![1, "b", 20],
                    row![2, "a", 30],
                    row![3, "b", 40],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    fn pivot_plan() -> Plan {
        Plan::scan("items").gpivot(PivotSpec::simple(
            "attr",
            "val",
            vec![Value::str("a"), Value::str("b")],
        ))
    }

    #[test]
    fn auto_strategy_for_pivot_top() {
        let vm = ViewManager::new(catalog());
        assert_eq!(vm.choose_strategy(&pivot_plan()), Strategy::PivotUpdate);
    }

    #[test]
    fn auto_strategy_for_select_over_pivot() {
        let vm = ViewManager::new(catalog());
        let plan = pivot_plan().select(Expr::col("a**val").gt(Expr::lit(5)));
        assert_eq!(vm.choose_strategy(&plan), Strategy::SelectPivotUpdate);
    }

    #[test]
    fn auto_strategy_for_group_pivot() {
        let vm = ViewManager::new(catalog());
        let plan = Plan::scan("items")
            .group_by(&["attr"], vec![AggSpec::sum("val", "s")])
            .gpivot(PivotSpec::new(
                vec!["attr"],
                vec!["s"],
                vec![vec![Value::str("a")], vec![Value::str("b")]],
            ));
        assert_eq!(vm.choose_strategy(&plan), Strategy::GroupPivotUpdate);
    }

    #[test]
    fn create_maintain_verify_cycle() {
        let mut vm = ViewManager::new(catalog());
        vm.register_view("v", pivot_plan()).unwrap();
        assert!(vm.verify_view("v").unwrap());

        let mut deltas = SourceDeltas::new();
        deltas.insert_rows("items", vec![row![2, "b", 99], row![4, "a", 7]]);
        deltas.delete_rows("items", vec![row![1, "a", 10]]);
        vm.refresh(&deltas).unwrap();
        assert!(
            vm.verify_view("v").unwrap(),
            "view out of sync after refresh"
        );
    }

    #[test]
    fn every_applicable_strategy_agrees() {
        // Maintain the same view with every applicable strategy and check
        // they all converge to the recomputed state.
        let plan = pivot_plan();
        let mut deltas = SourceDeltas::new();
        deltas.delete_rows("items", vec![row![1, "b", 20], row![3, "b", 40]]);
        deltas.insert_rows("items", vec![row![3, "a", 1], row![5, "b", 5]]);

        for strategy in [
            Strategy::Recompute,
            Strategy::InsertDelete,
            Strategy::PivotUpdate,
        ] {
            let mut vm = ViewManager::new(catalog());
            vm.register_view_with("v", plan.clone(), strategy).unwrap();
            vm.refresh(&deltas).unwrap();
            assert!(vm.verify_view("v").unwrap(), "strategy {strategy} diverged");
        }
    }

    #[test]
    fn group_pivot_view_hides_helper_columns() {
        let mut vm = ViewManager::new(catalog());
        let plan = Plan::scan("items")
            .group_by(&["attr"], vec![AggSpec::sum("val", "s")])
            .gpivot(PivotSpec::new(
                vec!["attr"],
                vec!["s"],
                vec![vec![Value::str("a")], vec![Value::str("b")]],
            ));
        vm.register_view("v", plan).unwrap();
        let user = vm.query_view("v").unwrap();
        // Hidden __cs / __c_val cells must not leak into the user view.
        assert!(user
            .schema()
            .column_names()
            .iter()
            .all(|c| !c.contains("__cs") && !c.contains("__c_")));
        // The materialized table carries the SUM's `count(val)` — its
        // liveness count — and no `count(*)`: no COUNT is visible.
        let columns = vm.view("v").unwrap().table().schema().column_names();
        assert!(columns.iter().any(|c| c.contains("__c_val")));
        assert!(columns.iter().all(|c| !c.contains("__cs")));
    }

    #[test]
    fn a_group_pivot_never_shows_a_row_whose_visible_cells_are_all_null() {
        // Key 4's only group sums NULLs: its cell is ⊥, so the definition's
        // pivot has no row 4 — and neither may the view, at registration
        // or after key 5 arrives the same way.
        let mut c = catalog();
        let null_val =
            |id: i64, attr: &str| Row::new(vec![Value::Int(id), Value::str(attr), Value::Null]);
        c.apply_delta("items", &Delta::from_inserts(vec![null_val(4, "a")]))
            .unwrap();
        let mut vm = ViewManager::new(c);
        let plan = Plan::scan("items")
            .group_by(&["id", "attr"], vec![AggSpec::sum("val", "s")])
            .gpivot(PivotSpec::new(
                vec!["attr"],
                vec!["s"],
                vec![vec![Value::str("a")], vec![Value::str("b")]],
            ));
        assert_eq!(
            vm.register_view("v", plan.clone()).unwrap(),
            Strategy::GroupPivotUpdate
        );
        let definition = |vm: &ViewManager| Executor::new().run(&plan, vm.catalog()).unwrap();
        assert!(vm.query_view("v").unwrap().bag_eq(&definition(&vm)));

        let mut deltas = SourceDeltas::new();
        deltas.insert_rows("items", vec![null_val(5, "b")]);
        vm.refresh(&deltas).unwrap();
        assert!(vm.query_view("v").unwrap().bag_eq(&definition(&vm)));
        assert_eq!(vm.query_view("v").unwrap().len(), 3);
        assert!(vm.verify_view("v").unwrap());
    }

    #[test]
    fn projecting_reads_share_patched_rows_and_never_touch_held_ones() {
        // A group-pivot view hides helper columns, so `query` projects.
        let mut vm = ViewManager::new(catalog());
        let plan = Plan::scan("items")
            .group_by(&["attr"], vec![AggSpec::sum("val", "s")])
            .gpivot(PivotSpec::new(
                vec!["attr"],
                vec!["s"],
                vec![vec![Value::str("a")], vec![Value::str("b")]],
            ));
        vm.register_view("v", plan).unwrap();

        // Two reads with nothing between them are the same rows.
        let first = vm.query_view("v").unwrap();
        let second = vm.query_view("v").unwrap();
        assert!(Arc::ptr_eq(&first.shared_rows(), &second.shared_rows()));
        let storage = first.rows().as_ptr();
        drop((first, second));

        // With no reader holding them, a refresh patches those rows where
        // they are.
        let mut deltas = SourceDeltas::new();
        deltas.insert_rows("items", vec![row![9, "a", 1000]]);
        vm.refresh(&deltas).unwrap();
        let third = vm.query_view("v").unwrap();
        assert_eq!(third.rows().as_ptr(), storage, "unshared rows were copied");

        // A result held across a refresh keeps what it read; the next
        // read sees the new state.
        let before = third.rows().to_vec();
        let mut deltas = SourceDeltas::new();
        deltas.insert_rows("items", vec![row![10, "a", 5], row![10, "b", 5]]);
        vm.refresh(&deltas).unwrap();
        let fourth = vm.query_view("v").unwrap();
        assert_eq!(third.rows(), &before[..], "a held result was overwritten");
        assert_ne!(fourth.rows(), third.rows());
        assert!(vm.verify_view("v").unwrap());
        let fresh = Executor::new()
            .run(vm.view("v").unwrap().definition(), vm.catalog())
            .unwrap();
        assert!(fourth.bag_eq(&fresh));
    }

    #[test]
    fn costed_creation_picks_update_rules_for_small_deltas() {
        let mut vm = ViewManager::new(catalog());
        let s = vm
            .register_view_with(
                "v",
                pivot_plan(),
                ViewOptions::new().expected_delta_rows(2.0),
            )
            .unwrap();
        assert_eq!(s, Strategy::PivotUpdate);
        // Huge expected deltas flip the choice to recomputation.
        let mut vm = ViewManager::new(catalog());
        let s = vm
            .register_view_with(
                "v",
                pivot_plan(),
                ViewOptions::new().expected_delta_rows(1_000_000.0),
            )
            .unwrap();
        assert_eq!(s, Strategy::Recompute);
    }

    #[test]
    fn a_delta_that_cancels_to_empty_affects_no_view() {
        use gpivot_storage::{FaultInjector, FaultSite};
        let injector = FaultInjector::seeded(1).with_site(FaultSite::Propagate, 1.0, 0.0);
        injector.disarm();
        let mut c = catalog();
        c.set_fault_injector(injector.clone());
        let mut vm = ViewManager::new(c);
        vm.register_view("v", pivot_plan()).unwrap();
        vm.register_view_with("r", pivot_plan(), Strategy::Recompute)
            .unwrap();

        // Updated there and back: `items` keeps an entry, but it is empty.
        let mut deltas = SourceDeltas::new();
        deltas.update_row("items", row![1, "a", 10], row![1, "a", 11]);
        deltas.update_row("items", row![1, "a", 11], row![1, "a", 10]);
        assert!(deltas.delta("items").is_some_and(Delta::is_empty));
        assert_eq!(vm.affected_views(&deltas).count(), 0);

        // An armed Propagate fault would fail any view that got planned.
        injector.arm();
        let outcomes = vm.refresh(&deltas).unwrap();
        assert!(outcomes.is_empty(), "refreshed {:?}", outcomes.keys());
        assert!(vm.verify_view("v").unwrap() && vm.verify_view("r").unwrap());
    }

    /// [`pivot_plan`]'s rows whose `a` cell exceeds 15.
    fn sigma_plan() -> Plan {
        pivot_plan().select(Expr::col("a**val").gt(Expr::lit(15)))
    }

    /// Refresh, and name the views whose refresh derived from a σ-parent
    /// (each records one `maintain.derive` span).
    fn refresh_derived(
        vm: &mut ViewManager,
        deltas: &SourceDeltas,
    ) -> (BTreeMap<String, MaintenanceOutcome>, u64) {
        let spans = tracing::TimingSubscriber::shared();
        let _trace = tracing::push_collector(spans.clone());
        let outcomes = vm.refresh(deltas).unwrap();
        let derived = spans.histogram("maintain.derive").map_or(0, |h| h.count());
        (outcomes, derived)
    }

    #[test]
    fn sigma_child_derives_from_its_parent_and_the_plan_names_the_edge() {
        let mut vm = ViewManager::new(catalog());
        // The child first, and two equal parents: the lowest name wins.
        vm.register_view("child", sigma_plan()).unwrap();
        vm.register_view("q", pivot_plan()).unwrap();
        vm.register_view("p", pivot_plan()).unwrap();
        assert_eq!(vm.sigma_parent("child"), Some("p"));
        assert_eq!(vm.sigma_parent("p"), None);
        let plan = vm.maintenance_plan("child").unwrap();
        assert_eq!(plan.strategy, Strategy::SelectPivotUpdate);
        assert_eq!(plan.derived_from.as_deref(), Some("p"));
        assert!(plan
            .to_string()
            .contains("derived from p (σ re-test of its patch)"));
        assert_eq!(vm.maintenance_plan("p").unwrap().derived_from, None);
        assert!(!vm
            .maintenance_plan("p")
            .unwrap()
            .to_string()
            .contains("derived"));
        assert_eq!(
            vm.refresh_groups(&["child", "p", "q"]),
            vec![
                RefreshGroup {
                    members: vec![("p", None), ("child", Some(0))]
                },
                RefreshGroup {
                    members: vec![("q", None)]
                },
            ]
        );

        // Held and passes, held and fails, absent and passes, absent and
        // fails, and a parent delete.
        let mut deltas = SourceDeltas::new();
        deltas.update_row("items", row![2, "a", 30], row![2, "a", 31]);
        deltas.update_row("items", row![1, "a", 10], row![1, "a", 16]);
        deltas.insert_rows("items", vec![row![4, "a", 50], row![5, "a", 1]]);
        deltas.update_row("items", row![2, "a", 31], row![2, "a", 31]);
        let (outcomes, derived) = refresh_derived(&mut vm, &deltas);
        assert_eq!(derived, 1);
        let child = &outcomes["child"];
        assert_eq!(child.rows_propagated, 0, "the child propagated");
        assert_eq!(child.delta_rows, outcomes["p"].stats.total());
        assert_eq!((child.stats.inserted, child.stats.updated), (2, 1));
        for v in ["child", "p", "q"] {
            assert!(vm.verify_view(v).unwrap(), "{v} diverged");
        }
        let mut deltas = SourceDeltas::new();
        deltas.delete_rows("items", vec![row![2, "a", 31], row![4, "a", 50]]);
        deltas.update_row("items", row![1, "a", 16], row![1, "a", 3]);
        let child = vm.refresh(&deltas).unwrap().remove("child").unwrap();
        assert_eq!(child.stats.deleted, 3);
        assert!(vm.verify_view("child").unwrap());

        // Without its parent the child runs Fig. 29 again.
        vm.drop_view("p").unwrap();
        assert_eq!(vm.sigma_parent("child"), Some("q"));
        vm.drop_view("q").unwrap();
        assert_eq!(vm.sigma_parent("child"), None);
        assert_eq!(vm.maintenance_plan("child").unwrap().derived_from, None);
        let mut deltas = SourceDeltas::new();
        deltas.insert_rows("items", vec![row![6, "a", 60]]);
        let (outcomes, derived) = refresh_derived(&mut vm, &deltas);
        assert_eq!((derived, outcomes["child"].stats.inserted), (0, 1));
        assert!(vm.verify_view("child").unwrap());
    }

    #[test]
    fn sigma_child_of_a_delta_or_a_replace_parent_derives() {
        for parent_strategy in [Strategy::InsertDelete, Strategy::Recompute] {
            let mut vm = ViewManager::new(catalog());
            vm.register_view_with("p", pivot_plan(), parent_strategy)
                .unwrap();
            vm.register_view_with("c", sigma_plan(), Strategy::InsertDelete)
                .unwrap();
            assert_eq!(vm.sigma_parent("c"), Some("p"), "{parent_strategy}");
            let mut deltas = SourceDeltas::new();
            deltas.update_row("items", row![1, "a", 10], row![1, "a", 20]);
            deltas.update_row("items", row![2, "a", 30], row![2, "a", 3]);
            deltas.insert_rows("items", vec![row![7, "a", 70], row![8, "b", 80]]);
            let (outcomes, derived) = refresh_derived(&mut vm, &deltas);
            assert_eq!(derived, 1, "{parent_strategy}");
            assert_eq!(outcomes["c"].rows_propagated, 0, "{parent_strategy}");
            assert!(vm.verify_view("p").unwrap() && vm.verify_view("c").unwrap());
            assert_eq!(vm.view("c").unwrap().len(), 2, "{parent_strategy}");
        }
    }

    #[test]
    fn a_chain_of_sigma_children_plans_parent_first() {
        let mut vm = ViewManager::new(catalog());
        let grandchild = sigma_plan().select(Expr::col("b**val").gt(Expr::lit(0)));
        vm.register_view_with("a", grandchild, Strategy::InsertDelete)
            .unwrap();
        vm.register_view_with("b", sigma_plan(), Strategy::InsertDelete)
            .unwrap();
        vm.register_view_with("c", pivot_plan(), Strategy::InsertDelete)
            .unwrap();
        assert_eq!(vm.sigma_parent("a"), Some("b"));
        assert_eq!(vm.sigma_parent("b"), Some("c"));
        let groups = vm.refresh_groups(&["a", "b", "c"]);
        assert_eq!(groups.len(), 1);
        assert_eq!(
            groups[0].members(),
            &[("c", None), ("b", Some(0)), ("a", Some(1))]
        );
        let mut deltas = SourceDeltas::new();
        deltas.insert_rows("items", vec![row![2, "b", 5], row![9, "a", 90]]);
        let (outcomes, derived) = refresh_derived(&mut vm, &deltas);
        assert_eq!((derived, outcomes["a"].rows_propagated), (2, 0));
        // Keys 2 (a 30, b 5) and 9 (a 90) pass the first σ, only 2 both.
        assert_eq!(vm.view("a").unwrap().len(), 1);
        for v in ["a", "b", "c"] {
            assert!(vm.verify_view(v).unwrap(), "{v} diverged");
        }
    }

    #[test]
    fn a_view_out_of_step_with_its_parent_plans_on_its_own() {
        let mut vm = ViewManager::new(catalog());
        vm.register_view("parent", pivot_plan()).unwrap();
        vm.register_view("child", sigma_plan()).unwrap();
        // Commit a base change with the child's refresh but without the
        // parent's: the child is current, the parent lags.
        let mut d1 = SourceDeltas::new();
        d1.update_row("items", row![1, "a", 10], row![1, "a", 40]);
        let mut epoch = vm.plan_commit(&d1).unwrap();
        epoch.add_view("child", vm.plan_member("child", &d1, None).unwrap());
        vm.commit_epoch(epoch).unwrap();
        assert!(vm.is_lagging("parent") && !vm.is_lagging("child"));
        assert!(vm.verify_view("child").unwrap());
        assert!(!vm.verify_view("parent").unwrap());
        assert_eq!(vm.refresh_groups(&["child", "parent"]).len(), 2);

        // The lagging parent's patch would carry key 1 with its stale `a`
        // cell, which fails σ: deriving from it would drop the row.
        let mut d2 = SourceDeltas::new();
        d2.update_row("items", row![1, "b", 20], row![1, "b", 21]);
        let (_, derived) = refresh_derived(&mut vm, &d2);
        assert_eq!(derived, 0, "the child derived from a lagging parent");
        assert!(vm.verify_view("child").unwrap());

        // A lagging parent's plan handed to the child is refused.
        let mut d3 = SourceDeltas::new();
        d3.insert_rows("items", vec![row![6, "a", 60]]);
        let parent_plan = vm.plan_member("parent", &d3, None).unwrap();
        assert!(vm.plan_member("child", &d3, Some(&parent_plan)).is_err());

        // Installed afresh, the parent is in step and the child derives.
        let fresh = MaterializedView::create_with(
            "parent",
            pivot_plan(),
            Strategy::PivotUpdate,
            vm.catalog(),
            &Executor::new(),
        )
        .unwrap();
        vm.install_view(fresh);
        assert!(!vm.is_lagging("parent"));
        let (_, derived) = refresh_derived(&mut vm, &d3);
        assert_eq!(derived, 1);
        assert!(vm.verify_view("parent").unwrap() && vm.verify_view("child").unwrap());
    }

    #[test]
    fn duplicate_view_rejected() {
        let mut vm = ViewManager::new(catalog());
        vm.register_view("v", pivot_plan()).unwrap();
        assert!(matches!(
            vm.register_view("v", pivot_plan()),
            Err(CoreError::DuplicateView(_))
        ));
    }

    #[test]
    fn unknown_view_errors() {
        let vm = ViewManager::new(catalog());
        assert!(matches!(vm.view("missing"), Err(CoreError::UnknownView(_))));
    }
}
