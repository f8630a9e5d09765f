//! Materialized views and the [`ViewManager`] — the integration point of
//! the whole paper: compile (normalize + choose strategy + materialize),
//! refresh (propagate + apply), commit, verify.

use crate::error::{CoreError, Result, StalePlan};
use crate::maintain::apply::{apply_row_ops, plan_pivot_update, RowOp};
use crate::maintain::delta_prop::{propagate, PropagationCtx};
use crate::maintain::group_pivot::{plan_group_pivot_update, GroupPivotInfo};
use crate::maintain::select_pivot::plan_select_pivot_update;
use crate::maintain::strategy::{MaintenanceOutcome, MaintenancePlan, Strategy};
use crate::maintain::SourceDeltas;
use crate::rewrite::{
    normalize_view, normalize_view_with_select_pushdown, NormalizedView, TopShape,
};
use gpivot_algebra::plan::{JoinKind, Plan};
use gpivot_algebra::{AggFunc, AggSpec, Expr, PivotSpec};
use gpivot_analyze::Diagnostic;
use gpivot_exec::Executor;
use gpivot_storage::{Catalog, Delta, Field, Row, Schema, SchemaRef, Table};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// A materialized view: definition, compiled maintenance form, and data.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    name: String,
    definition: Plan,
    strategy: Strategy,
    normalized: NormalizedView,
    group_info: Option<GroupPivotInfo>,
    /// The base tables the definition and its normalized form read.
    dependencies: BTreeSet<String>,
    table: Table,
    /// Warning/info diagnostics the plan lint recorded at registration
    /// (empty when created directly or registered with lint skipped).
    lint_warnings: Vec<Diagnostic>,
    /// How [`MaterializedView::query`] reshapes the table; `None` when the
    /// user-facing shape *is* the table.
    output: Option<Output>,
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

/// Add the hidden measures Fig. 27 needs: a `count(*)` per subgroup and a
/// `count(col)` companion per `sum(col)` (cf. Fig. 28, where the paper adds
/// COUNT(*) to make the view self-maintainable). Returns the augmented plan.
fn augment_group_pivot(plan: &Plan) -> Result<Plan> {
    let Plan::GPivot { input, spec } = plan else {
        return Err(CoreError::StrategyNotApplicable {
            strategy: Strategy::GroupPivotUpdate.id().into(),
            reason: "top operator is not a GPivot".into(),
        });
    };
    let Plan::GroupBy {
        input: core,
        group_by,
        aggs,
    } = input.as_ref()
    else {
        return Err(CoreError::StrategyNotApplicable {
            strategy: Strategy::GroupPivotUpdate.id().into(),
            reason: "no GroupBy directly under the top GPivot".into(),
        });
    };

    let mut new_aggs = aggs.clone();
    let mut new_on = spec.on.clone();
    let pivoted_aggs: Vec<&AggSpec> = aggs
        .iter()
        .filter(|a| spec.on.contains(&a.output))
        .collect();
    for a in &pivoted_aggs {
        if matches!(a.func, AggFunc::Min | AggFunc::Max | AggFunc::Avg) {
            return Err(CoreError::StrategyNotApplicable {
                strategy: Strategy::GroupPivotUpdate.id().into(),
                reason: format!(
                    "aggregate {} is not maintainable by the Fig. 27 rules",
                    a.func
                ),
            });
        }
    }
    // count(*): required for subgroup liveness.
    if !pivoted_aggs.iter().any(|a| a.func == AggFunc::CountStar) {
        new_aggs.push(AggSpec::count_star("__cs"));
        new_on.push("__cs".to_string());
    }
    // count(col) companion per sum(col).
    for a in &pivoted_aggs {
        if a.func == AggFunc::Sum {
            let has_partner = new_aggs.iter().any(|b| {
                b.func == AggFunc::Count && b.input == a.input && new_on.contains(&b.output)
            });
            if !has_partner {
                let name = format!("__c_{}", a.input);
                if !new_aggs.iter().any(|b| b.output == name) {
                    new_aggs.push(AggSpec::count(&a.input, &name));
                }
                if !new_on.contains(&name) {
                    new_on.push(name);
                }
            }
        }
    }
    Ok(Plan::GPivot {
        input: Box::new(Plan::GroupBy {
            input: core.clone(),
            group_by: group_by.clone(),
            aggs: new_aggs,
        }),
        spec: PivotSpec {
            by: spec.by.clone(),
            on: new_on,
            groups: spec.groups.clone(),
        },
    })
}

impl MaterializedView {
    /// Compile and materialize a view with an explicit strategy, on a
    /// default (single-thread) executor. See
    /// [`MaterializedView::create_with`] to control execution.
    pub fn create(
        name: impl Into<String>,
        definition: Plan,
        strategy: Strategy,
        catalog: &Catalog,
    ) -> Result<Self> {
        Self::create_with(name, definition, strategy, catalog, &Executor::new())
    }

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
        let (normalized, group_info) = {
            let _s = tracing::span("compile.normalize").enter();
            Self::compile(&definition, strategy, catalog)?
        };
        let table = {
            let _s = tracing::span("compile.materialize").enter();
            materialize(&normalized.plan, catalog, exec)?
        };
        Self::assemble(name, definition, strategy, normalized, group_info, table)
    }

    fn assemble(
        name: String,
        definition: Plan,
        strategy: Strategy,
        normalized: NormalizedView,
        group_info: Option<GroupPivotInfo>,
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
            group_info,
            dependencies,
            table,
            lint_warnings: Vec::new(),
            output,
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
        let (normalized, group_info) = Self::compile(&definition, strategy, catalog)?;
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
        let view = Self::assemble(name, definition, strategy, normalized, group_info, table)?;
        Ok((view, used_snapshot))
    }

    /// The normalize + shape-check half of [`MaterializedView::create`]:
    /// produce the maintenance form for `strategy`, or explain why the
    /// strategy does not apply.
    fn compile(
        definition: &Plan,
        strategy: Strategy,
        catalog: &Catalog,
    ) -> Result<(NormalizedView, Option<GroupPivotInfo>)> {
        let out = match strategy {
            Strategy::Recompute | Strategy::InsertDelete => {
                // Maintain the original tree directly.
                let schema = definition.schema(catalog)?;
                let output = schema
                    .column_names()
                    .iter()
                    .map(|c| (c.to_string(), c.to_string()))
                    .collect();
                (
                    NormalizedView {
                        plan: definition.clone(),
                        output,
                        identity_output: true,
                        log: vec![],
                        shape: if definition.pivot_count() > 0 {
                            TopShape::StuckPivot
                        } else {
                            TopShape::Relational
                        },
                    },
                    None,
                )
            }
            Strategy::PivotUpdate => {
                let nv = normalize_view(definition, catalog)?;
                match nv.shape {
                    TopShape::PivotTop { .. } => (nv, None),
                    ref s => {
                        return Err(CoreError::StrategyNotApplicable {
                            strategy: strategy.id().into(),
                            reason: format!("normalized shape is {s:?}, not PivotTop"),
                        })
                    }
                }
            }
            Strategy::SelectPushdownUpdate => {
                let nv = normalize_view_with_select_pushdown(definition, catalog)?;
                match nv.shape {
                    TopShape::PivotTop { .. } => (nv, None),
                    ref s => {
                        return Err(CoreError::StrategyNotApplicable {
                            strategy: strategy.id().into(),
                            reason: format!("shape after select pushdown is {s:?}"),
                        })
                    }
                }
            }
            Strategy::SelectPivotUpdate => {
                let nv = normalize_view(definition, catalog)?;
                match &nv.shape {
                    TopShape::SelectOverPivot { predicate, .. } => {
                        if !predicate.is_null_intolerant() {
                            return Err(CoreError::StrategyNotApplicable {
                                strategy: strategy.id().into(),
                                reason: format!("predicate `{predicate}` is not null-intolerant"),
                            });
                        }
                        (nv, None)
                    }
                    s => {
                        return Err(CoreError::StrategyNotApplicable {
                            strategy: strategy.id().into(),
                            reason: format!("normalized shape is {s:?}, not SelectOverPivot"),
                        })
                    }
                }
            }
            Strategy::GroupPivotUpdate => {
                let mut nv = normalize_view(definition, catalog)?;
                if !matches!(nv.shape, TopShape::PivotOverGroupBy { .. }) {
                    return Err(CoreError::StrategyNotApplicable {
                        strategy: strategy.id().into(),
                        reason: format!("normalized shape is {:?}", nv.shape),
                    });
                }
                let augmented = augment_group_pivot(&nv.plan)?;
                let (spec, group_by, aggs) = match &augmented {
                    Plan::GPivot { input, spec } => match input.as_ref() {
                        Plan::GroupBy { group_by, aggs, .. } => {
                            (spec.clone(), group_by.clone(), aggs.clone())
                        }
                        _ => unreachable!("augment preserves shape"),
                    },
                    _ => unreachable!("augment preserves shape"),
                };
                let info = GroupPivotInfo::derive(&group_by, &aggs, &spec)?;
                nv.plan = augmented;
                nv.shape = TopShape::PivotOverGroupBy {
                    spec,
                    group_by,
                    aggs,
                };
                (nv, Some(info))
            }
            Strategy::GroupByInsDel => {
                let nv = normalize_view(definition, catalog)?;
                if !matches!(nv.shape, TopShape::PivotOverGroupBy { .. }) {
                    return Err(CoreError::StrategyNotApplicable {
                        strategy: strategy.id().into(),
                        reason: format!("normalized shape is {:?}", nv.shape),
                    });
                }
                (nv, None)
            }
        };
        Ok(out)
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
        }
    }

    /// Refresh the view against pending source deltas (the catalog still
    /// holds the pre-update state), on a default (single-thread) executor.
    /// See [`MaterializedView::maintain_with`] to control execution.
    pub fn maintain(
        &mut self,
        catalog: &Catalog,
        deltas: &SourceDeltas,
    ) -> Result<MaintenanceOutcome> {
        self.maintain_with(catalog, deltas, &Executor::new())
    }

    /// Refresh the view against pending source deltas, running every
    /// propagate/recompute subplan on `exec`:
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
    /// failed or abandoned refresh leaves nothing to undo.
    pub fn plan_refresh(
        &self,
        catalog: &Catalog,
        deltas: &SourceDeltas,
        exec: &Executor,
    ) -> Result<(ViewPatch, MaintenanceOutcome)> {
        use gpivot_storage::FaultSite;
        // Chaos-testing hooks: the Propagate site fires before any delta
        // work, the Apply site after propagation but before the patch is
        // computed. Context = the view name, so schedules can target one
        // view. Both are free no-ops with the default (disabled) injector.
        let faults = catalog.fault_injector();
        faults.check(FaultSite::Propagate, &self.name)?;
        let ctx = PropagationCtx::with_exec(catalog, deltas, exec.clone());
        // Propagate the source deltas to just below the strategy's apply
        // rules; the returned guard is the apply phase's span.
        let propagate_to_apply = |below: &Plan| -> Result<(Delta, tracing::Entered)> {
            let d = {
                let _s = tracing::span("maintain.propagate").enter();
                propagate(below, &ctx)?
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
                let (d, _apply) = propagate_to_apply(&self.normalized.plan)?;
                outcome.delta_rows = d.distinct_len();
                for (_, &w) in d.iter() {
                    if w > 0 {
                        outcome.stats.inserted += w as usize;
                    } else {
                        outcome.stats.deleted += (-w) as usize;
                    }
                }
                self.table
                    .check_delta(&d)
                    .map_err(|e| e.in_table(&self.name))?;
                PatchKind::Delta(d)
            }
            // Fig. 23 MERGE at the top pivot. Under `GroupByInsDel` its
            // input is the GROUPBY, which insert/delete propagation crosses
            // by recomputing the affected groups.
            Strategy::PivotUpdate | Strategy::SelectPushdownUpdate | Strategy::GroupByInsDel => {
                let (below, spec) = self.pivot_over(&self.normalized.plan)?;
                let (d, _apply) = propagate_to_apply(below)?;
                outcome.delta_rows = d.distinct_len();
                let schema = below.schema(catalog)?;
                let (ops, stats) = plan_pivot_update(&self.table, spec, &schema, &d)?;
                outcome.stats = stats;
                PatchKind::Rows(ops)
            }
            Strategy::SelectPivotUpdate => {
                let Plan::Select { input, predicate } = &self.normalized.plan else {
                    return Err(self.lost("top select"));
                };
                let (core, spec) = self.pivot_over(input)?;
                let (d, _apply) = propagate_to_apply(core)?;
                outcome.delta_rows = d.distinct_len();
                let (ops, stats) =
                    plan_select_pivot_update(&self.table, spec, predicate, core, &ctx, &d)?;
                outcome.stats = stats;
                PatchKind::Rows(ops)
            }
            Strategy::GroupPivotUpdate => {
                let (input, spec) = self.pivot_over(&self.normalized.plan)?;
                let Plan::GroupBy { input: core, .. } = input else {
                    return Err(self.lost("group-by"));
                };
                let info = self
                    .group_info
                    .as_ref()
                    .ok_or_else(|| self.lost("group-pivot info (not set at creation)"))?;
                let (d, _apply) = propagate_to_apply(core)?;
                outcome.delta_rows = d.distinct_len();
                let schema = core.schema(catalog)?;
                let (ops, stats) = plan_group_pivot_update(&self.table, spec, info, &schema, &d)?;
                outcome.stats = stats;
                PatchKind::Rows(ops)
            }
        };
        outcome.rows_propagated = ctx.rows_evaluated();
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

    /// `plan` as a GPIVOT: its input and spec.
    fn pivot_over<'p>(&self, plan: &'p Plan) -> Result<(&'p Plan, &'p PivotSpec)> {
        match plan {
            Plan::GPivot { input, spec } => Ok((input, spec)),
            _ => Err(self.lost("pivot")),
        }
    }

    /// The base tables this view reads — the service layer's dependency
    /// edges for dirty-table scheduling. Computed once, at compile time.
    pub fn dependencies(&self) -> &BTreeSet<String> {
        &self.dependencies
    }
}

/// Owns a catalog plus a set of materialized views, and runs the paper's
/// compile + refresh cycle over them.
///
/// A refresh is **plan → validate → commit**: [`ViewManager::plan_view`]
/// and [`ViewManager::plan_commit`] read the manager and can fail;
/// [`ViewManager::commit_epoch`] writes the result in place and cannot,
/// short of refusing a stale plan whole. [`ViewManager::refresh`] runs the
/// three in sequence; a service runs the first two under a read lock and
/// the last under its write lock.
#[derive(Debug, Clone, Default)]
pub struct ViewManager {
    catalog: Catalog,
    views: BTreeMap<String, MaterializedView>,
    exec: Executor,
    /// Bumped by everything that can change the catalog or a view. Plans
    /// record it; a plan from another generation is refused at commit.
    generation: u64,
}

/// One view's planned refresh, from [`ViewManager::plan_view`].
#[derive(Debug)]
pub struct RefreshPlan {
    generation: u64,
    patch: ViewPatch,
    outcome: MaintenanceOutcome,
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
    deltas: &'a SourceDeltas,
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

    /// Replace the executor every materialization, propagation, and
    /// verification in this manager runs on (thread count, kernel family
    /// — see [`gpivot_exec::Executor`]).
    pub fn with_exec(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// The executor this manager runs plans on.
    pub fn executor(&self) -> &Executor {
        &self.exec
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
                if augment_group_pivot(&nv.plan).is_ok() {
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
            &self.exec,
        )?;
        view.lint_warnings = lint_warnings;
        self.install_view(view);
        Ok(())
    }

    /// Drop a view.
    pub fn drop_view(&mut self, name: &str) -> Result<MaterializedView> {
        self.generation += 1;
        self.views
            .remove(name)
            .ok_or_else(|| CoreError::UnknownView(name.to_string()))
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
    pub fn install_view(&mut self, view: MaterializedView) {
        self.generation += 1;
        self.views.insert(view.name().to_string(), view);
    }

    /// Refresh a single view against pending deltas (no commit).
    pub fn maintain_view(
        &mut self,
        name: &str,
        deltas: &SourceDeltas,
    ) -> Result<MaintenanceOutcome> {
        let RefreshPlan { patch, outcome, .. } = self.plan_view(name, deltas)?;
        self.generation += 1;
        if let Some(view) = self.views.get_mut(name) {
            view.install(patch);
        }
        Ok(outcome)
    }

    /// Commit pending deltas to the base tables, all or none: every table
    /// is validated before the first is written.
    pub fn commit(&mut self, deltas: &SourceDeltas) -> Result<()> {
        let plan = self.plan_commit(deltas)?;
        Ok(self.commit_epoch(plan)?)
    }

    /// The views that read a table `deltas` changes, in name order.
    pub fn affected_views<'s>(
        &'s self,
        deltas: &'s SourceDeltas,
    ) -> impl Iterator<Item = &'s MaterializedView> {
        self.views
            .values()
            .filter(|v| deltas.tables().any(|t| v.dependencies().contains(t)))
    }

    /// **Plan** one view's refresh against `deltas` and the pre-update
    /// catalog ([`MaterializedView::plan_refresh`]). Reads only.
    pub fn plan_view(&self, name: &str, deltas: &SourceDeltas) -> Result<RefreshPlan> {
        let (patch, outcome) = self
            .view(name)?
            .plan_refresh(&self.catalog, deltas, &self.exec)?;
        Ok(RefreshPlan {
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

    /// Plan a whole epoch: every affected view, then the base deltas.
    pub fn plan_epoch<'a>(&self, deltas: &'a SourceDeltas) -> Result<EpochPlan<'a>> {
        let views = self
            .affected_views(deltas)
            .map(|v| Ok((v.name().to_string(), self.plan_view(v.name(), deltas)?)))
            .collect::<Result<_>>()?;
        Ok(EpochPlan {
            views,
            ..self.plan_commit(deltas)?
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
    pub fn commit_epoch(&mut self, plan: EpochPlan<'_>) -> std::result::Result<(), StalePlan> {
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
        for (name, refresh) in plan.views {
            if let Some(view) = self.views.get_mut(&name) {
                view.install(refresh.patch);
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

    /// Verify a view's materialization against recomputation (testing aid).
    pub fn verify_view(&self, name: &str) -> Result<bool> {
        let view = self.view(name)?;
        let fresh = self.exec.run(&view.normalized.plan, &self.catalog)?;
        Ok(view.table.bag_eq(&fresh))
    }

    /// The compiled maintenance plan of a view.
    pub fn maintenance_plan(&self, name: &str) -> Result<MaintenancePlan> {
        Ok(self.view(name)?.maintenance_plan())
    }
}

// `Expr` is used by doc examples and the select-pivot strategy match.
#[allow(unused_imports)]
use Expr as _ExprForDocs;

#[cfg(test)]
mod tests {
    use super::*;
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
        // But the materialized table does carry them.
        assert!(vm
            .view("v")
            .unwrap()
            .table()
            .schema()
            .column_names()
            .iter()
            .any(|c| c.contains("__cs")));
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
    fn register_view_on_a_parallel_executor_matches_sequential() {
        // Enough rows that materialization takes the partitioned kernels
        // (the executor's threshold is 1 024 input rows): the view contents
        // must be row-for-row identical at every thread count.
        let catalog = || {
            let mut c = catalog();
            let rows: Vec<Row> = (0..700)
                .flat_map(|id| {
                    let b = (id % 3 != 0).then(|| row![id, "b", id + 1]);
                    std::iter::once(row![id, "a", id]).chain(b)
                })
                .collect();
            assert!(rows.len() >= 1024);
            let schema = c.table("items").unwrap().schema().clone();
            c.replace("items", Table::from_rows(schema, rows).unwrap());
            c
        };
        let exec_at = |threads| Executor::new().with_threads(threads);
        let mut one = ViewManager::new(catalog()).with_exec(exec_at(1));
        one.register_view("v", pivot_plan()).unwrap();
        let mut four = ViewManager::new(catalog()).with_exec(exec_at(4));
        four.register_view("v", pivot_plan()).unwrap();
        assert_eq!(
            one.query_view("v").unwrap().rows(),
            four.query_view("v").unwrap().rows()
        );

        let mut deltas = SourceDeltas::new();
        deltas.insert_rows("items", vec![row![3, "b", 99], row![700, "a", 7]]);
        one.refresh(&deltas).unwrap();
        four.refresh(&deltas).unwrap();
        assert!(four.verify_view("v").unwrap());
        assert_eq!(
            one.query_view("v").unwrap().rows(),
            four.query_view("v").unwrap().rows()
        );

        // And against the default executor the result is still the same bag.
        let mut seq = ViewManager::new(catalog());
        seq.register_view("v", pivot_plan()).unwrap();
        seq.refresh(&deltas).unwrap();
        assert!(seq
            .query_view("v")
            .unwrap()
            .bag_eq(&four.query_view("v").unwrap()));
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
