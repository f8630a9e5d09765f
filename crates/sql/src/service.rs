//! The serve-layer entry point: one string in, one [`SqlOutcome`] out.
//!
//! [`GpivotService`] wraps a [`gpivot_serve::ShardedService`] (a single
//! root [`gpivot_serve::ViewService`] when configured with one shard) and
//! routes parsed statements:
//!
//! * `CREATE MATERIALIZED VIEW` → [`ShardedService::register_view`] (which
//!   runs the plan-lint gate, picks a maintenance [`Strategy`], and — on a
//!   sharded service — places the view shard-wise when the analyzer proves
//!   it shard-safe),
//! * `SELECT` → view-matching rewrite ([`crate::rewrite`]) then execution on
//!   a [`gpivot_exec::Executor`] — against the matched view's materialized
//!   table when a view subsumes the query, against the base tables
//!   otherwise,
//! * `EXPLAIN` → the rewritten plan's tree plus the analyzer's GP0xx
//!   findings and a `used view:` marker, without executing anything.
//!
//! Every `SELECT` bumps the serve metrics
//! (`gpivot_sql_rewrites_total{outcome="hit"|"miss"}`) and emits a
//! `rewrite.hit` / `rewrite.miss` tracing event; `EXPLAIN` is free.

use crate::error::{Result, SqlError};
use crate::parser::{parse_statement, Statement};
use crate::rewrite::rewrite;
use gpivot_algebra::Plan;
use gpivot_analyze::analyze;
use gpivot_core::{CoreError, Strategy};
use gpivot_exec::{Executor, Overlay};
use gpivot_serve::{ServeConfig, ShardedService, ViewService};
use gpivot_storage::{Catalog, Table};
use std::fmt::Write as _;

/// What a successfully executed statement produced.
#[derive(Debug)]
pub enum SqlOutcome {
    /// A `CREATE MATERIALIZED VIEW` registered and materialized a view.
    ViewCreated {
        name: String,
        /// The maintenance strategy the planner chose for it.
        strategy: Strategy,
        /// GP0xx lint warnings recorded at registration (empty = clean).
        lint_warnings: Vec<String>,
    },
    /// A `SELECT` ran to completion.
    Rows {
        table: Table,
        /// The materialized view that answered the query, if the rewriter
        /// matched one; `None` = executed against the base tables.
        used_view: Option<String>,
    },
    /// An `EXPLAIN` rendered the (rewritten) plan without executing it.
    Explain { text: String },
}

/// A SQL-speaking facade over the view-maintenance service.
pub struct GpivotService {
    inner: ShardedService,
}

impl GpivotService {
    /// A service over `catalog` with default serve configuration
    /// (unsharded).
    pub fn new(catalog: Catalog) -> Self {
        Self::with_config(catalog, ServeConfig::default())
    }

    /// A service over `catalog` with explicit serve configuration. With
    /// `cfg.sharding` set to more than one shard, provably shard-safe
    /// views created through SQL are partitioned and refreshed
    /// shard-parallel; everything else lands on the root shard.
    pub fn with_config(catalog: Catalog, cfg: ServeConfig) -> Self {
        GpivotService {
            inner: ShardedService::new(catalog, cfg),
        }
    }

    /// Wrap an existing (possibly already-populated) [`ViewService`] as a
    /// single-shard service.
    pub fn from_service(service: ViewService) -> Self {
        GpivotService {
            inner: ShardedService::from_single(service),
        }
    }

    /// Open (or create) a **durable** service rooted at `dir`.
    ///
    /// If `dir` holds a previous [`GpivotService::save`] (or a durable
    /// service's checkpoint + write-ahead log), the registered views, base
    /// tables, epoch counter, and pending ingest queue are all restored —
    /// view definitions are re-parsed from their persisted SQL via
    /// [`crate::parse_query`]. Otherwise the service bootstraps from
    /// `seed_catalog` and starts logging to `dir`. The returned
    /// [`gpivot_serve::RecoveryReport`] says which happened.
    ///
    /// Durability is single-shard (the checkpoint + WAL protocol has no
    /// cross-shard commit record): a `cfg` with more than one shard is
    /// refused as an `InvalidConfig` engine error before `dir` is touched.
    pub fn open(
        dir: impl AsRef<std::path::Path>,
        seed_catalog: Catalog,
        cfg: ServeConfig,
    ) -> Result<(Self, gpivot_serve::RecoveryReport)> {
        let shards = cfg.sharding().shards;
        if shards > 1 {
            let refused = CoreError::InvalidConfig {
                field: "shards".into(),
                message: format!("durable open is single-shard only ({shards} shards asked)"),
            };
            return Err(SqlError::Engine(refused.to_string()));
        }
        let parse = |sql: &str| crate::parser::parse_query(sql).map_err(|e| e.to_string());
        let (inner, report) = ViewService::open(dir, seed_catalog, cfg, &parse)
            .map_err(|e| SqlError::Engine(e.to_string()))?;
        Ok((Self::from_service(inner), report))
    }

    /// Persist a point-in-time snapshot of the full service state to `dir`
    /// (views, base tables, epoch, pending queue), replacing any previous
    /// gpivot files there. [`GpivotService::open`] on the same directory
    /// restores it exactly. Returns the checkpoint size in bytes. Backs
    /// the SQL REPL's `:save` / `:open` meta-commands.
    pub fn save(&self, dir: impl AsRef<std::path::Path>) -> Result<u64> {
        self.inner
            .save_to(dir)
            .map_err(|e| SqlError::Engine(e.to_string()))
    }

    /// The wrapped service — ingestion, refresh epochs, and metrics live
    /// there.
    pub fn service(&self) -> &ShardedService {
        &self.inner
    }

    /// Parse and execute one statement.
    pub fn execute_sql(&self, sql: &str) -> Result<SqlOutcome> {
        match parse_statement(sql)? {
            Statement::CreateView { name, definition } => self.create_view(name, definition),
            Statement::Select(plan) => self.run_select(plan),
            Statement::Explain(inner) => Ok(SqlOutcome::Explain {
                text: self.explain(&inner)?,
            }),
        }
    }

    fn create_view(&self, name: String, definition: Plan) -> Result<SqlOutcome> {
        let strategy = self
            .inner
            .register_view(name.clone(), definition)
            .map_err(|e| SqlError::Engine(e.to_string()))?;
        self.inner.record_sql_registration();
        let lint_warnings = self
            .inner
            .metrics()
            .per_view
            .get(&name)
            .map(|v| v.lint_warnings.clone())
            .unwrap_or_default();
        Ok(SqlOutcome::ViewCreated {
            name,
            strategy,
            lint_warnings,
        })
    }

    /// Run a `SELECT` on one snapshot of the service: over the contents
    /// of the view that subsumes it, if the rewriter finds one, else over
    /// the base tables. Counts the rewrite as a hit or a miss.
    fn run_select(&self, plan: Plan) -> Result<SqlOutcome> {
        let engine = |e: gpivot_exec::ExecError| SqlError::Engine(e.to_string());
        let result = {
            let snapshot = self.inner.snapshot();
            let manager = snapshot.manager();
            let views = snapshot.view_definitions();
            match rewrite(&plan, &views, manager.catalog()) {
                Some(hit) => {
                    // The rewritten plan scans the view's *user-facing*
                    // contents, overlaid as a table shadowing the catalog.
                    let table = snapshot
                        .query_view(&hit.view)
                        .map_err(|e| SqlError::Engine(e.to_string()))?;
                    let overlay = Overlay::new(manager.catalog()).with(hit.view.clone(), table);
                    let rows = Executor::new().run(&hit.plan, &overlay).map_err(engine)?;
                    (rows, Some(hit.view))
                }
                None => {
                    let rows = Executor::new()
                        .run(&plan, manager.catalog())
                        .map_err(engine)?;
                    (rows, None)
                }
            }
        };
        let (table, used_view) = result;
        self.inner.record_sql_rewrite(used_view.as_deref());
        Ok(SqlOutcome::Rows { table, used_view })
    }

    fn explain(&self, stmt: &Statement) -> Result<String> {
        let mut out = String::new();
        match stmt {
            // The parser rejects nested EXPLAIN.
            Statement::Explain(inner) => return self.explain(inner),
            Statement::CreateView { name, definition } => {
                let snapshot = self.inner.snapshot();
                let catalog = snapshot.manager().catalog();
                let _ = writeln!(out, "create materialized view: {name}");
                let _ = writeln!(out, "plan:");
                push_indented(&mut out, &definition.explain());
                let report = analyze(definition, catalog);
                push_lint(&mut out, report.warnings().map(|d| d.to_string()));
            }
            Statement::Select(plan) => {
                let snapshot = self.inner.snapshot();
                let manager = snapshot.manager();
                let views = snapshot.view_definitions();
                let hit = rewrite(plan, &views, manager.catalog());
                match &hit {
                    Some(h) => {
                        let _ = write!(out, "rewrite: used view: {}", h.view);
                        let mut notes: Vec<String> = Vec::new();
                        if h.residual_predicates > 0 {
                            notes.push(format!(
                                "{} residual predicate{}",
                                h.residual_predicates,
                                if h.residual_predicates == 1 { "" } else { "s" }
                            ));
                        }
                        if h.compensating_project {
                            notes.push("compensating projection".to_string());
                        }
                        if notes.is_empty() {
                            out.push_str(" (exact match)");
                        } else {
                            let _ = write!(out, " ({})", notes.join(", "));
                        }
                        out.push('\n');
                        if let Some(key) = &h.view_key {
                            let _ = writeln!(out, "view key: [{}]", key.join(", "));
                        }
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "rewrite: no view matched; executing against base tables"
                        );
                    }
                }
                let _ = writeln!(out, "plan:");
                let executed = hit.as_ref().map(|h| &h.plan).unwrap_or(plan);
                push_indented(&mut out, &executed.explain());
                // Lint the *original* query over the base catalog, plus the
                // matched view's stored registration-time warnings.
                let report = analyze(plan, manager.catalog());
                let mut lints: Vec<String> = report.warnings().map(|d| d.to_string()).collect();
                if let Some(h) = &hit {
                    for w in snapshot.view_lint_warnings(&h.view) {
                        lints.push(format!("{} (from view {})", w, h.view));
                    }
                }
                push_lint(&mut out, lints.into_iter());
            }
        }
        Ok(out)
    }
}

fn push_indented(out: &mut String, block: &str) {
    for line in block.lines() {
        let _ = writeln!(out, "  {line}");
    }
}

fn push_lint(out: &mut String, warnings: impl Iterator<Item = String>) {
    let _ = writeln!(out, "lint:");
    let mut any = false;
    for w in warnings {
        any = true;
        let _ = writeln!(out, "  {w}");
    }
    if !any {
        out.push_str("  (clean)\n");
    }
}
