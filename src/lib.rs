//! # gpivot
//!
//! A from-scratch Rust reproduction of **Chen & Rundensteiner, "GPIVOT:
//! Efficient Incremental Maintenance of Complex ROLAP Views" (ICDE 2005)**:
//! generalized pivot/unpivot operators for a relational algebra, the
//! combination and pullup/pushdown rewriting rules, and the incremental
//! view maintenance framework built on them.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`storage`] — values (`⊥`-aware), rows, schemas with keys, tables with
//!   key indexes and MERGE primitives, signed-multiset deltas, catalog;
//! * [`algebra`] — the plan language with `GPIVOT`/`GUNPIVOT` (Eq. 3–4),
//!   expressions with three-valued logic, schema + key inference;
//! * [`exec`] — the batch executor (hash joins / aggregation / pivoting);
//! * [`analyze`] — the static plan analyzer: a bottom-up dataflow over
//!   plan trees (keys, FDs, pivot-cell provenance) feeding the `GP0xx`
//!   lint rules that gate view registration;
//! * [`core`] — the paper's contribution: combination rules (Eq. 5–6),
//!   rewriting rules (Eq. 7–18), propagation rules (Fig. 22–23, 27, 29),
//!   and the [`core::ViewManager`] running the compile/refresh cycle;
//! * [`tpch`] — the TPC-H-shaped data generator, the paper's three view
//!   families, and the §7 delta workloads;
//! * [`serve`] — the service layer: a long-lived, thread-safe
//!   view-maintenance service (coalescing delta ingestion queue with
//!   backpressure, epoch-based parallel refresh scheduler, metrics) and
//!   the sharded scale-out tier (`ShardedService`: hash-partitioned
//!   shard workers with analyzer-proven shard-safe placement and
//!   heavy-key skew handling).
//!
//! ## Quickstart
//!
//! ```
//! use gpivot::prelude::*;
//!
//! // A vertical attribute table (Figure 1 of the paper).
//! let schema = Schema::from_pairs_keyed(
//!     &[("id", DataType::Int), ("attr", DataType::Str), ("val", DataType::Str)],
//!     &["id", "attr"],
//! ).unwrap();
//! let mut catalog = Catalog::new();
//! catalog.register("iteminfo", Table::from_rows(std::sync::Arc::new(schema), vec![
//!     row![1, "Manufacturer", "Sony"],
//!     row![1, "Type", "TV"],
//!     row![2, "Manufacturer", "Panasonic"],
//! ]).unwrap()).unwrap();
//!
//! // Define a pivoted materialized view and let the planner pick the
//! // maintenance strategy.
//! let view = Plan::scan("iteminfo").gpivot(PivotSpec::simple(
//!     "attr", "val",
//!     vec![Value::str("Manufacturer"), Value::str("Type")],
//! ));
//! let mut vm = ViewManager::new(catalog);
//! let strategy = vm.register_view("pivoted", view).unwrap();
//! assert_eq!(strategy, Strategy::PivotUpdate);
//!
//! // Incrementally maintain it.
//! let mut deltas = SourceDeltas::new();
//! deltas.insert_rows("iteminfo", vec![row![2, "Type", "DVD"]]);
//! vm.refresh(&deltas).unwrap();
//! assert!(vm.verify_view("pivoted").unwrap());
//! ```

pub use gpivot_algebra as algebra;
pub use gpivot_analyze as analyze;
pub use gpivot_core as core;
pub use gpivot_exec as exec;
pub use gpivot_serve as serve;
pub use gpivot_sql as sql;
pub use gpivot_storage as storage;
pub use gpivot_tpch as tpch;
pub use tracing;

/// One-stop imports for examples and downstream users.
///
/// Curated to what the examples, tests, and a typical embedding actually
/// reach for; everything else stays one module path away (`gpivot::core`,
/// `gpivot::exec`, …).
pub mod prelude {
    pub use gpivot_algebra::{AggSpec, Expr, PivotSpec, Plan, UnpivotSpec};
    pub use gpivot_analyze::{analyze, AnalysisReport, DiagCode, Diagnostic, Severity};
    pub use gpivot_analyze::{shard_safety, ShardRouting, ShardVerdict, TableRoute};
    pub use gpivot_core::{
        normalize_view, CoreError, ErrorClass, SourceDeltas, Strategy, TopShape, ViewManager,
        ViewOptions,
    };
    pub use gpivot_exec::{Executor, WorkerPool};
    pub use gpivot_serve::{
        IngestOptions, ServeConfig, ShardConfig, ShardedService, ViewHealth, ViewPlacement,
        ViewService,
    };
    pub use gpivot_sql::{parse_statement, GpivotService, SqlError, SqlOutcome, Statement};
    pub use gpivot_storage::{
        row, Catalog, DataType, Delta, FaultInjector, FaultSite, Row, Schema, Table, Value,
    };
    pub use tracing::{Histogram, TimingSubscriber};
}
