//! # gpivot-exec
//!
//! A batch (operator-at-a-time) executor for GPIVOT algebra plans.
//!
//! The executor evaluates a [`gpivot_algebra::Plan`] against any
//! [`TableProvider`] — usually a [`gpivot_storage::Catalog`], or an
//! [`Overlay`] that the maintenance engine uses to make delta tables and
//! hypothetical post-update states visible under temporary names without
//! copying the base catalog.
//!
//! Operator implementations:
//!
//! * selection / projection — bound-expression evaluation ([`engine`]);
//! * joins — hash equi-join with inner / left-outer / full-outer variants
//!   and residual predicates ([`join`]);
//! * grouping — hash aggregation with SQL NULL semantics ([`group`]);
//! * GPIVOT / GUNPIVOT — hash-based pivoting ([`pivot`]); the executor
//!   *enforces* the paper's applicability condition that `(K, A1..Am)` is a
//!   key by rejecting duplicate pivot cells at runtime;
//! * bag union / difference ([`engine`]).
//!
//! Every plan runs on the calling thread. Each of Join, GroupBy and
//! GPIVOT has one row kernel in a sequential and a hash-partitioned form,
//! and the engine picks between them by input size alone; the partitions
//! run in a loop and merge in partition-index order, so results depend on
//! the data alone ([`engine`]). [`pool`] holds the partitioning helper and
//! the [`WorkerPool`] the serve layer fans its refreshes out on.

// Executor errors surface as `ExecError` to the maintenance layer; a
// panic here would take down a refresh epoch. `unwrap`/`expect` are
// denied outside unit tests (the same discipline as gpivot-serve).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod engine;
pub mod error;
pub mod group;
pub mod join;
pub mod pivot;
pub mod pool;
pub mod provider;

pub use engine::{ExecTrace, Executor, TraceEntry};
pub use error::{ExecError, Result};
pub use pool::WorkerPool;
pub use provider::{Overlay, TableProvider};
