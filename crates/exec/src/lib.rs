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
//! Large inputs take hash-partitioned (Join/GroupBy/GPivot) or
//! morsel-parallel (Select/Project) kernels on a [`WorkerPool`] of
//! long-lived threads; results are bit-identical across thread counts
//! because the partitioning is data-dependent only and partition outputs
//! merge in partition-index order ([`pool`], [`engine`]).
//!
//! Join, GroupBy, and GPIVOT each exist in two interchangeable forms: the
//! row-at-a-time reference kernels above and vectorized kernels
//! ([`columnar`]) that run over a table's cached [`gpivot_storage::Chunk`]
//! (typed column vectors, dictionary codes, validity bitmaps). The
//! columnar kernels are bit-identical to the row kernels by construction
//! and are selected by default ([`Executor::with_columnar`]).

// Executor errors surface as `ExecError` to the maintenance layer; a
// panic here would take down a refresh epoch. `unwrap`/`expect` are
// denied outside unit tests (the same discipline as gpivot-serve).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod columnar;
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
