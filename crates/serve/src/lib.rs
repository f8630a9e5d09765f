//! # gpivot-serve
//!
//! A long-lived, thread-safe **view-maintenance service** layered over the
//! engine's [`gpivot_core::ViewManager`]. Where `ViewManager` is the paper's
//! single-threaded compile/refresh cycle, this crate is the operational
//! wrapper a warehouse would actually run:
//!
//! * **View registry** ([`ViewService::register_view`] /
//!   [`ViewService::drop_view`]) — named views compiled through the existing
//!   normalize + strategy pipeline, owned behind an `RwLock` so queries and
//!   refreshes can proceed concurrently.
//! * **Delta ingestion queue** ([`ViewService::ingest_with`]) — producers submit
//!   signed-multiset [`gpivot_storage::Delta`] batches per base table. The
//!   queue coalesces them additively (an insert and a delete of the same row
//!   cancel before any propagation work happens) and applies backpressure
//!   once the pending row count crosses a configurable watermark.
//! * **Epoch-based refresh** ([`ViewService::refresh_epoch`]) — each epoch
//!   drains the coalesced batch, plans the refresh of every *affected*
//!   view (dependency = the view's base tables; clean views are skipped)
//!   in parallel on a bounded pool of `std` threads — propagate, then
//!   compute the row-level patch, writing nothing — then commits the view
//!   patches **and** the base-table deltas in place in one write-lock
//!   critical section, O(|Δ|) keyed writes. Readers holding a [`Snapshot`]
//!   always see a consistent pre-epoch or post-epoch state, never a mix —
//!   the service-level analogue of the paper's §6 two-phase
//!   propagate/apply contract.
//! * **Observability** ([`ViewService::metrics`]) — per-view and per-epoch
//!   counters (rows ingested, coalescing ratio, rows propagated, refresh
//!   latency) as a [`MetricsSnapshot`], plus wall-clock timing histograms
//!   for every maintenance phase (`epoch`, `epoch.propagate`,
//!   `maintain.apply`, …) and exec operator (`op.Join`, `op.GPivot`, …)
//!   collected through the vendored `tracing` span layer. Exported as a
//!   human-readable report ([`MetricsSnapshot::report`]) and Prometheus
//!   text exposition ([`MetricsSnapshot::prometheus`]). See DESIGN.md
//!   §"Observability".
//! * **Fault tolerance** — worker panics are caught at the view-task
//!   boundary (never poisoning a lock; locks are acquired only through the
//!   poison-recovering helpers in `sync`), transient failures retry at
//!   once up to a bounded count, repeatedly failing views are quarantined
//!   ([`ViewHealth`]) so they stop blocking epochs, and every epoch commits
//!   all-or-nothing: everything fallible runs before the first write, so a
//!   mid-epoch failure only has to drop its plan and restore the drained
//!   batch to the queue. See DESIGN.md §"Fault tolerance".
//!
//! Lock order (outermost first): refresh gate → view state (`RwLock`) →
//! ingest queue (`Mutex` + condvar) → metrics (`Mutex`, leaf). No code path
//! acquires them in any other order, and the queue lock is never held while
//! waiting on the state lock.

// A service that promises panic isolation must not panic on its own error
// paths: `unwrap`/`expect` are denied outside unit tests, and lock
// acquisition goes through `sync`'s poison-recovering helpers.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod durable;
#[cfg(test)]
mod explore;
mod metrics;
mod queue;
mod service;
mod shard;
mod sync;

pub use durable::{PlanParser, RecoveryReport};
pub use gpivot_storage::FsyncPolicy;
pub use metrics::{EpochSummary, MetricsSnapshot, ViewHealth, ViewMetrics};
pub use service::{IngestOptions, ServeConfig, ServeConfigBuilder, Snapshot, ViewService};
pub use shard::{ShardConfig, ShardSnapshot, ShardedService, ViewPlacement};
