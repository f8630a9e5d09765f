//! # gpivot-storage
//!
//! The relational storage substrate underneath the GPIVOT engine
//! (a from-scratch reproduction of Chen & Rundensteiner, *GPIVOT: Efficient
//! Incremental Maintenance of Complex ROLAP Views*, ICDE 2005).
//!
//! This crate provides the pieces every layer above builds on:
//!
//! * [`Value`] — a dynamically typed SQL-ish scalar with a first-class
//!   `NULL` (the paper's `⊥`), with **total** equality/ordering/hashing so
//!   rows can key hash maps (floats are bit-normalized).
//! * [`Row`] — an immutable, cheaply clonable tuple of values.
//! * [`Schema`] / [`Field`] — named, typed columns plus optional **key**
//!   metadata. Key tracking is load-bearing: the paper's pullup rules are
//!   gated on key preservation (§5.1 of the paper).
//! * [`Table`] — a bag of rows with an optional enforced key and a hash
//!   index over it (position chains that store no key), plus the
//!   `MERGE`-style keyed-update primitives ([`Table::upsert`],
//!   [`Table::update_by_key_of`], [`Table::delete_by_key_of`]) the apply
//!   phase of view maintenance uses, each probing with the key columns of
//!   the row it is given.
//! * [`RowState`] / [`RowMap`] / [`RowSet`] — the one hasher behind every
//!   row-keyed hash table here and in the layers above (deltas, key and
//!   secondary indexes, join / group / pivot lookups, MERGE groups): a
//!   multiply-fold hash with fresh random keys per map, in place of std's
//!   SipHash (see [`hash`]). Placement hashes that must agree across
//!   components and processes ([`shard_of`], the exec partitioner) keep
//!   std's fixed-key `DefaultHasher`.
//! * [`Delta`] — a *signed multiset* of rows (`Row → i64` multiplicity),
//!   the exact algebraic object needed for bag-semantics change propagation,
//!   convertible to/from the paper-facing `(ΔV, ∇V)` insert/delete split.
//! * [`Catalog`] — a named collection of base tables, carrying the engine's
//!   [`FaultInjector`] handle.
//! * [`FaultInjector`] — a deterministic, seeded fault-injection schedule
//!   consulted by the exec and maintenance layers (chaos testing; disabled
//!   and free by default).
//!
//! Nothing in this crate knows about plans, pivots, or maintenance — it is a
//! deliberately small, fully tested foundation.

// The substrate every layer trusts: error paths must return `Result`,
// not panic. `unwrap`/`expect` are denied outside unit tests (the same
// discipline as gpivot-serve).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod checkpoint;
#[doc(hidden)]
pub mod chunk;
mod codec;
pub mod delta;
pub mod error;
pub mod fault;
pub mod hash;
pub mod index;
pub mod row;
pub mod schema;
pub mod table;
pub mod value;
pub mod wal;

pub use catalog::Catalog;
pub use checkpoint::{CheckpointData, LoadedCheckpoint, ViewSnapshot};
#[doc(hidden)]
pub use chunk::Chunk;
pub use delta::{shard_of, Delta, DeltaSplit};
pub use error::{Result, StorageError};
pub use fault::{FaultInjector, FaultSite, FaultStream};
pub use hash::{ColsKey, RowMap, RowSet, RowState};
pub use index::{Matches, TableIndex};
pub use row::Row;
pub use schema::{DataType, Field, Schema, SchemaRef};
pub use table::Table;
pub use value::Value;
pub use wal::{FsyncPolicy, Wal, WalRecord, WalScan};
