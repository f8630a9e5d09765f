//! The repo benchmark: ingest→visible throughput and freshness on the
//! serve path, four workloads, per-layer attribution. See the crate
//! README for what each workload is for and how to read the output; the
//! binary in `main.rs` is the command `BENCHMARK.json` names.

mod affinity;
pub mod compare;
pub mod gen;
pub mod json;
mod layers;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
