//! The four workloads and the metric contract they report against.

use crate::json::Json;

/// `BENCHMARK.json` is the single declaration of metric names, units and
/// bounds: the run prints exactly these, `compare` judges against these
/// bounds, and the smoke test checks the two agree.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Contract {
    pub fn load() -> Result<Contract, String> {
        let doc = Json::parse(BENCHMARK_JSON)?;
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            doc.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(String::from)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry lacks `{k}`"))
                    };
                    Ok(MetricDecl {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// In-memory `ViewService`, one `ingest_with` per table per epoch; the
    /// writer reads all three views every `Effort::read_every_epochs` epochs.
    Memory,
    /// `GpivotService::open` on a directory: WAL, checkpoints, many small
    /// half-cancelling ingests, a SQL reader thread beside the writer, and
    /// a crash image with recovery at the end.
    DurableSql {
        checkpoint_every: u64,
        /// The run ends this many epochs after a checkpoint.
        crash_after: u64,
        max_rows_per_call: usize,
    },
    /// In-memory `ShardedService`; new orders' `o_custkey` is Zipf.
    Sharded {
        shards: usize,
        heavy_key_threshold: u64,
        zipf_s: f64,
    },
}

/// How much one epoch changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaSize {
    /// This share of `lineitem`'s rows, as row-changes.
    ShareOfLineitem(f64),
    /// This many surviving row-changes plus this many that cancel in the
    /// ingest queue.
    Rows { surviving: f64, cancelling: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Harness scale: 1.0 is 1 500 customers, 15 000 orders, ~54 000
    /// lineitems.
    pub scale: f64,
    pub delta: DeltaSize,
    pub kind: Kind,
}

/// How much repetition a run spends around the measured phase. Smoke runs
/// check plumbing and names in a debug build, several at once; everything
/// that only steadies a number is cut down for them.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Set-ups per run behind `setup_s` (the median is reported).
    pub setup_repeats: usize,
    /// Epochs per block — the durable workload's checkpoint period, so that
    /// every block holds exactly one checkpoint; also the unit in which a
    /// traced run alternates untraced and traced stretches.
    pub block_epochs: usize,
    /// Untimed blocks before the measured phase: caches fill, tables take
    /// their steady shape, the first checkpoint is cut.
    pub warm_up_blocks: usize,
    /// In-memory workloads do one read round — all three views — every
    /// this many epochs, on the writer thread, so read latency is defined
    /// on every workload.
    pub read_every_epochs: u64,
    /// Mean gap between the SQL reader's read rounds.
    pub sql_read_gap_ms: f64,
    /// Cold opens of the crash image behind `recovery_s`.
    pub recovery_opens: usize,
    /// Repetitions of the microsecond-scale probes (parse, rewrite,
    /// analyze).
    pub micro_reps: usize,
    /// Whether the load generator places its threads (see `affinity`).
    pub pin_threads: bool,
}

impl Effort {
    pub fn new(smoke: bool) -> Effort {
        if smoke {
            Effort {
                setup_repeats: 1,
                block_epochs: 4,
                warm_up_blocks: 0,
                read_every_epochs: 2,
                sql_read_gap_ms: 2.0,
                recovery_opens: 3,
                micro_reps: 2,
                pin_threads: false,
            }
        } else {
            Effort {
                setup_repeats: 5,
                block_epochs: 16,
                warm_up_blocks: 1,
                read_every_epochs: 4,
                sql_read_gap_ms: 50.0,
                recovery_opens: 7,
                micro_reps: 20,
                pin_threads: true,
            }
        }
    }
}

pub fn specs(smoke: bool) -> [Spec; 4] {
    // Smoke scale keeps the whole set under five seconds in a debug
    // build; it checks plumbing and names, not speed.
    let scale = |full: f64| if smoke { 0.02 } else { full };
    [
        Spec {
            name: "trickle",
            scale: scale(0.5),
            delta: DeltaSize::ShareOfLineitem(if smoke { 0.02 } else { 0.001 }),
            kind: Kind::Memory,
        },
        Spec {
            name: "bulk",
            scale: scale(0.5),
            delta: DeltaSize::ShareOfLineitem(0.05),
            kind: Kind::Memory,
        },
        Spec {
            name: "durable_sql",
            scale: scale(0.5),
            delta: if smoke {
                // Large against the 300 smoke orders, so that batches drawn
                // from diverged models (the probes' and the service's) are
                // all but sure to collide on a key.
                DeltaSize::Rows {
                    surviving: 96.0,
                    cancelling: 32.0,
                }
            } else {
                DeltaSize::Rows {
                    surviving: 256.0,
                    cancelling: 256.0,
                }
            },
            kind: Kind::DurableSql {
                checkpoint_every: Effort::new(smoke).block_epochs as u64,
                crash_after: if smoke { 2 } else { 8 },
                max_rows_per_call: if smoke { 8 } else { 32 },
            },
        },
        Spec {
            name: "sharded_skew",
            scale: scale(0.3),
            delta: DeltaSize::ShareOfLineitem(if smoke { 0.03 } else { 0.01 }),
            kind: Kind::Sharded {
                shards: 2,
                heavy_key_threshold: if smoke { 4 } else { 40 },
                zipf_s: 1.1,
            },
        },
    ]
}
