//! Service observability: per-view and per-epoch counters, exported as a
//! cloneable [`MetricsSnapshot`] plus a human-readable report.
//!
//! Every scalar of a snapshot is declared once, in the `scalars!` table
//! below: its Prometheus series, help text, counter-or-gauge kind and shard
//! roll-up rule. [`MetricsSnapshot::prometheus`] and
//! [`MetricsSnapshot::merge`] (the shard roll-up and the durable fold) both
//! read that table, so a new counter is one field plus one table entry.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::ops::Add;
use std::time::Duration;
use tracing::Histogram;

/// The fault-tolerance state of one registered view — the retry/quarantine
/// state machine (see DESIGN.md §"Fault tolerance"):
///
/// ```text
/// Healthy --fail--> Degraded(1) --fail--> ... --fail--> Quarantined
///    ^                  |  (success in a committed epoch)      |
///    +------------------+               retry_view / register  |
///    +----------------------------------------------------------+
/// ```
///
/// A *fail* is one epoch in which the view exhausted its retry budget.
/// Quarantined views are excluded from refresh scheduling (they stop
/// blocking epochs) and their tables go stale until re-admission.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ViewHealth {
    /// Refreshing normally.
    #[default]
    Healthy,
    /// Failed its last `consecutive_failures` epochs (retries exhausted)
    /// but is still scheduled.
    Degraded { consecutive_failures: u32 },
    /// Excluded from refresh scheduling after too many consecutive
    /// failures. Re-admit with `ViewService::retry_view` (recomputes the
    /// view from current base state) or by dropping and re-registering.
    Quarantined {
        /// The epoch counter value when quarantine was entered.
        since_epoch: u64,
        /// Rendering of the error that tipped the view over.
        reason: String,
    },
}

impl ViewHealth {
    /// True iff the view is currently quarantined.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, ViewHealth::Quarantined { .. })
    }

    /// The *fail* edge: the state after an epoch in which the view
    /// exhausted its retry budget. The `quarantine_after`-th consecutive
    /// failure quarantines it at `epoch` for `reason`; a quarantined view
    /// stays as it is.
    pub(crate) fn after_failure(
        &self,
        quarantine_after: u32,
        epoch: u64,
        reason: impl fmt::Display,
    ) -> ViewHealth {
        let failures = match self {
            ViewHealth::Healthy => 1,
            ViewHealth::Degraded {
                consecutive_failures,
            } => consecutive_failures + 1,
            ViewHealth::Quarantined { .. } => return self.clone(),
        };
        if failures >= quarantine_after {
            ViewHealth::Quarantined {
                since_epoch: epoch,
                reason: reason.to_string(),
            }
        } else {
            ViewHealth::Degraded {
                consecutive_failures: failures,
            }
        }
    }

    /// The worse of two states, which is what a roll-up over shards
    /// reports: quarantined, then degraded with more consecutive failures,
    /// then healthy. On a tie `self` is kept.
    pub(crate) fn worse(self, other: ViewHealth) -> ViewHealth {
        fn rank(h: &ViewHealth) -> (u8, u32) {
            match h {
                ViewHealth::Healthy => (0, 0),
                ViewHealth::Degraded {
                    consecutive_failures,
                } => (1, *consecutive_failures),
                ViewHealth::Quarantined { .. } => (2, 0),
            }
        }
        // On a tie `max_by_key` returns its second argument.
        std::cmp::max_by_key(other, self, rank)
    }
}

/// Cumulative counters for one registered view.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewMetrics {
    /// Epochs in which this view was refreshed (it had a dirty dependency).
    pub refreshes: u64,
    /// Signed delta rows that reached the view's apply phase, before
    /// consolidation.
    pub delta_rows: u64,
    /// Operator-output rows evaluated while propagating to this view
    /// (`ExecTrace::total_rows` summed over pre/post subplan evaluations).
    pub rows_propagated: u64,
    /// Row effects on the materialized table (inserted + updated + deleted).
    pub rows_applied: u64,
    /// Total wall-clock time spent refreshing this view.
    pub refresh_time: Duration,
    /// Epochs in which this view exhausted its retry budget and failed.
    pub failures: u64,
    /// Individual refresh attempts beyond the first, across all epochs
    /// (both attempts that eventually succeeded and ones that did not).
    pub retries: u64,
    /// Current position in the retry/quarantine state machine.
    pub health: ViewHealth,
    /// Rendered warnings the static plan lint recorded when the view was
    /// registered (empty when registered clean or with lint skipped).
    pub lint_warnings: Vec<String>,
}

impl ViewMetrics {
    /// Fold another shard's counters for the same view into these: work
    /// adds up, the worse health wins, and each lint warning is kept once.
    fn merge(&mut self, other: &ViewMetrics) {
        let ViewMetrics {
            refreshes,
            delta_rows,
            rows_propagated,
            rows_applied,
            refresh_time,
            failures,
            retries,
            health,
            lint_warnings,
        } = other;
        self.refreshes += refreshes;
        self.delta_rows += delta_rows;
        self.rows_propagated += rows_propagated;
        self.rows_applied += rows_applied;
        self.refresh_time += *refresh_time;
        self.failures += failures;
        self.retries += retries;
        self.health = std::mem::take(&mut self.health).worse(health.clone());
        for w in lint_warnings {
            if !self.lint_warnings.contains(w) {
                self.lint_warnings.push(w.clone());
            }
        }
    }
}

/// A point-in-time copy of the service's counters.
///
/// All `rows_*` counters reconcile by construction: `rows_ingested` counts
/// producer-submitted row changes, `rows_drained_raw` the subset already
/// drained into epochs, and `rows_drained_coalesced` what survived +1/−1
/// cancellation — so `rows_ingested − rows_drained_raw` is exactly what is
/// still pending in the queue.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Completed epochs (successful refreshes that advanced the snapshot).
    pub epochs: u64,
    /// Epochs that failed and were rolled back (batch re-queued).
    pub epochs_failed: u64,
    /// Producer batches accepted by `ingest`.
    pub batches_ingested: u64,
    /// Row changes accepted by `ingest` (pre-coalescing).
    pub rows_ingested: u64,
    /// `ingest` calls that had to block on the backpressure watermark.
    pub ingest_waits: u64,
    /// Non-blocking / bounded-wait `ingest_with` calls rejected with
    /// [`gpivot_core::CoreError::Backpressure`].
    pub ingest_rejects: u64,
    /// Worker panics caught and isolated at the view-task boundary.
    pub panics_isolated: u64,
    /// Deleted rows dropped from committed epochs because their table did
    /// not hold them (`SourceDeltas::admit`).
    pub deletes_dropped: u64,
    /// Inserted rows refused at committed epochs because their key was
    /// taken: held by the table, or inserted twice in one batch
    /// (`SourceDeltas::admit`).
    pub inserts_refused: u64,
    /// Poisoned-guard recoveries by the `sync` lock helpers (process-wide:
    /// every shard of a sharded service reports the same counter, so
    /// roll-ups take the max rather than summing).
    pub lock_poisoned: u64,
    /// Row changes drained into epochs, before coalescing.
    pub rows_drained_raw: u64,
    /// Row changes drained into epochs, after +1/−1 cancellation.
    pub rows_drained_coalesced: u64,
    /// Sum of per-view delta rows across all refreshes.
    pub delta_rows: u64,
    /// Sum of per-view propagated rows across all refreshes.
    pub rows_propagated: u64,
    /// Sum of per-view applied rows across all refreshes.
    pub rows_applied: u64,
    /// Total wall-clock time spent inside `refresh_epoch` doing work.
    pub refresh_time: Duration,
    /// Wall-clock time of the most recent non-empty epoch.
    pub last_epoch_time: Duration,
    /// `CREATE MATERIALIZED VIEW` statements registered through the SQL
    /// frontend (`gpivot-sql`).
    pub sql_registrations: u64,
    /// SQL `SELECT`s answered from a materialized view by the view-matching
    /// rewriter.
    pub sql_rewrite_hits: u64,
    /// SQL `SELECT`s that fell back to base-table execution.
    pub sql_rewrite_misses: u64,
    /// WAL records appended (0 unless the service was opened durably).
    pub wal_records: u64,
    /// WAL bytes written, framing included.
    pub wal_bytes: u64,
    /// `fsync` calls issued by the WAL (policy-dependent).
    pub wal_fsyncs: u64,
    /// Checkpoints written (manual + automatic).
    pub checkpoints: u64,
    /// Size in bytes of the most recent checkpoint file.
    pub last_checkpoint_bytes: u64,
    /// Crash recoveries performed to open this service (0 for a fresh
    /// directory or a non-durable service, 1 after `ViewService::open`
    /// found prior state).
    pub recoveries: u64,
    /// WAL records replayed during recovery.
    pub recovery_replayed_records: u64,
    /// Committed epochs re-applied during recovery.
    pub recovery_replayed_epochs: u64,
    /// Torn WAL tails truncated during recovery.
    pub recovery_torn_tails: u64,
    /// Corrupt checkpoint files skipped during recovery (an older valid
    /// checkpoint was used instead).
    pub recovery_corrupt_checkpoints: u64,
    /// Coalesced row changes currently waiting in the queue.
    pub pending_rows: u64,
    /// Estimated bytes held by the pending queue.
    pub pending_bytes: usize,
    /// Per-view cumulative counters, keyed by view name.
    pub per_view: BTreeMap<String, ViewMetrics>,
    /// Wall-clock histograms for compile/maintenance/epoch phases, keyed by
    /// span name (`epoch`, `epoch.propagate`, `maintain.apply`, …). The
    /// `epoch` entry reconciles exactly with the counters above:
    /// `count == epochs` and `total == refresh_time`, because both are fed
    /// the same measured duration.
    pub phase_timings: BTreeMap<String, Histogram>,
    /// Wall-clock histograms for executor operator *self*-times (`op.*`
    /// spans, entered after child evaluation so subtrees are not
    /// double-counted).
    pub operator_timings: BTreeMap<String, Histogram>,
    /// Point-event counters from the tracing layer (`view.retry`,
    /// `view.quarantine`, …).
    pub trace_events: BTreeMap<String, u64>,
    /// Per base table, a key refused by the latest epoch that refused an
    /// insert into it (see `inserts_refused`), rendered: what an operator
    /// looks for upstream.
    pub refused_keys: BTreeMap<String, String>,
}

/// How a roll-up over shards combines one scalar's per-shard values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rollup {
    /// Each shard counted its own share of the work: add them.
    Sum,
    /// Each shard reports the same process-wide value, or its own latest
    /// one: keep the largest.
    Max,
}

impl Rollup {
    pub(crate) fn apply<T: Ord + Add<Output = T>>(self, a: T, b: T) -> T {
        match self {
            Rollup::Sum => a + b,
            Rollup::Max => a.max(b),
        }
    }
}

/// One scalar field of [`MetricsSnapshot`], as declared in [`SCALARS`].
/// Outside tests nothing reads `field` or `rollup` here: the merge is
/// generated from the same declarations, and tests check it against these.
#[derive(Debug)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct Scalar {
    pub field: &'static str,
    /// The exported sample, `family` or `family{labels}`; `None` keeps the
    /// field out of the exposition.
    pub series: Option<&'static str>,
    pub help: &'static str,
    /// The Prometheus type: `counter` or `gauge`.
    pub kind: &'static str,
    pub rollup: Rollup,
}

/// A scalar's value: a count, or a duration the exposition renders in
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Num {
    Count(u64),
    Time(Duration),
}

impl From<u64> for Num {
    fn from(n: u64) -> Num {
        Num::Count(n)
    }
}

impl From<usize> for Num {
    fn from(n: usize) -> Num {
        Num::Count(n as u64)
    }
}

impl From<Duration> for Num {
    fn from(d: Duration) -> Num {
        Num::Time(d)
    }
}

/// Declares each scalar of [`MetricsSnapshot`] once, in exposition order,
/// as `field: kind, roll-up, series, help;`, and derives from that one list
/// [`SCALARS`], [`MetricsSnapshot::scalars`] and the scalar half of
/// [`MetricsSnapshot::merge`]. `scalars` destructures the snapshot without
/// `..`, so a field added to the struct but not declared here does not
/// compile (rustc reports that the pattern "requires `..`").
macro_rules! scalars {
    ($($field:ident: $kind:ident, $rollup:ident, $series:expr, $help:literal;)*) => {
        /// The declaration table, in exposition order.
        pub(crate) const SCALARS: &[Scalar] = &[$(Scalar {
            field: stringify!($field),
            series: $series,
            help: $help,
            kind: stringify!($kind),
            rollup: Rollup::$rollup,
        }),*];

        impl MetricsSnapshot {
            /// Every scalar's value, in [`SCALARS`] order.
            pub(crate) fn scalars(&self) -> Vec<Num> {
                let MetricsSnapshot {
                    $($field,)*
                    per_view: _,
                    refused_keys: _,
                    phase_timings: _,
                    operator_timings: _,
                    trace_events: _,
                } = self;
                vec![$(Num::from(*$field)),*]
            }

            /// Fold `other`'s scalars into these, each by its roll-up rule.
            fn merge_scalars(&mut self, other: &MetricsSnapshot) {
                $(self.$field = Rollup::$rollup.apply(self.$field, other.$field);)*
            }
        }
    };
}

scalars! {
    epochs: counter, Sum, Some("gpivot_epochs_total"),
        "Completed refresh epochs";
    epochs_failed: counter, Sum, Some("gpivot_epochs_failed_total"),
        "Epochs rolled back after a failure";
    batches_ingested: counter, Sum, Some("gpivot_batches_ingested_total"),
        "Producer batches accepted";
    rows_ingested: counter, Sum, Some("gpivot_rows_ingested_total"),
        "Row changes accepted (pre-coalescing)";
    ingest_waits: counter, Sum, Some("gpivot_ingest_waits_total"),
        "Ingest calls that blocked on backpressure";
    ingest_rejects: counter, Sum, Some("gpivot_ingest_rejects_total"),
        "Ingest calls rejected with Backpressure";
    panics_isolated: counter, Sum, Some("gpivot_panics_isolated_total"),
        "Worker panics caught at the view-task boundary";
    deletes_dropped: counter, Sum, Some("gpivot_deletes_dropped_total"),
        "Deleted rows dropped because their table did not hold them";
    inserts_refused: counter, Sum, Some("gpivot_inserts_refused_total"),
        "Inserted rows refused because their key was taken";
    // Process-wide: every shard reads the same static.
    lock_poisoned: counter, Max, Some("gpivot_lock_poisoned_total"),
        "Poisoned lock guards recovered by the sync helpers";
    rows_drained_raw: counter, Sum, Some("gpivot_rows_drained_raw_total"),
        "Row changes drained into epochs before coalescing";
    rows_drained_coalesced: counter, Sum, Some("gpivot_rows_drained_coalesced_total"),
        "Row changes drained into epochs after cancellation";
    delta_rows: counter, Sum, Some("gpivot_delta_rows_total"),
        "Signed delta rows reaching apply phases, before consolidation";
    rows_propagated: counter, Sum, Some("gpivot_rows_propagated_total"),
        "Operator-output rows evaluated during propagation";
    rows_applied: counter, Sum, Some("gpivot_rows_applied_total"),
        "Row effects applied to materialized tables";
    sql_registrations: counter, Sum, Some("gpivot_sql_registrations_total"),
        "Views registered through the SQL frontend";
    sql_rewrite_hits: counter, Sum, Some("gpivot_sql_rewrites_total{outcome=\"hit\"}"),
        "SQL SELECTs by view-rewrite outcome";
    sql_rewrite_misses: counter, Sum, Some("gpivot_sql_rewrites_total{outcome=\"miss\"}"),
        "SQL SELECTs by view-rewrite outcome";
    wal_records: counter, Sum, Some("gpivot_wal_records_total"),
        "WAL records appended";
    wal_bytes: counter, Sum, Some("gpivot_wal_bytes_total"),
        "WAL bytes written, framing included";
    wal_fsyncs: counter, Sum, Some("gpivot_wal_fsyncs_total"),
        "fsync calls issued by the WAL";
    checkpoints: counter, Sum, Some("gpivot_checkpoints_total"),
        "Checkpoints written (manual + automatic)";
    last_checkpoint_bytes: gauge, Max, Some("gpivot_last_checkpoint_bytes"),
        "Size of the most recent checkpoint file";
    recoveries: counter, Sum, Some("gpivot_recovery_runs_total"),
        "Crash recoveries performed at open";
    recovery_replayed_records: counter, Sum, Some("gpivot_recovery_replayed_records_total"),
        "WAL records replayed during recovery";
    recovery_replayed_epochs: counter, Sum, Some("gpivot_recovery_replayed_epochs_total"),
        "Committed epochs re-applied during recovery";
    recovery_torn_tails: counter, Sum, Some("gpivot_recovery_torn_tails_total"),
        "Torn WAL tails truncated during recovery";
    recovery_corrupt_checkpoints: counter, Sum, Some("gpivot_recovery_corrupt_checkpoints_total"),
        "Corrupt checkpoint files skipped during recovery";
    pending_rows: gauge, Sum, Some("gpivot_pending_rows"),
        "Coalesced row changes waiting in the queue";
    pending_bytes: gauge, Sum, Some("gpivot_pending_bytes"),
        "Estimated bytes held by the pending queue";
    refresh_time: counter, Sum, Some("gpivot_refresh_seconds_total"),
        "Wall-clock time spent in refresh epochs";
    last_epoch_time: gauge, Max, None,
        "Wall-clock time of the most recent non-empty epoch";
}

impl MetricsSnapshot {
    /// Fraction of drained row changes that survived coalescing
    /// (1.0 = nothing cancelled, 0.0 = everything cancelled).
    /// Returns `None` before anything has been drained.
    pub fn coalescing_ratio(&self) -> Option<f64> {
        if self.rows_drained_raw == 0 {
            return None;
        }
        Some(self.rows_drained_coalesced as f64 / self.rows_drained_raw as f64)
    }

    /// Names of views currently quarantined.
    pub fn quarantined_views(&self) -> Vec<&str> {
        self.per_view
            .iter()
            .filter(|(_, v)| v.health.is_quarantined())
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Mean wall-clock latency of a completed epoch.
    pub fn mean_epoch_time(&self) -> Option<Duration> {
        let total = self.refresh_time.as_nanos();
        let mean = u64::try_from(total.checked_div(self.epochs.into())?);
        Some(Duration::from_nanos(mean.unwrap_or(u64::MAX)))
    }

    /// Fold another snapshot into this one: each scalar by its declared
    /// roll-up rule, per-view entries by their own merge, histograms
    /// bucket-wise and event counts by sum. A sharded service rolls its
    /// shards up with it; a durable service folds in its WAL counters.
    pub(crate) fn merge(&mut self, other: &MetricsSnapshot) {
        self.merge_scalars(other);
        for (name, vm) in &other.per_view {
            self.per_view.entry(name.clone()).or_default().merge(vm);
        }
        let timings = [
            (&mut self.phase_timings, &other.phase_timings),
            (&mut self.operator_timings, &other.operator_timings),
        ];
        for (into, from) in timings {
            for (name, h) in from {
                into.entry(name.clone()).or_default().merge(h);
            }
        }
        for (name, n) in &other.trace_events {
            *self.trace_events.entry(name.clone()).or_insert(0) += n;
        }
        for (table, key) in &other.refused_keys {
            self.refused_keys.insert(table.clone(), key.clone());
        }
    }

    /// Human-readable multi-line report (the `serve_dashboard` example).
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "gpivot-serve metrics");
        let _ = writeln!(
            out,
            "  epochs: {} completed, {} failed; last {:?}, mean {:?}",
            self.epochs,
            self.epochs_failed,
            self.last_epoch_time,
            self.mean_epoch_time().unwrap_or_default(),
        );
        let _ = writeln!(
            out,
            "  ingest: {} batches / {} row changes ({} backpressure waits)",
            self.batches_ingested, self.rows_ingested, self.ingest_waits,
        );
        let ratio = self
            .coalescing_ratio()
            .map(|r| format!("{:.1}%", r * 100.0))
            .unwrap_or_else(|| "n/a".into());
        let _ = writeln!(
            out,
            "  coalescing: {} raw -> {} effective rows drained ({} surviving)",
            self.rows_drained_raw, self.rows_drained_coalesced, ratio,
        );
        let _ = writeln!(
            out,
            "  pending: {} rows (~{} bytes)",
            self.pending_rows, self.pending_bytes,
        );
        let _ = writeln!(
            out,
            "  propagate/apply: {} delta rows, {} rows propagated, {} rows applied",
            self.delta_rows, self.rows_propagated, self.rows_applied,
        );
        if self.sql_registrations > 0 || self.sql_rewrite_hits > 0 || self.sql_rewrite_misses > 0 {
            let _ = writeln!(
                out,
                "  sql: {} registrations, rewrites {} hit / {} miss",
                self.sql_registrations, self.sql_rewrite_hits, self.sql_rewrite_misses,
            );
        }
        if self.deletes_dropped > 0 {
            let _ = writeln!(
                out,
                "  uncovered deletes: {} rows dropped",
                self.deletes_dropped,
            );
        }
        if self.inserts_refused > 0 {
            let keys: Vec<String> = self
                .refused_keys
                .iter()
                .map(|(table, key)| format!("{table} {key}"))
                .collect();
            let _ = writeln!(
                out,
                "  refused inserts: {} rows (last key: {})",
                self.inserts_refused,
                keys.join(", "),
            );
        }
        if self.ingest_rejects > 0 || self.panics_isolated > 0 || self.lock_poisoned > 0 {
            let _ = writeln!(
                out,
                "  faults: {} ingest rejects, {} panics isolated, {} poisoned locks recovered",
                self.ingest_rejects, self.panics_isolated, self.lock_poisoned,
            );
        }
        if self.wal_records > 0 || self.checkpoints > 0 {
            let _ = writeln!(
                out,
                "  wal: {} records / {} bytes / {} fsyncs; {} checkpoints (last {} bytes)",
                self.wal_records,
                self.wal_bytes,
                self.wal_fsyncs,
                self.checkpoints,
                self.last_checkpoint_bytes,
            );
        }
        if self.recoveries > 0 {
            let _ = writeln!(
                out,
                "  recovery: {} runs, {} records / {} epochs replayed, \
                 {} torn tails truncated, {} corrupt checkpoints skipped",
                self.recoveries,
                self.recovery_replayed_records,
                self.recovery_replayed_epochs,
                self.recovery_torn_tails,
                self.recovery_corrupt_checkpoints,
            );
        }
        for (name, v) in &self.per_view {
            let health = match &v.health {
                ViewHealth::Healthy => String::new(),
                ViewHealth::Degraded {
                    consecutive_failures,
                } => format!(" [degraded: {consecutive_failures} consecutive failures]"),
                ViewHealth::Quarantined { since_epoch, .. } => {
                    format!(" [QUARANTINED since epoch {since_epoch}]")
                }
            };
            let _ = writeln!(
                out,
                "  view {name}: {} refreshes ({} failures, {} retries), {} delta rows, \
                 {} propagated, {} applied, {:?} total{health}",
                v.refreshes,
                v.failures,
                v.retries,
                v.delta_rows,
                v.rows_propagated,
                v.rows_applied,
                v.refresh_time,
            );
            for w in &v.lint_warnings {
                let _ = writeln!(out, "    lint: {w}");
            }
        }
        let timings = [
            ("phase timings", &self.phase_timings),
            ("operator self-times", &self.operator_timings),
        ];
        for (title, histograms) in timings.into_iter().filter(|(_, m)| !m.is_empty()) {
            let _ = writeln!(out, "  {title}:");
            for (name, h) in histograms {
                let _ = writeln!(
                    out,
                    "    {name}: n={} p50={:?} p95={:?} max={:?} total={:?}",
                    h.count(),
                    h.p50(),
                    h.p95(),
                    h.max(),
                    h.total(),
                );
            }
        }
        if !self.trace_events.is_empty() {
            let _ = writeln!(out, "  trace events:");
            for (name, n) in &self.trace_events {
                let _ = writeln!(out, "    {name}: {n}");
            }
        }
        out
    }

    /// Prometheus text-format exposition: every declared scalar as a
    /// `gpivot_*` sample, span histograms as one `histogram` family with
    /// cumulative log₂ `le` buckets, and trace events as a labelled counter
    /// family. Ready to serve from a `/metrics` endpoint (or print, as the
    /// `serve_dashboard` example does).
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut family = "";
        for (scalar, value) in SCALARS.iter().zip(self.scalars()) {
            let Some(series) = scalar.series else {
                continue;
            };
            // The labelled samples of one family share one header.
            let name = series.split_once('{').map_or(series, |(name, _)| name);
            if name != family {
                family = name;
                let _ = writeln!(out, "# HELP {name} {}", scalar.help);
                let _ = writeln!(out, "# TYPE {name} {}", scalar.kind);
            }
            let _ = match value {
                Num::Count(n) => writeln!(out, "{series} {n}"),
                Num::Time(d) => writeln!(out, "{series} {}", d.as_secs_f64()),
            };
        }
        if !self.trace_events.is_empty() {
            let _ = writeln!(
                out,
                "# HELP gpivot_trace_events_total Point events fired by the tracing layer"
            );
            let _ = writeln!(out, "# TYPE gpivot_trace_events_total counter");
            for (name, n) in &self.trace_events {
                let _ = writeln!(out, "gpivot_trace_events_total{{event=\"{name}\"}} {n}");
            }
        }
        let spans = self
            .phase_timings
            .iter()
            .chain(self.operator_timings.iter());
        let _ = writeln!(
            out,
            "# HELP gpivot_span_duration_seconds Wall-clock span durations (phases and operators)"
        );
        let _ = writeln!(out, "# TYPE gpivot_span_duration_seconds histogram");
        for (name, h) in spans {
            for (le, cum) in h.cumulative_buckets() {
                let _ = writeln!(
                    out,
                    "gpivot_span_duration_seconds_bucket{{span=\"{name}\",le=\"{}\"}} {cum}",
                    le.as_secs_f64(),
                );
            }
            let _ = writeln!(
                out,
                "gpivot_span_duration_seconds_bucket{{span=\"{name}\",le=\"+Inf\"}} {}",
                h.count(),
            );
            let _ = writeln!(
                out,
                "gpivot_span_duration_seconds_sum{{span=\"{name}\"}} {}",
                h.total().as_secs_f64(),
            );
            let _ = writeln!(
                out,
                "gpivot_span_duration_seconds_count{{span=\"{name}\"}} {}",
                h.count(),
            );
        }
        out
    }
}

/// What one call to `refresh_epoch` did.
#[derive(Debug, Clone, Default)]
pub struct EpochSummary {
    /// The epoch number now visible to readers.
    pub epoch: u64,
    /// Views actually refreshed (dirty dependency); clean views are skipped.
    pub views_refreshed: usize,
    /// Coalesced row changes in the drained batch.
    pub batch_rows: u64,
    /// Producer batches folded into the drained batch.
    pub batches_drained: u64,
    /// Signed delta rows reaching apply phases (before consolidation),
    /// summed over views.
    pub delta_rows: u64,
    /// Propagation work proxy, summed over views.
    pub rows_propagated: u64,
    /// Row effects on materialized tables, summed over views.
    pub rows_applied: u64,
    /// Quarantined views that would have been refreshed but were skipped.
    pub quarantined_skipped: usize,
    /// Refresh attempts beyond the first, summed over views in this epoch.
    pub retries: u64,
    /// Wall-clock duration of the epoch.
    pub duration: Duration,
}

impl EpochSummary {
    /// Fold one service's part of a sharded epoch into the epoch's total.
    /// Work adds up over every service; the drain counts are the
    /// producer's, taken from the `root` alone, since the shards drain the
    /// same rows again. The epoch number and wall clock belong to the
    /// coordinator. No `..` below: a new field has to pick its rule.
    pub(crate) fn absorb(&mut self, part: &EpochSummary, root: bool) {
        let EpochSummary {
            epoch: _,
            views_refreshed,
            batch_rows,
            batches_drained,
            delta_rows,
            rows_propagated,
            rows_applied,
            quarantined_skipped,
            retries,
            duration: _,
        } = part;
        self.views_refreshed += views_refreshed;
        self.delta_rows += delta_rows;
        self.rows_propagated += rows_propagated;
        self.rows_applied += rows_applied;
        self.quarantined_skipped += quarantined_skipped;
        self.retries += retries;
        if root {
            self.batch_rows += batch_rows;
            self.batches_drained += batches_drained;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(samples_ns: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &ns in samples_ns {
            h.record_ns(ns);
        }
        h
    }

    /// Every scalar a distinct non-zero value, one degraded and one
    /// quarantined view, both histogram maps and two events.
    fn populated() -> MetricsSnapshot {
        let mut m = MetricsSnapshot {
            epochs: 4,
            epochs_failed: 3,
            batches_ingested: 11,
            rows_ingested: 1009,
            ingest_waits: 13,
            ingest_rejects: 17,
            panics_isolated: 19,
            deletes_dropped: 139,
            inserts_refused: 149,
            lock_poisoned: 23,
            rows_drained_raw: 997,
            rows_drained_coalesced: 883,
            delta_rows: 877,
            rows_propagated: 4021,
            rows_applied: 353,
            refresh_time: Duration::from_micros(1_500),
            last_epoch_time: Duration::from_micros(700),
            sql_registrations: 29,
            sql_rewrite_hits: 31,
            sql_rewrite_misses: 37,
            wal_records: 41,
            wal_bytes: 40_961,
            wal_fsyncs: 43,
            checkpoints: 47,
            last_checkpoint_bytes: 5_003,
            recoveries: 53,
            recovery_replayed_records: 59,
            recovery_replayed_epochs: 61,
            recovery_torn_tails: 67,
            recovery_corrupt_checkpoints: 71,
            pending_rows: 73,
            pending_bytes: 7_919,
            ..MetricsSnapshot::default()
        };
        m.per_view.insert(
            "v_degraded".into(),
            ViewMetrics {
                refreshes: 79,
                delta_rows: 83,
                rows_propagated: 89,
                rows_applied: 97,
                refresh_time: Duration::from_micros(250),
                failures: 101,
                retries: 103,
                health: ViewHealth::Degraded {
                    consecutive_failures: 2,
                },
                lint_warnings: vec!["GP012 warning: a lint finding".into()],
            },
        );
        m.per_view.insert(
            "v_quarantined".into(),
            ViewMetrics {
                refreshes: 107,
                failures: 109,
                health: ViewHealth::Quarantined {
                    since_epoch: 113,
                    reason: "injected fault".into(),
                },
                ..ViewMetrics::default()
            },
        );
        m.phase_timings
            .insert("epoch".into(), histogram(&[300, 900, 5_000]));
        m.operator_timings
            .insert("op.Join".into(), histogram(&[40, 2_000]));
        m.trace_events.insert("view.quarantine".into(), 127);
        m.trace_events.insert("view.retry".into(), 131);
        m.refused_keys.insert("facts".into(), "(1, a)".into());
        m
    }

    /// Both renderings are interfaces (scrapers parse one, operators read
    /// the other); the golden files were rendered by the hand-written
    /// exposition this table replaced.
    #[test]
    fn prometheus_and_report_match_the_golden_files() {
        let m = populated();
        assert_eq!(m.prometheus(), include_str!("../tests/golden/metrics.prom"));
        assert_eq!(m.report(), include_str!("../tests/golden/metrics.report"));
    }

    #[test]
    fn merge_folds_every_declared_scalar_by_its_rule() {
        let part = populated();
        let mut merged = part.clone();
        merged.merge(&part);
        let (once, twice) = (part.scalars(), merged.scalars());
        for (i, scalar) in SCALARS.iter().enumerate() {
            let want = match (scalar.rollup, once[i]) {
                (Rollup::Max, v) => v,
                (Rollup::Sum, Num::Count(n)) => Num::Count(2 * n),
                (Rollup::Sum, Num::Time(d)) => Num::Time(2 * d),
            };
            let zero = once[i] == Num::Count(0) || once[i] == Num::Time(Duration::ZERO);
            assert!(!zero, "{} is 0 in the fixture", scalar.field);
            assert_eq!(twice[i], want, "{} rolled up wrongly", scalar.field);
        }
        let v = &merged.per_view["v_degraded"];
        assert_eq!(v.refreshes, 2 * 79);
        assert_eq!(v.lint_warnings.len(), 1, "lint warnings are kept once");
        assert!(merged.per_view["v_quarantined"].health.is_quarantined());
        assert_eq!(merged.phase_timings["epoch"].count(), 6);
        assert_eq!(merged.trace_events["view.retry"], 2 * 131);
    }

    #[test]
    fn mean_epoch_time_survives_two_to_the_32_epochs() {
        let m = MetricsSnapshot {
            epochs: 1 << 32,
            refresh_time: Duration::from_secs(3 << 32),
            ..MetricsSnapshot::default()
        };
        assert_eq!(m.mean_epoch_time(), Some(Duration::from_secs(3)));
        assert!(m.report().contains("mean 3s"));
    }

    #[test]
    fn after_failure_degrades_then_quarantines() {
        let q = |since_epoch| ViewHealth::Quarantined {
            since_epoch,
            reason: "boom".into(),
        };
        let d = |consecutive_failures| ViewHealth::Degraded {
            consecutive_failures,
        };
        let h = ViewHealth::Healthy;
        assert_eq!(h.after_failure(3, 7, "boom"), d(1));
        assert_eq!(d(1).after_failure(3, 7, "boom"), d(2));
        assert_eq!(d(2).after_failure(3, 7, "boom"), q(7));
        assert_eq!(h.after_failure(1, 7, "boom"), q(7));
        assert_eq!(q(5).after_failure(3, 7, "other"), q(5));
    }
    #[test]
    fn coalescing_ratio_handles_empty_and_nonempty() {
        let mut m = MetricsSnapshot::default();
        assert_eq!(m.coalescing_ratio(), None);
        m.rows_drained_raw = 10;
        m.rows_drained_coalesced = 4;
        assert_eq!(m.coalescing_ratio(), Some(0.4));
    }

    #[test]
    fn report_mentions_views() {
        let mut m = MetricsSnapshot::default();
        m.per_view.insert("v1".into(), ViewMetrics::default());
        let r = m.report();
        assert!(r.contains("view v1"));
        assert!(r.contains("epochs"));
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let mut m = MetricsSnapshot {
            epochs: 3,
            rows_ingested: 17,
            ..Default::default()
        };
        let mut h = Histogram::new();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(300));
        m.phase_timings.insert("epoch".into(), h.clone());
        m.operator_timings.insert("op.Join".into(), h);
        m.trace_events.insert("view.retry".into(), 2);

        let text = m.prometheus();
        assert!(text.contains("# TYPE gpivot_epochs_total counter"));
        assert!(text.contains("gpivot_epochs_total 3"));
        assert!(text.contains("gpivot_rows_ingested_total 17"));
        assert!(text.contains("gpivot_trace_events_total{event=\"view.retry\"} 2"));
        // Histogram family: cumulative buckets end in +Inf == count, and
        // both span labels appear.
        assert!(text.contains("gpivot_span_duration_seconds_bucket{span=\"epoch\",le=\"+Inf\"} 2"));
        assert!(
            text.contains("gpivot_span_duration_seconds_bucket{span=\"op.Join\",le=\"+Inf\"} 2")
        );
        assert!(text.contains("gpivot_span_duration_seconds_count{span=\"epoch\"} 2"));
        // Every non-comment line is "name{labels} value" with a parseable
        // float value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            value.parse::<f64>().expect("metric value parses as f64");
        }
    }

    #[test]
    fn sql_counters_appear_in_report_and_prometheus() {
        let mut m = MetricsSnapshot::default();
        // Silent until the SQL path is used.
        assert!(!m.report().contains("sql:"));
        m.sql_registrations = 3;
        m.sql_rewrite_hits = 5;
        m.sql_rewrite_misses = 2;
        let r = m.report();
        assert!(r.contains("sql: 3 registrations, rewrites 5 hit / 2 miss"));
        let text = m.prometheus();
        assert!(text.contains("gpivot_sql_registrations_total 3"));
        assert!(text.contains("gpivot_sql_rewrites_total{outcome=\"hit\"} 5"));
        assert!(text.contains("gpivot_sql_rewrites_total{outcome=\"miss\"} 2"));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            value.parse::<f64>().expect("metric value parses as f64");
        }
    }

    #[test]
    fn durability_counters_appear_in_report_and_prometheus() {
        let mut m = MetricsSnapshot::default();
        // Silent in a non-durable service.
        assert!(!m.report().contains("wal:"));
        assert!(!m.report().contains("recovery:"));
        m.wal_records = 12;
        m.wal_bytes = 4096;
        m.wal_fsyncs = 4;
        m.checkpoints = 2;
        m.last_checkpoint_bytes = 512;
        m.recoveries = 1;
        m.recovery_replayed_records = 9;
        m.recovery_replayed_epochs = 3;
        m.recovery_torn_tails = 1;
        m.recovery_corrupt_checkpoints = 1;
        let r = m.report();
        assert!(
            r.contains("wal: 12 records / 4096 bytes / 4 fsyncs; 2 checkpoints (last 512 bytes)")
        );
        assert!(r.contains("recovery: 1 runs, 9 records / 3 epochs replayed"));
        let text = m.prometheus();
        assert!(text.contains("gpivot_wal_records_total 12"));
        assert!(text.contains("gpivot_wal_fsyncs_total 4"));
        assert!(text.contains("gpivot_checkpoints_total 2"));
        assert!(text.contains("gpivot_last_checkpoint_bytes 512"));
        assert!(text.contains("gpivot_recovery_runs_total 1"));
        assert!(text.contains("gpivot_recovery_replayed_epochs_total 3"));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            value.parse::<f64>().expect("metric value parses as f64");
        }
    }

    #[test]
    fn report_includes_phase_timings_when_present() {
        let mut m = MetricsSnapshot::default();
        let mut h = Histogram::new();
        h.record(Duration::from_millis(2));
        m.phase_timings.insert("maintain.propagate".into(), h);
        m.trace_events.insert("view.quarantine".into(), 1);
        let r = m.report();
        assert!(r.contains("phase timings"));
        assert!(r.contains("maintain.propagate"));
        assert!(r.contains("view.quarantine: 1"));
    }
}
