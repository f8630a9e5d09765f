//! Service observability: per-view and per-epoch counters, exported as a
//! cloneable [`MetricsSnapshot`] plus a human-readable report.

use std::collections::BTreeMap;
use std::fmt::Write as _;
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
}

/// Cumulative counters for one registered view.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewMetrics {
    /// Epochs in which this view was refreshed (it had a dirty dependency).
    pub refreshes: u64,
    /// Distinct delta rows that reached the view's apply phase.
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
        if self.epochs == 0 {
            return None;
        }
        Some(self.refresh_time / self.epochs as u32)
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
        if !self.phase_timings.is_empty() {
            let _ = writeln!(out, "  phase timings:");
            for (name, h) in &self.phase_timings {
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
        if !self.operator_timings.is_empty() {
            let _ = writeln!(out, "  operator self-times:");
            for (name, h) in &self.operator_timings {
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

    /// Prometheus text-format exposition: every counter as a `gpivot_*`
    /// metric, span histograms as one `histogram` family with cumulative
    /// log₂ `le` buckets, and trace events as a labelled counter family.
    /// Ready to serve from a `/metrics` endpoint (or print, as the
    /// `serve_dashboard` example does).
    pub fn prometheus(&self) -> String {
        fn counter(out: &mut String, name: &str, help: &str, v: u64) {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        fn gauge(out: &mut String, name: &str, help: &str, v: u64) {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        let mut out = String::new();
        counter(
            &mut out,
            "gpivot_epochs_total",
            "Completed refresh epochs",
            self.epochs,
        );
        counter(
            &mut out,
            "gpivot_epochs_failed_total",
            "Epochs rolled back after a failure",
            self.epochs_failed,
        );
        counter(
            &mut out,
            "gpivot_batches_ingested_total",
            "Producer batches accepted",
            self.batches_ingested,
        );
        counter(
            &mut out,
            "gpivot_rows_ingested_total",
            "Row changes accepted (pre-coalescing)",
            self.rows_ingested,
        );
        counter(
            &mut out,
            "gpivot_ingest_waits_total",
            "Ingest calls that blocked on backpressure",
            self.ingest_waits,
        );
        counter(
            &mut out,
            "gpivot_ingest_rejects_total",
            "Ingest calls rejected with Backpressure",
            self.ingest_rejects,
        );
        counter(
            &mut out,
            "gpivot_panics_isolated_total",
            "Worker panics caught at the view-task boundary",
            self.panics_isolated,
        );
        counter(
            &mut out,
            "gpivot_lock_poisoned_total",
            "Poisoned lock guards recovered by the sync helpers",
            self.lock_poisoned,
        );
        counter(
            &mut out,
            "gpivot_rows_drained_raw_total",
            "Row changes drained into epochs before coalescing",
            self.rows_drained_raw,
        );
        counter(
            &mut out,
            "gpivot_rows_drained_coalesced_total",
            "Row changes drained into epochs after cancellation",
            self.rows_drained_coalesced,
        );
        counter(
            &mut out,
            "gpivot_delta_rows_total",
            "Distinct delta rows reaching apply phases",
            self.delta_rows,
        );
        counter(
            &mut out,
            "gpivot_rows_propagated_total",
            "Operator-output rows evaluated during propagation",
            self.rows_propagated,
        );
        counter(
            &mut out,
            "gpivot_rows_applied_total",
            "Row effects applied to materialized tables",
            self.rows_applied,
        );
        counter(
            &mut out,
            "gpivot_sql_registrations_total",
            "Views registered through the SQL frontend",
            self.sql_registrations,
        );
        let _ = writeln!(
            out,
            "# HELP gpivot_sql_rewrites_total SQL SELECTs by view-rewrite outcome"
        );
        let _ = writeln!(out, "# TYPE gpivot_sql_rewrites_total counter");
        let _ = writeln!(
            out,
            "gpivot_sql_rewrites_total{{outcome=\"hit\"}} {}",
            self.sql_rewrite_hits
        );
        let _ = writeln!(
            out,
            "gpivot_sql_rewrites_total{{outcome=\"miss\"}} {}",
            self.sql_rewrite_misses
        );
        counter(
            &mut out,
            "gpivot_wal_records_total",
            "WAL records appended",
            self.wal_records,
        );
        counter(
            &mut out,
            "gpivot_wal_bytes_total",
            "WAL bytes written, framing included",
            self.wal_bytes,
        );
        counter(
            &mut out,
            "gpivot_wal_fsyncs_total",
            "fsync calls issued by the WAL",
            self.wal_fsyncs,
        );
        counter(
            &mut out,
            "gpivot_checkpoints_total",
            "Checkpoints written (manual + automatic)",
            self.checkpoints,
        );
        gauge(
            &mut out,
            "gpivot_last_checkpoint_bytes",
            "Size of the most recent checkpoint file",
            self.last_checkpoint_bytes,
        );
        counter(
            &mut out,
            "gpivot_recovery_runs_total",
            "Crash recoveries performed at open",
            self.recoveries,
        );
        counter(
            &mut out,
            "gpivot_recovery_replayed_records_total",
            "WAL records replayed during recovery",
            self.recovery_replayed_records,
        );
        counter(
            &mut out,
            "gpivot_recovery_replayed_epochs_total",
            "Committed epochs re-applied during recovery",
            self.recovery_replayed_epochs,
        );
        counter(
            &mut out,
            "gpivot_recovery_torn_tails_total",
            "Torn WAL tails truncated during recovery",
            self.recovery_torn_tails,
        );
        counter(
            &mut out,
            "gpivot_recovery_corrupt_checkpoints_total",
            "Corrupt checkpoint files skipped during recovery",
            self.recovery_corrupt_checkpoints,
        );
        gauge(
            &mut out,
            "gpivot_pending_rows",
            "Coalesced row changes waiting in the queue",
            self.pending_rows,
        );
        gauge(
            &mut out,
            "gpivot_pending_bytes",
            "Estimated bytes held by the pending queue",
            self.pending_bytes as u64,
        );
        let _ = writeln!(
            out,
            "# HELP gpivot_refresh_seconds_total Wall-clock time spent in refresh epochs"
        );
        let _ = writeln!(out, "# TYPE gpivot_refresh_seconds_total counter");
        let _ = writeln!(
            out,
            "gpivot_refresh_seconds_total {}",
            self.refresh_time.as_secs_f64()
        );
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
    /// Distinct delta rows reaching apply phases, summed over views.
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

#[cfg(test)]
mod tests {
    use super::*;

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
