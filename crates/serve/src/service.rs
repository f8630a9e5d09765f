//! The view-maintenance service: registry, ingestion, epoch scheduler,
//! and the fault-tolerance machinery (retry, quarantine, atomic epochs).

use crate::durable::{self, Durability, PlanParser, Recovered, RecoveryReport};
use crate::metrics::{EpochSummary, MetricsSnapshot, ViewHealth, ViewMetrics};
use crate::queue::IngestQueue;
use crate::shard::ShardConfig;
use crate::sync;
use gpivot_algebra::plan::Plan;
use gpivot_core::{
    CoreError, MaintenanceOutcome, MaterializedView, RefreshPlan, Result, Strategy, ViewManager,
    ViewOptions,
};
use gpivot_exec::{Executor, WorkerPool};
use gpivot_storage::{Catalog, Delta, FaultInjector, FsyncPolicy, StorageError, Table};
use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// Tuning knobs for [`ViewService`] and the sharded tier
/// ([`crate::ShardedService`]).
///
/// Construct through [`ServeConfig::builder`], which validates every
/// setter, and read through the accessor methods. The fields are
/// crate-private: direct field-struct construction silently broke
/// whenever a knob was added (exactly what happened when sharding
/// landed), so the old public-field surface was removed.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads per refresh epoch. Each service owns a
    /// [`gpivot_exec::WorkerPool`] of this many threads, spawned by its
    /// first epoch with more than one refresh group and kept until the
    /// service drops; the epoch's refresh groups (a view plus the
    /// σ-children planned from its patch, see
    /// [`gpivot_core::ViewManager::refresh_groups`]) are distributed
    /// round-robin over `min(workers, groups)` of them. `1` means fully
    /// sequential refreshes on the epoch's own thread.
    pub(crate) workers: usize,
    /// Backpressure watermark on the *coalesced* pending row count.
    ///
    /// Once pending rows reach this, a blocking
    /// [`ViewService::ingest_with`] waits until an epoch drains the
    /// queue, a non-blocking one rejects immediately, and a bounded one
    /// waits up to its timeout — rejections return
    /// [`gpivot_core::CoreError::Backpressure`] without enqueueing
    /// anything (see [`IngestOptions`]).
    ///
    /// **Liveness contract:** a blocked ingest makes progress only if
    /// *another* thread eventually calls [`ViewService::refresh_epoch`]. A
    /// single-threaded producer that ingests past the watermark before
    /// refreshing will deadlock against itself; such callers must use
    /// [`IngestOptions::non_blocking`] / [`IngestOptions::bounded`] and
    /// run an epoch when they see
    /// `Backpressure`. As a safety valve, a single batch larger than the
    /// watermark is still accepted when the queue is empty, so no producer
    /// can wedge on one oversized batch.
    pub(crate) max_pending_rows: u64,
    /// Refresh attempts beyond the first, per view per epoch, for errors
    /// classified [`gpivot_core::ErrorClass::Transient`] (injected faults,
    /// caught worker panics). Permanent errors never retry. A retry runs
    /// at once: the retried work is in-memory planning, which waiting
    /// would not help.
    pub(crate) max_retries: u32,
    /// Consecutive failed epochs (retry budget exhausted each time) after
    /// which a view is quarantined: excluded from refresh scheduling so it
    /// stops blocking epochs, reported as
    /// [`ViewHealth::Quarantined`] in metrics, and re-admitted only by
    /// [`ViewService::retry_view`] or re-registration.
    pub(crate) quarantine_after: u32,
    /// Intra-query parallelism: threads each plan execution (propagate
    /// subplans, recompute, verify) runs on, via the service's
    /// [`gpivot_exec::Executor`]. Orthogonal to [`ServeConfig::workers`]
    /// (inter-view parallelism): an epoch uses up to
    /// `workers × exec_threads` threads. Defaults to `1`.
    pub(crate) exec_threads: usize,
    /// Run plan executions on the vectorized columnar kernels (`true`,
    /// the default) or the row-at-a-time reference kernels (`false`).
    /// Results are bit-identical either way; this is a performance and
    /// triage knob.
    pub(crate) exec_columnar: bool,
    /// When the WAL fsyncs, for services opened durably with
    /// [`ViewService::open`]. Ignored by [`ViewService::new`] (no log).
    /// The default, [`FsyncPolicy::OnCommit`], makes every acknowledged
    /// epoch commit (and registry change) durable; individual ingests
    /// inside a never-committed epoch ride on the page cache.
    pub(crate) wal_fsync: FsyncPolicy,
    /// Automatically checkpoint (and rotate + truncate the log) after
    /// every N committed epochs. `0` (the default) means manual only —
    /// call [`ViewService::checkpoint`]. Ignored by non-durable services.
    pub(crate) checkpoint_every_epochs: u64,
    /// Horizontal sharding for [`crate::ShardedService`]: hash-shard
    /// count and the heavy-key promotion threshold. The default
    /// (`shards = 1`) is unsharded. Ignored by a bare [`ViewService`].
    pub(crate) sharding: ShardConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(1),
            max_pending_rows: 1 << 20,
            max_retries: 2,
            quarantine_after: 3,
            exec_threads: 1,
            exec_columnar: true,
            wal_fsync: FsyncPolicy::default(),
            checkpoint_every_epochs: 0,
            sharding: ShardConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Start building a config from the defaults. Every setter validates
    /// its argument; [`ServeConfigBuilder::build`] returns the first
    /// violation instead of a config that would misbehave at runtime.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
            error: None,
        }
    }

    /// Worker threads per refresh epoch.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Backpressure watermark on the coalesced pending row count.
    pub fn max_pending_rows(&self) -> u64 {
        self.max_pending_rows
    }

    /// Transient-error refresh retries per view per epoch.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Consecutive failed epochs before quarantine.
    pub fn quarantine_after(&self) -> u32 {
        self.quarantine_after
    }

    /// Intra-query executor threads.
    pub fn exec_threads(&self) -> usize {
        self.exec_threads
    }

    /// Whether plan executions use the vectorized columnar kernels.
    pub fn exec_columnar(&self) -> bool {
        self.exec_columnar
    }

    /// The plan executor a service with this config runs on.
    pub(crate) fn executor(&self) -> Executor {
        Executor::new()
            .with_threads(self.exec_threads)
            .with_columnar(self.exec_columnar)
    }

    /// WAL fsync policy for durable services.
    pub fn wal_fsync(&self) -> FsyncPolicy {
        self.wal_fsync
    }

    /// Auto-checkpoint cadence in committed epochs (`0` = manual).
    pub fn checkpoint_every_epochs(&self) -> u64 {
        self.checkpoint_every_epochs
    }

    /// Sharding layout for [`crate::ShardedService`].
    pub fn sharding(&self) -> &ShardConfig {
        &self.sharding
    }
}

/// Validating builder for [`ServeConfig`] — see [`ServeConfig::builder`].
///
/// Setters record the *first* invalid argument and [`Self::build`]
/// surfaces it as [`CoreError::InvalidConfig`], so call sites get one
/// `?` instead of a panic deep inside the service.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
    error: Option<CoreError>,
}

impl ServeConfigBuilder {
    fn invalid(&mut self, field: &str, message: String) {
        if self.error.is_none() {
            self.error = Some(CoreError::InvalidConfig {
                field: field.to_string(),
                message,
            });
        }
    }

    /// Worker threads per refresh epoch (inter-view parallelism); ≥ 1.
    pub fn workers(mut self, workers: usize) -> Self {
        if workers == 0 {
            self.invalid("workers", "must be at least 1".into());
        } else {
            self.cfg.workers = workers;
        }
        self
    }

    /// Number of hash shards for [`crate::ShardedService`]; ≥ 1
    /// (`1` = unsharded).
    pub fn shards(mut self, shards: usize) -> Self {
        if shards == 0 {
            self.invalid("shards", "must be at least 1 (1 = unsharded)".into());
        } else {
            self.cfg.sharding.shards = shards;
        }
        self
    }

    /// Delta-row frequency at which a key is promoted to the heavy
    /// shard; `0` disables promotion. See [`ShardConfig`].
    pub fn heavy_key_threshold(mut self, threshold: u64) -> Self {
        self.cfg.sharding.heavy_key_threshold = threshold;
        self
    }

    /// Backpressure watermark on the coalesced pending row count; ≥ 1.
    pub fn max_pending_rows(mut self, rows: u64) -> Self {
        if rows == 0 {
            self.invalid("max_pending_rows", "must be at least 1".into());
        } else {
            self.cfg.max_pending_rows = rows;
        }
        self
    }

    /// Transient-error refresh retries per view per epoch.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.cfg.max_retries = retries;
        self
    }

    /// Consecutive failed epochs before quarantine; ≥ 1.
    pub fn quarantine_after(mut self, epochs: u32) -> Self {
        if epochs == 0 {
            self.invalid("quarantine_after", "must be at least 1".into());
        } else {
            self.cfg.quarantine_after = epochs;
        }
        self
    }

    /// Intra-query executor threads; ≥ 1.
    pub fn exec_threads(mut self, threads: usize) -> Self {
        if threads == 0 {
            self.invalid("exec_threads", "must be at least 1".into());
        } else {
            self.cfg.exec_threads = threads;
        }
        self
    }

    /// Vectorized columnar kernels (`true`, default) or the row
    /// reference kernels (`false`).
    pub fn exec_columnar(mut self, columnar: bool) -> Self {
        self.cfg.exec_columnar = columnar;
        self
    }

    /// WAL fsync policy for durable services.
    pub fn wal_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.cfg.wal_fsync = policy;
        self
    }

    /// Auto-checkpoint cadence in committed epochs (`0` = manual).
    pub fn checkpoint_every_epochs(mut self, epochs: u64) -> Self {
        self.cfg.checkpoint_every_epochs = epochs;
        self
    }

    /// Finish: the validated config, or the first setter violation as
    /// [`CoreError::InvalidConfig`].
    pub fn build(self) -> Result<ServeConfig> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.cfg),
        }
    }
}

/// How an [`ViewService::ingest_with`] call waits for queue space when
/// the backpressure watermark is reached.
///
/// * [`IngestOptions::default`] (or [`IngestOptions::blocking`]) waits
///   until an epoch drains the queue.
/// * [`IngestOptions::non_blocking`] rejects immediately with
///   [`gpivot_core::CoreError::Backpressure`] — the safe choice for
///   single-threaded producers (which cannot both wait for space and
///   run the epoch that would create it).
/// * [`IngestOptions::bounded`] waits at most `timeout`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOptions(Wait);

impl Default for IngestOptions {
    /// Blocking with no timeout.
    fn default() -> Self {
        IngestOptions::blocking()
    }
}

impl IngestOptions {
    /// Wait for queue space indefinitely.
    pub fn blocking() -> Self {
        IngestOptions(Wait::Block)
    }

    /// Reject immediately at the watermark.
    pub fn non_blocking() -> Self {
        IngestOptions(Wait::Never)
    }

    /// Wait at most `timeout`.
    pub fn bounded(timeout: Duration) -> Self {
        IngestOptions(Wait::Timeout(timeout))
    }
}

/// How long an ingest call is willing to wait for queue space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    Block,
    Never,
    Timeout(Duration),
}

struct Shared {
    cfg: ServeConfig,
    /// Serializes refresh epochs and registry changes with each other.
    /// Readers (queries, snapshots) never take it.
    gate: Mutex<()>,
    /// The catalog + views. Write-held only for the short in-place commit
    /// of an epoch (O(|Δ|) keyed writes) and for registry changes.
    state: RwLock<ViewManager>,
    queue: Mutex<IngestQueue>,
    /// Signalled whenever the queue drains; `ingest` waits on it.
    space: Condvar,
    metrics: Mutex<MetricsSnapshot>,
    /// Epoch counter, bumped inside the state write-lock critical section
    /// so a read guard always observes a consistent (epoch, state) pair.
    epoch: AtomicU64,
    /// Epoch attempts that reached the plan phase, committed or not. With
    /// a view's name it seeds that refresh's fault stream
    /// ([`FaultInjector::stream`]), so a retried epoch draws fresh faults
    /// and a seeded schedule replays exactly however the groups interleave.
    plan_rounds: AtomicU64,
    /// Phase/operator timing store. Installed as a *scoped* collector on
    /// every thread that does work for this service (epoch coordinator,
    /// refresh workers, registry calls) — never globally, so concurrent
    /// services and parallel tests stay isolated.
    tracer: Arc<tracing::TimingSubscriber>,
    /// Present iff the service was opened durably ([`ViewService::open`]):
    /// the WAL handle + checkpoint machinery. Lock order: the WAL mutex
    /// inside sits between the queue mutex and the metrics mutex.
    durability: Option<Durability>,
    /// The refresh fan-out's `cfg.workers()` threads, spawned by the first
    /// epoch that has more than one refresh group and joined when the
    /// service drops.
    pool: WorkerPool,
}

/// A long-lived, thread-safe view-maintenance service. Cheap to clone —
/// clones share the same underlying state (handle semantics).
#[derive(Clone)]
pub struct ViewService {
    shared: Arc<Shared>,
}

/// One view's refresh attempt sequence within an epoch.
struct ViewRefresh {
    result: Result<RefreshPlan>,
    retries: u32,
    panics: u32,
    took: Duration,
}

impl ViewService {
    /// Wrap a base-table catalog with an empty view registry.
    ///
    /// To run the service under fault injection, configure the catalog
    /// first: `catalog.set_fault_injector(injector.clone())` — the injector
    /// is a shared handle, so the test keeps arming/disarming control over
    /// the copy the service owns.
    pub fn new(catalog: Catalog, cfg: ServeConfig) -> Self {
        Self::assemble(
            ViewManager::new(catalog).with_exec(cfg.executor()),
            IngestQueue::new(),
            MetricsSnapshot::default(),
            0,
            cfg,
            None,
        )
    }

    fn assemble(
        manager: ViewManager,
        queue: IngestQueue,
        metrics: MetricsSnapshot,
        epoch: u64,
        cfg: ServeConfig,
        durability: Option<Durability>,
    ) -> Self {
        let pool = WorkerPool::new(cfg.workers());
        ViewService {
            shared: Arc::new(Shared {
                cfg,
                gate: Mutex::new(()),
                state: RwLock::new(manager),
                queue: Mutex::new(queue),
                space: Condvar::new(),
                metrics: Mutex::new(metrics),
                epoch: AtomicU64::new(epoch),
                plan_rounds: AtomicU64::new(0),
                tracer: tracing::TimingSubscriber::shared(),
                durability,
                pool,
            }),
        }
    }

    /// Open (or create) a **durable** service rooted at directory `dir`.
    ///
    /// On a fresh directory this writes an initial checkpoint of
    /// `seed_catalog` and starts WAL generation 1. On a directory with
    /// prior state it runs crash recovery — latest valid checkpoint plus
    /// log-tail replay (see `durable` module docs) — and `seed_catalog` is
    /// used only for its [`FaultInjector`] handle, which is transplanted
    /// onto the recovered catalog so tests keep arming control. Torn log
    /// tails are truncated, corrupt checkpoints skipped; neither panics.
    /// A directory holding checkpoint or log files but no valid checkpoint
    /// returns `StorageError::Corrupt` and is not written to.
    ///
    /// Recovery is exactly-once with respect to *acknowledged* commits: an
    /// epoch whose `refresh_epoch` returned `Ok` is always re-applied, and
    /// a drained-but-uncommitted batch is restored to the pending queue.
    /// An operation that was in flight (never acknowledged) when the crash
    /// hit may or may not be present — the caller decides whether to
    /// resubmit, like any client of a write-ahead-logged store.
    ///
    /// A view cannot make its directory unopenable. One that failed in a
    /// committed epoch (so that epoch committed without it), or was
    /// quarantined when the checkpoint was cut, is recomputed from the
    /// recovered base tables; if that fails too, it keeps the table it had
    /// and the recovered service reports it [`ViewHealth::Quarantined`],
    /// to be re-admitted with [`ViewService::retry_view`].
    ///
    /// `parser` converts persisted view-definition SQL back into plans;
    /// the SQL frontend's `gpivot_sql::GpivotService::open` passes
    /// `gpivot_sql::parse_query`. The [`RecoveryReport`] says what was
    /// found and replayed (also surfaced as `recovery_*` metrics).
    pub fn open(
        dir: impl AsRef<Path>,
        seed_catalog: Catalog,
        cfg: ServeConfig,
        parser: &PlanParser,
    ) -> Result<(ViewService, RecoveryReport)> {
        let dir = dir.as_ref();
        let injector = seed_catalog.fault_injector().clone();
        let (mut rec, durability) = match durable::recover(dir, parser, cfg.executor())? {
            Some(rec) => {
                let durability =
                    Durability::open_at(dir, rec.gen, cfg.wal_fsync(), injector.clone())?;
                (rec, durability)
            }
            None => {
                let manager = ViewManager::new(seed_catalog).with_exec(cfg.executor());
                let image =
                    durable::snapshot(&manager, Vec::new(), (0, 0), 0, 1, &BTreeSet::new())?;
                let durability =
                    Durability::create(dir, &image, cfg.wal_fsync(), injector.clone())?;
                let fresh = Recovered {
                    manager,
                    queue: IngestQueue::new(),
                    epoch: 0,
                    gen: 1,
                    report: RecoveryReport::default(),
                    quarantined: Vec::new(),
                };
                (fresh, durability)
            }
        };
        rec.manager.catalog_mut().set_fault_injector(injector);
        let (raw_rows, batches) = rec.queue.watermarks();
        let metrics = MetricsSnapshot {
            // Seed the ingest counters from the recovered queue watermarks
            // so `rows_ingested − rows_drained_raw = pending` still
            // reconciles after a restart.
            rows_ingested: raw_rows,
            batches_ingested: batches,
            recoveries: u64::from(rec.report.recovered),
            recovery_replayed_records: rec.report.replayed_records,
            recovery_replayed_epochs: rec.report.replayed_epochs,
            recovery_torn_tails: rec.report.torn_tails_truncated,
            recovery_corrupt_checkpoints: rec.report.corrupt_checkpoints_skipped,
            per_view: rec
                .quarantined
                .into_iter()
                .map(|(name, err)| {
                    let health = ViewHealth::Quarantined {
                        since_epoch: rec.epoch,
                        reason: err.to_string(),
                    };
                    (
                        name,
                        ViewMetrics {
                            health,
                            ..ViewMetrics::default()
                        },
                    )
                })
                .collect(),
            ..MetricsSnapshot::default()
        };
        let svc = Self::assemble(
            rec.manager,
            rec.queue,
            metrics,
            rec.epoch,
            cfg,
            Some(durability),
        );
        Ok((svc, rec.report))
    }

    /// True iff this service write-ahead-logs and can checkpoint.
    pub fn is_durable(&self) -> bool {
        self.shared.durability.is_some()
    }

    /// Register a named view, compiling it through the normalize + strategy
    /// pipeline (auto-selected strategy, returned on success). Re-using a
    /// dropped view's name resets its health to [`ViewHealth::Healthy`]
    /// while keeping its cumulative counters.
    pub fn register_view(&self, name: impl Into<String>, definition: Plan) -> Result<Strategy> {
        self.register_view_with(name, definition, ViewOptions::new())
    }

    /// Register a named view with explicit [`ViewOptions`] — a forced
    /// [`Strategy`] (a bare one converts), or a cost-model hint; see
    /// [`gpivot_core::ViewManager::register_view_with`]. Returns the
    /// strategy the view was compiled with.
    pub fn register_view_with(
        &self,
        name: impl Into<String>,
        definition: Plan,
        options: impl Into<ViewOptions>,
    ) -> Result<Strategy> {
        let _gate = sync::lock(&self.shared.gate);
        let _trace = tracing::push_collector(self.shared.tracer.clone());
        let mut state = sync::write(&self.shared.state);
        let name = name.into();
        let strategy = state.register_view_with(name.clone(), definition, options)?;
        if let Some(d) = &self.shared.durability {
            // Log the registration before acknowledging; if the log write
            // fails, unwind it so the in-memory registry never runs ahead
            // of the durable one.
            if let Err(e) = state.view(&name).and_then(|v| d.log_register(v)) {
                let _ = state.drop_view(&name);
                return Err(e);
            }
        }
        // Surface any non-fatal plan-lint findings in the dashboard.
        let lint_warnings: Vec<String> = state
            .view(&name)
            .map(|v| v.lint_warnings().iter().map(|d| d.to_string()).collect())
            .unwrap_or_default();
        drop(state);
        let mut m = sync::lock(&self.shared.metrics);
        let vm = m.per_view.entry(name).or_default();
        vm.health = ViewHealth::Healthy;
        vm.lint_warnings = lint_warnings;
        Ok(strategy)
    }

    /// Drop a view. Its cumulative metrics are retained in the snapshot;
    /// its health resets to [`ViewHealth::Healthy`], so a dropped view is
    /// never reported as quarantined.
    pub fn drop_view(&self, name: &str) -> Result<()> {
        let _gate = sync::lock(&self.shared.gate);
        let mut state = sync::write(&self.shared.state);
        let removed = state.drop_view(name)?;
        if let Some(d) = &self.shared.durability {
            if let Err(e) = d.log_drop(name) {
                state.install_view(removed);
                return Err(e);
            }
        }
        drop(state);
        let mut m = sync::lock(&self.shared.metrics);
        if let Some(vm) = m.per_view.get_mut(name) {
            vm.health = ViewHealth::Healthy;
        }
        Ok(())
    }

    /// Names of all registered views.
    pub fn view_names(&self) -> Vec<String> {
        let state = sync::read(&self.shared.state);
        state.view_names().into_iter().map(String::from).collect()
    }

    /// The configuration this service was built with.
    pub(crate) fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// Replace a base table wholesale, under the refresh gate + write
    /// lock. Sharded-tier hook: used when a table transitions
    /// replicated → partitioned on a shard worker. Callers must have
    /// drained the queue first so no pending delta was routed against
    /// the old contents.
    pub(crate) fn replace_table(&self, name: &str, table: Table) {
        let _gate = sync::lock(&self.shared.gate);
        let mut state = sync::write(&self.shared.state);
        state.catalog_mut().replace(name, table);
    }

    /// Submit a signed delta batch for one base table. The single ingest
    /// entry point: [`IngestOptions`] selects blocking (default),
    /// non-blocking, or bounded-wait behavior at the backpressure
    /// watermark. A blocked ingest still gets through when the queue is
    /// empty (one oversized batch never wedges a producer); see
    /// [`ServeConfig::max_pending_rows`] for the liveness contract.
    ///
    /// The table must exist and every row, inserted or deleted, must have
    /// its schema's arity; otherwise the call fails
    /// (`StorageError::UnknownTable`, `StorageError::ArityMismatch`) before
    /// anything is logged, enqueued or counted. A row that reached the
    /// queue would fail every later epoch, and on a durable service every
    /// recovery too. Value types are not checked.
    pub fn ingest_with(&self, table: &str, delta: Delta, options: IngestOptions) -> Result<()> {
        if delta.is_empty() {
            return Ok(());
        }
        // Validate against the catalog, then release the state lock
        // *before* touching the queue (lock-order: state → queue, and
        // never queue-while-waiting-on-state).
        {
            let state = sync::read(&self.shared.state);
            let expected = state.catalog().table(table)?.schema().arity();
            if let Some((row, _)) = delta.iter().find(|(row, _)| row.arity() != expected) {
                return Err(CoreError::Storage(StorageError::ArityMismatch {
                    expected,
                    actual: row.arity(),
                }));
            }
        }
        let rows = delta.total_multiplicity();
        let deadline = match options.0 {
            Wait::Timeout(d) => Some(Instant::now() + d),
            _ => None,
        };
        let mut waited = false;
        let mut rejected_at = None;
        {
            let mut q = sync::lock(&self.shared.queue);
            while q.pending_rows() >= self.shared.cfg.max_pending_rows() && !q.is_empty() {
                match (options.0, deadline) {
                    (Wait::Never, _) => {
                        rejected_at = Some(q.pending_rows());
                        break;
                    }
                    (_, Some(dl)) => {
                        let now = Instant::now();
                        if now >= dl {
                            rejected_at = Some(q.pending_rows());
                            break;
                        }
                        let (g, _) =
                            sync::wait_timeout(&self.shared.space, &self.shared.queue, q, dl - now);
                        q = g;
                        waited = true;
                    }
                    (_, None) => {
                        q = sync::wait(&self.shared.space, &self.shared.queue, q);
                        waited = true;
                    }
                }
            }
            if rejected_at.is_none() {
                // Durable services log the delta (and under
                // `FsyncPolicy::Always`, fsync it) *before* enqueueing —
                // still inside the queue lock, so WAL append order equals
                // queue merge order and replay reconstructs identical
                // batches. A failed log write acknowledges nothing: the
                // delta is neither enqueued nor counted.
                if let Some(d) = &self.shared.durability {
                    if let Err(e) = d.log_ingest(table, &delta) {
                        drop(q);
                        return Err(e);
                    }
                }
                q.ingest(table, delta);
            }
        }
        let mut m = sync::lock(&self.shared.metrics);
        if waited {
            m.ingest_waits += 1;
        }
        if let Some(pending_rows) = rejected_at {
            m.ingest_rejects += 1;
            return Err(CoreError::Backpressure {
                pending_rows,
                watermark: self.shared.cfg.max_pending_rows(),
            });
        }
        m.batches_ingested += 1;
        m.rows_ingested += rows;
        Ok(())
    }

    /// Coalesced row changes currently waiting in the queue.
    pub fn pending_rows(&self) -> u64 {
        sync::lock(&self.shared.queue).pending_rows()
    }

    /// The epoch number currently visible to readers.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// Run one refresh epoch: drain the queue, *plan* every affected view's
    /// refresh in parallel (propagate the batch, compute the row-level
    /// patch — nothing is written), *validate* the base-table deltas, then
    /// *commit* all of it in place under the write lock. An empty queue is
    /// a cheap no-op (the epoch number does not advance).
    ///
    /// Fault tolerance (see DESIGN.md §"Fault tolerance"):
    ///
    /// * Each view refresh runs inside `catch_unwind` — a panicking worker
    ///   is converted into [`gpivot_core::CoreError::ViewPanic`] and can
    ///   never poison a service lock.
    /// * Transient failures (injected faults, caught panics) retry at
    ///   once, up to [`ServeConfig::max_retries`] times.
    /// * A view that exhausts its retries fails the epoch and degrades;
    ///   after [`ServeConfig::quarantine_after`] consecutive failed epochs
    ///   it is quarantined and excluded from scheduling, so later epochs
    ///   commit without it.
    /// * Commits are all-or-nothing: everything that can fail (propagation,
    ///   patch computation, key and arity checks of the base deltas, every
    ///   fault site, the WAL commit marker) happens before the first write,
    ///   against state the epoch only reads. The commit itself is O(|Δ|)
    ///   keyed writes to the live tables inside one write-lock critical
    ///   section and cannot fail; rolling back is dropping the plan and
    ///   restoring the drained batch to the queue, so no data is lost.
    /// * A reader never waits on a copy and never sees a torn epoch: a
    ///   result handed out earlier shares its rows with the table, and the
    ///   first in-place write detaches the table from it (copy-on-write).
    pub fn refresh_epoch(&self) -> Result<EpochSummary> {
        let _gate = sync::lock(&self.shared.gate);
        let _trace = tracing::push_collector(self.shared.tracer.clone());
        let start = Instant::now();

        let (batch, drained) = {
            let _s = tracing::span("epoch.drain").enter();
            let mut q = sync::lock(&self.shared.queue);
            let (batch, drained) = q.drain();
            // Mark the epoch boundary in the log while still holding the
            // queue lock: replay re-drains a simulated queue at this exact
            // record, so no ingest may slip between the drain and the
            // marker. Empty drains write nothing (no epoch happens).
            if !batch.is_empty() {
                if let Some(d) = &self.shared.durability {
                    if let Err(e) = d.log_begin(self.epoch() + 1) {
                        q.restore(&batch, drained);
                        self.shared.space.notify_all();
                        return Err(e);
                    }
                }
            }
            self.shared.space.notify_all();
            (batch, drained)
        };
        {
            let mut m = sync::lock(&self.shared.metrics);
            m.rows_drained_raw += drained.raw_rows;
            m.rows_drained_coalesced += drained.coalesced_rows;
        }
        if batch.is_empty() {
            return Ok(EpochSummary {
                epoch: self.epoch(),
                ..EpochSummary::default()
            });
        }

        // Plan phase: compute each affected, non-quarantined view's patch
        // against the pre-epoch catalog, in parallel, under the read lock
        // (concurrent queries keep running; nothing is written). The unit
        // of parallelism is a refresh group: a view, then the σ-children
        // planned from its patch on the same worker.
        let state = sync::read(&self.shared.state);
        let quarantined = self.quarantined();
        let (skipped, names): (Vec<&str>, Vec<&str>) = state
            .affected_views(&batch)
            .map(MaterializedView::name)
            .partition(|name| quarantined.contains(*name));
        let quarantined_skipped = skipped.len();
        let groups = state.refresh_groups(&names);
        let round = self.shared.plan_rounds.fetch_add(1, Ordering::Relaxed);
        let results = {
            let _s = tracing::span("epoch.propagate").enter();
            let pool = &self.shared.pool;
            // Holding the refresh gate and the registry read guard across
            // the fan-out is what serializes epochs. It cannot deadlock:
            // the jobs only run view-maintenance closures and never touch
            // a service lock, and the pool's own inbox mutexes are leaves
            // in `gpivot-exec`, never held while a job runs or while
            // another lock is taken. The pool installs this thread's
            // collector (the service's tracer, pushed above) for each
            // job, so `view.attempt` spans and the maintain-phase spans
            // underneath land in this service's store.
            // concurrency-lint: allow(GP033)
            pool.run_slots(groups.iter().collect(), |group| {
                let mut planned: Vec<ViewRefresh> = Vec::with_capacity(group.members().len());
                for &(name, parent) in group.members() {
                    // A child whose parent failed plans by its own rule.
                    let parent = parent.and_then(|i| planned[i].result.as_ref().ok());
                    let refresh =
                        plan_with_retry(&self.shared.cfg, &state, round, name, &batch, parent);
                    planned.push(refresh);
                }
                planned
            })
        };
        // One slot per view, in group order; a group whose whole job
        // vanished leaves every member's slot empty.
        let slots = groups.iter().zip(results).flat_map(|(group, slot)| {
            let mut planned = slot.map(Vec::into_iter);
            let members = group.members().iter();
            members.map(move |&(name, _)| (name, planned.as_mut().and_then(Iterator::next)))
        });

        let mut ok: Vec<(&str, RefreshPlan, Duration, u32)> = Vec::new();
        let mut failures: Vec<(String, CoreError)> = Vec::new();
        let mut per_view_retries: Vec<(String, u64)> = Vec::new();
        let mut total_retries = 0u64;
        let mut total_panics = 0u64;
        for (name, slot) in slots {
            match slot {
                Some(vr) => {
                    total_retries += u64::from(vr.retries);
                    total_panics += u64::from(vr.panics);
                    per_view_retries.push((name.to_string(), u64::from(vr.retries)));
                    match vr.result {
                        Ok(refresh) => ok.push((name, refresh, vr.took, vr.retries)),
                        Err(e) => failures.push((name.to_string(), e)),
                    }
                }
                // The whole worker bucket vanished: a panic escaped the
                // per-view catch_unwind boundary (should be impossible for
                // unwinding panics, but never trust a worker).
                None => failures.push((
                    name.to_string(),
                    CoreError::ViewPanic {
                        view: name.to_string(),
                        message: "refresh worker vanished".into(),
                    },
                )),
            }
        }

        let roll_back = |err, failures| {
            self.roll_back_epoch(
                &batch,
                drained,
                err,
                failures,
                &per_view_retries,
                total_panics,
            )
        };
        if !failures.is_empty() {
            drop(state);
            return roll_back(failures[0].1.clone(), failures);
        }

        // Validate the base-table commit while still only holding the read
        // lock: the last fallible step (key violations, injected commit
        // faults) is a pure check. Transient faults retry like any other.
        let (validated, stage_retries) = {
            let _s = tracing::span("epoch.stage").enter();
            retry_transient(&self.shared.cfg, || state.plan_commit(&batch))
        };
        total_retries += u64::from(stage_retries);
        let mut plan = match validated {
            Ok(plan) => plan,
            Err(e) => {
                drop(state);
                // A commit-site fault is a base-table problem, not any one
                // view's: fail the epoch without degrading view health.
                return roll_back(e, vec![]);
            }
        };
        let mut summary = EpochSummary {
            batch_rows: drained.coalesced_rows,
            batches_drained: drained.batches,
            views_refreshed: ok.len(),
            quarantined_skipped,
            retries: total_retries,
            ..EpochSummary::default()
        };
        let mut committed: Vec<(String, MaintenanceOutcome, Duration, u32)> =
            Vec::with_capacity(ok.len());
        for (name, refresh, took, retries) in ok {
            let outcome = refresh.outcome().clone();
            summary.delta_rows += outcome.delta_rows as u64;
            summary.rows_propagated += outcome.rows_propagated as u64;
            summary.rows_applied += outcome.stats.total() as u64;
            committed.push((name.to_string(), outcome, took, retries));
            plan.add_view(name, refresh);
        }
        drop(state);

        // Durable commit point: the `EpochCommit` marker (fsynced per
        // policy) goes to the log *before* the in-memory commit and before
        // the caller sees `Ok`. If it cannot be made durable, the epoch
        // rolls back exactly like a propagation failure — recovery then
        // treats the drained batch as still pending, which matches what
        // the caller was told.
        if let Some(d) = &self.shared.durability {
            if let Err(e) = d.log_commit(self.epoch() + 1) {
                return roll_back(e, vec![]);
            }
        }

        // Commit phase: one short write-lock critical section applies the
        // validated base deltas and every view patch in place, then bumps
        // the epoch — readers see all of it or none of it. The gate is
        // still held, so no registry change can have slipped in between
        // the read and write locks and the plan cannot be stale; the
        // refusal arm exists so that a future hole in that argument fails
        // the epoch whole instead of writing a patch onto the wrong rows.
        let committed_at = {
            let _s = tracing::span("epoch.commit").enter();
            let mut state = sync::write(&self.shared.state);
            state
                .commit_epoch(plan)
                .map(|()| self.shared.epoch.fetch_add(1, Ordering::SeqCst) + 1)
        };
        summary.epoch = match committed_at {
            Ok(epoch) => epoch,
            Err(stale) => return roll_back(stale.into(), vec![]),
        };
        let epoch_time = start.elapsed();
        summary.duration = epoch_time;

        // The `epoch` histogram is fed the *same* measured duration as the
        // `refresh_time` counter, so the two reconcile exactly:
        // `phase_timings["epoch"].count() == epochs` and
        // `phase_timings["epoch"].total() == refresh_time`.
        self.shared.tracer.record("epoch", epoch_time);
        {
            let mut m = sync::lock(&self.shared.metrics);
            m.epochs += 1;
            m.refresh_time += epoch_time;
            m.last_epoch_time = epoch_time;
            m.delta_rows += summary.delta_rows;
            m.rows_propagated += summary.rows_propagated;
            m.rows_applied += summary.rows_applied;
            m.panics_isolated += total_panics;
            // Per-view refresh work is charged only on committed epochs —
            // rolled-back work never reaches these counters. A successful
            // committed refresh also resets the view's health.
            for (name, outcome, took, retries) in committed {
                let vm: &mut ViewMetrics = m.per_view.entry(name).or_default();
                vm.refreshes += 1;
                vm.delta_rows += outcome.delta_rows as u64;
                vm.rows_propagated += outcome.rows_propagated as u64;
                vm.rows_applied += outcome.stats.total() as u64;
                vm.refresh_time += took;
                vm.retries += u64::from(retries);
                vm.health = ViewHealth::Healthy;
            }
        }
        if self.shared.durability.is_some() {
            let every = self.shared.cfg.checkpoint_every_epochs();
            if every > 0 && summary.epoch.is_multiple_of(every) {
                // The epoch above is already committed and durable; a
                // checkpoint failure here reports as the epoch's error but
                // loses nothing — recovery replays from the previous
                // checkpoint instead.
                self.checkpoint_locked()?;
            }
        }
        Ok(summary)
    }

    /// Write a checkpoint: snapshot the catalog, every view table, and the
    /// pending queue; rotate the WAL to a fresh generation; then prune log
    /// and checkpoint files made obsolete. Returns the checkpoint size in
    /// bytes. Errors if the service is not durable.
    ///
    /// Crash-safe at every step: the checkpoint file lands via temp-file +
    /// fsync + rename, and old generations are removed only after it does.
    pub fn checkpoint(&self) -> Result<u64> {
        let _gate = sync::lock(&self.shared.gate);
        self.checkpoint_locked()
    }

    /// Checkpoint with the refresh gate already held.
    fn checkpoint_locked(&self) -> Result<u64> {
        let Some(d) = &self.shared.durability else {
            return Err(CoreError::Storage(StorageError::Io {
                op: "checkpoint".into(),
                message: "service is not durable (constructed with ViewService::new; \
                          use ViewService::open or save_to)"
                    .into(),
            }));
        };
        let _s = tracing::span("checkpoint").enter();
        let state = sync::read(&self.shared.state);
        let epoch = self.epoch();
        // Step 1 (atomic wrt producers): snapshot the queue and rotate the
        // log under the queue lock, so every ingest is either inside the
        // snapshot (old generation, not replayed) or after the rotation
        // point (new generation, replayed). Epoch markers can't interleave
        // here — the gate is held.
        let (pending, watermarks, new_gen) = {
            let q = sync::lock(&self.shared.queue);
            let new_gen = d.rotate(epoch)?;
            (q.snapshot_pending(), q.watermarks(), new_gen)
        };
        let stale = self.quarantined();
        let data = durable::snapshot(&state, pending, watermarks, epoch, new_gen, &stale)?;
        drop(state);
        // Steps 2 + 3: write the snapshot, then prune behind it.
        let bytes = d.write_checkpoint_file(&data)?;
        tracing::event("checkpoint", &format!("gen {new_gen}, {bytes} bytes"));
        Ok(bytes)
    }

    /// Export the current state as a fresh durable directory at `dir` (one
    /// checkpoint at generation 1 plus an empty log), regardless of whether
    /// this service is itself durable. [`ViewService::open`] on that
    /// directory restores the exact state — views, pending queue, epoch.
    /// Any prior gpivot files in `dir` are replaced, except when `dir` is
    /// this service's own durable directory: its log is still in use, so
    /// the save is a [`ViewService::checkpoint`] there instead. Returns the
    /// checkpoint size in bytes. Backs the SQL REPL's `:save`.
    pub fn save_to(&self, dir: impl AsRef<Path>) -> Result<u64> {
        let _gate = sync::lock(&self.shared.gate);
        let dir = dir.as_ref();
        if self.shared.durability.as_ref().is_some_and(|d| d.owns(dir)) {
            return self.checkpoint_locked();
        }
        let state = sync::read(&self.shared.state);
        let (pending, watermarks) = {
            let q = sync::lock(&self.shared.queue);
            (q.snapshot_pending(), q.watermarks())
        };
        let stale = self.quarantined();
        let data = durable::snapshot(&state, pending, watermarks, self.epoch(), 1, &stale)?;
        drop(state);
        let saved = Durability::create(dir, &data, FsyncPolicy::Always, FaultInjector::disabled())?;
        Ok(saved.counters().last_checkpoint_bytes)
    }

    /// Roll a failed epoch back: record per-view failures and health
    /// transitions, restore the drained batch to the queue (without
    /// re-counting producer submissions), and return `err`.
    fn roll_back_epoch(
        &self,
        batch: &gpivot_core::SourceDeltas,
        drained: crate::queue::DrainStats,
        err: CoreError,
        failures: Vec<(String, CoreError)>,
        per_view_retries: &[(String, u64)],
        total_panics: u64,
    ) -> Result<EpochSummary> {
        let _s = tracing::span("epoch.rollback").enter();
        let epoch_now = self.epoch();
        let quarantine_after = self.shared.cfg.quarantine_after();
        {
            let mut m = sync::lock(&self.shared.metrics);
            m.epochs_failed += 1;
            m.panics_isolated += total_panics;
            // Undo the drained-row accounting: after rollback the rows are
            // pending again, and they will be re-counted at the next drain.
            m.rows_drained_raw -= drained.raw_rows;
            m.rows_drained_coalesced -= drained.coalesced_rows;
            for (name, retries) in per_view_retries {
                m.per_view.entry(name.clone()).or_default().retries += retries;
            }
            for (name, err) in &failures {
                let vm: &mut ViewMetrics = m.per_view.entry(name.clone()).or_default();
                vm.failures += 1;
                let was_quarantined = vm.health.is_quarantined();
                vm.health = vm.health.after_failure(quarantine_after, epoch_now, err);
                if vm.health.is_quarantined() && !was_quarantined {
                    tracing::event("view.quarantine", name);
                }
            }
        }
        sync::lock(&self.shared.queue).restore(batch, drained);
        Err(err)
    }

    /// The user-facing contents of a view (single consistent read).
    pub fn query_view(&self, name: &str) -> Result<Table> {
        let state = sync::read(&self.shared.state);
        state.query_view(name)
    }

    /// Where a view currently sits in the retry/quarantine state machine.
    pub fn view_health(&self, name: &str) -> Result<ViewHealth> {
        {
            let state = sync::read(&self.shared.state);
            if !state.view_names().contains(&name) {
                return Err(CoreError::UnknownView(name.to_string()));
            }
        }
        let m = sync::lock(&self.shared.metrics);
        Ok(m.per_view
            .get(name)
            .map(|v| v.health.clone())
            .unwrap_or_default())
    }

    /// Re-admit a quarantined (or degraded) view: recompute it from the
    /// current base tables, install the fresh table, and reset its health
    /// to [`ViewHealth::Healthy`] so the next epoch schedules it again.
    ///
    /// Recomputation executes the view plan, so with an armed fault
    /// injector this can itself fail transiently; the view then stays
    /// quarantined and the call can simply be retried. A durable service
    /// logs nothing here: recovery rebuilds the view from the checkpoint
    /// and the logged epochs, which yields the same table.
    pub fn retry_view(&self, name: &str) -> Result<()> {
        let _gate = sync::lock(&self.shared.gate);
        let _trace = tracing::push_collector(self.shared.tracer.clone());
        let mut state = sync::write(&self.shared.state);
        let (definition, strategy) = {
            let view = state
                .views()
                .find(|v| v.name() == name)
                .ok_or_else(|| CoreError::UnknownView(name.to_string()))?;
            (view.definition().clone(), view.strategy())
        };
        let fresh = MaterializedView::create_with(
            name,
            definition,
            strategy,
            state.catalog(),
            state.executor(),
        )?;
        state.install_view(fresh);
        drop(state);
        let mut m = sync::lock(&self.shared.metrics);
        m.per_view.entry(name.to_string()).or_default().health = ViewHealth::Healthy;
        Ok(())
    }

    /// Names of the views quarantined right now.
    fn quarantined(&self) -> BTreeSet<String> {
        let m = sync::lock(&self.shared.metrics);
        m.quarantined_views()
            .into_iter()
            .map(String::from)
            .collect()
    }

    /// A consistent multi-view read: while the [`Snapshot`] is held, no
    /// epoch can commit, so every query through it sees the same epoch.
    pub fn snapshot(&self) -> Snapshot<'_> {
        let guard = sync::read(&self.shared.state);
        let epoch = self.shared.epoch.load(Ordering::SeqCst);
        Snapshot { guard, epoch }
    }

    /// Verify what readers of every registered view see against its
    /// definition recomputed from the current base tables (the oracle
    /// check; testing/ops aid). Quarantined
    /// views are skipped — their tables are knowingly stale until
    /// [`ViewService::retry_view`] re-admits them.
    pub fn verify_all(&self) -> Result<bool> {
        let state = sync::read(&self.shared.state);
        let quarantined = self.quarantined();
        for name in state.view_names() {
            if quarantined.contains(name) {
                continue;
            }
            if !state.verify_view(name)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// A point-in-time copy of all service counters, including the span
    /// timing histograms split into maintenance/epoch *phases* and exec
    /// *operator* self-times (`op.*`).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = sync::lock(&self.shared.metrics).clone();
        {
            let q = sync::lock(&self.shared.queue);
            m.pending_rows = q.pending_rows();
            m.pending_bytes = q.estimate_bytes();
        }
        if let Some(d) = &self.shared.durability {
            // Durability counters live as atomics on the Durability handle
            // (the WAL mutex sits above the metrics mutex in the lock
            // order, so they can't be folded in at write time). The
            // service's own copies stay 0, so the roll-up rules return the
            // handle's values.
            m.merge(&d.counters());
        }
        for (name, h) in self.shared.tracer.histograms() {
            if name.starts_with("op.") {
                m.operator_timings.insert(name, h);
            } else {
                m.phase_timings.insert(name, h);
            }
        }
        m.trace_events = self.shared.tracer.event_counts();
        m.lock_poisoned = sync::poisoned_total();
        m
    }

    /// Record that a view registration came in through the SQL frontend
    /// (`CREATE MATERIALIZED VIEW`). Called by `gpivot-sql` after a
    /// successful [`ViewService::register_view`].
    pub fn record_sql_registration(&self) {
        let mut m = sync::lock(&self.shared.metrics);
        m.sql_registrations += 1;
    }

    /// Record the outcome of a SQL `SELECT` through the view-matching
    /// rewriter: `Some(view)` if the query was answered from that
    /// materialized view, `None` if it fell back to base-table execution.
    /// Bumps `gpivot_sql_rewrites_total{outcome}` and fires a
    /// `rewrite.hit` / `rewrite.miss` tracing event.
    pub fn record_sql_rewrite(&self, used_view: Option<&str>) {
        {
            let mut m = sync::lock(&self.shared.metrics);
            match used_view {
                Some(_) => m.sql_rewrite_hits += 1,
                None => m.sql_rewrite_misses += 1,
            }
        }
        let _trace = tracing::push_collector(self.shared.tracer.clone());
        match used_view {
            Some(view) => tracing::event("rewrite.hit", view),
            None => tracing::event("rewrite.miss", "no registered view subsumes the query"),
        }
    }
}

/// A read guard over the whole service state pinned to one epoch.
pub struct Snapshot<'a> {
    guard: RwLockReadGuard<'a, ViewManager>,
    epoch: u64,
}

impl Snapshot<'_> {
    /// The epoch this snapshot observes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The user-facing contents of a view at this epoch.
    pub fn query_view(&self, name: &str) -> Result<Table> {
        self.guard.query_view(name)
    }

    /// The underlying manager (views + catalog) at this epoch.
    pub fn manager(&self) -> &ViewManager {
        &self.guard
    }
}

/// Run `op`, retrying transient errors at once, up to `cfg.max_retries`
/// times. Returns the final result and how many retries were spent.
fn retry_transient<R>(cfg: &ServeConfig, mut op: impl FnMut() -> Result<R>) -> (Result<R>, u32) {
    let mut retries = 0u32;
    loop {
        match op() {
            Ok(r) => return (Ok(r), retries),
            Err(e) if e.is_transient() && retries < cfg.max_retries() => retries += 1,
            Err(e) => return (Err(e), retries),
        }
    }
}

/// Plan one view's refresh with panic isolation and transient-error retry:
/// from `parent`'s planned patch when it is given (a σ-child whose parent
/// planned), else by the view's own strategy.
///
/// Every attempt's fault checks draw from the view's own stream for plan
/// round `round`, so which faults fire does not depend on the other
/// refresh jobs running beside it.
///
/// Planning only reads the registry, so a failed attempt leaves nothing
/// behind and a retry simply plans again. A panicking attempt is caught at
/// this boundary (`catch_unwind`) and converted into a transient
/// [`CoreError::ViewPanic`]; since the panic never crosses a lock
/// acquisition, no service lock can be poisoned by it.
fn plan_with_retry(
    cfg: &ServeConfig,
    state: &ViewManager,
    round: u64,
    view: &str,
    batch: &gpivot_core::SourceDeltas,
    parent: Option<&RefreshPlan>,
) -> ViewRefresh {
    let t0 = Instant::now();
    let _faults = state.catalog().fault_injector().stream(round, view);
    let mut panics = 0u32;
    let mut attempts = 0u32;
    let (result, retries) = retry_transient(cfg, || {
        if attempts > 0 {
            tracing::event("view.retry", view);
        }
        attempts += 1;
        // One `view.attempt` span per attempt: a retried view shows up as
        // several attempt samples but one refresh.
        let _attempt = tracing::span("view.attempt").enter();
        // AssertUnwindSafe: `state`, `batch` and `parent` are only read.
        let plan = || state.plan_member(view, batch, parent);
        match std::panic::catch_unwind(AssertUnwindSafe(plan)) {
            Ok(r) => r,
            Err(payload) => {
                panics += 1;
                Err(CoreError::ViewPanic {
                    view: view.to_string(),
                    message: panic_message(&*payload),
                })
            }
        }
    });
    ViewRefresh {
        result,
        retries,
        panics,
        took: t0.elapsed(),
    }
}

/// Best-effort rendering of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_algebra::{Expr, PivotSpec, Plan};
    use gpivot_storage::{row, DataType, Schema, Value};
    use std::sync::Arc as StdArc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = StdArc::new(
            Schema::from_pairs_keyed(
                &[
                    ("id", DataType::Int),
                    ("attr", DataType::Str),
                    ("val", DataType::Int),
                ],
                &["id", "attr"],
            )
            .unwrap(),
        );
        c.register(
            "facts",
            Table::from_rows(
                schema,
                vec![row![1, "a", 10], row![1, "b", 20], row![2, "a", 30]],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    fn pivot_plan() -> Plan {
        Plan::scan("facts").gpivot(PivotSpec::simple(
            "attr",
            "val",
            vec![Value::str("a"), Value::str("b")],
        ))
    }

    fn small_config() -> ServeConfig {
        ServeConfig::builder()
            .workers(1)
            .max_pending_rows(1)
            .max_retries(0)
            .quarantine_after(3)
            .exec_threads(1)
            .wal_fsync(FsyncPolicy::OnCommit)
            .build()
            .unwrap()
    }

    #[test]
    fn register_refresh_query_drop_cycle() {
        let svc = ViewService::new(catalog(), ServeConfig::default());
        svc.register_view("pv", pivot_plan()).unwrap();
        assert_eq!(svc.view_names(), vec!["pv".to_string()]);

        svc.ingest_with(
            "facts",
            Delta::from_inserts(vec![row![3, "b", 7]]),
            IngestOptions::blocking(),
        )
        .unwrap();
        let summary = svc.refresh_epoch().unwrap();
        assert_eq!(summary.epoch, 1);
        assert_eq!(summary.views_refreshed, 1);
        assert_eq!(summary.quarantined_skipped, 0);
        assert!(svc.verify_all().unwrap());
        assert_eq!(svc.query_view("pv").unwrap().len(), 3);
        assert_eq!(svc.view_health("pv").unwrap(), ViewHealth::Healthy);

        svc.drop_view("pv").unwrap();
        assert!(svc.view_names().is_empty());
        assert!(svc.query_view("pv").is_err());
        assert!(svc.view_health("pv").is_err());
    }

    #[test]
    fn empty_epoch_is_a_noop() {
        let svc = ViewService::new(catalog(), ServeConfig::default());
        svc.register_view("pv", pivot_plan()).unwrap();
        let s = svc.refresh_epoch().unwrap();
        assert_eq!(s.epoch, 0);
        assert_eq!(s.views_refreshed, 0);
        assert_eq!(svc.epoch(), 0);
    }

    #[test]
    fn unaffected_views_are_skipped() {
        let mut c = catalog();
        let other = StdArc::new(Schema::from_pairs_keyed(&[("k", DataType::Int)], &["k"]).unwrap());
        c.register("other", Table::from_rows(other, vec![row![1]]).unwrap())
            .unwrap();
        let svc = ViewService::new(c, ServeConfig::default());
        svc.register_view("pv", pivot_plan()).unwrap();
        svc.register_view(
            "ov",
            Plan::scan("other").select(Expr::col("k").gt(Expr::lit(0))),
        )
        .unwrap();

        svc.ingest_with(
            "facts",
            Delta::from_inserts(vec![row![9, "a", 1]]),
            IngestOptions::blocking(),
        )
        .unwrap();
        let s = svc.refresh_epoch().unwrap();
        // Only the pivot view depends on `facts`.
        assert_eq!(s.views_refreshed, 1);
        let m = svc.metrics();
        assert_eq!(m.per_view["pv"].refreshes, 1);
        assert_eq!(m.per_view["ov"].refreshes, 0);
        assert!(svc.verify_all().unwrap());
    }

    #[test]
    fn ingest_unknown_table_errors() {
        let svc = ViewService::new(catalog(), ServeConfig::default());
        assert!(svc
            .ingest_with(
                "nope",
                Delta::from_inserts(vec![row![1]]),
                IngestOptions::default()
            )
            .is_err());
    }

    #[test]
    fn oversized_batch_passes_when_queue_empty() {
        let svc = ViewService::new(catalog(), small_config());
        // 3 rows > watermark of 1, but the queue is empty: must not block.
        svc.ingest_with(
            "facts",
            Delta::from_inserts(vec![row![7, "a", 1], row![8, "a", 1], row![9, "b", 2]]),
            IngestOptions::blocking(),
        )
        .unwrap();
        assert_eq!(svc.pending_rows(), 3);
    }

    #[test]
    fn non_blocking_ingest_rejects_at_watermark() {
        let svc = ViewService::new(catalog(), small_config());
        svc.ingest_with(
            "facts",
            Delta::from_inserts(vec![row![7, "a", 1]]),
            IngestOptions::non_blocking(),
        )
        .unwrap();
        // Queue is now at the watermark (1 pending >= 1): rejected, and
        // nothing enqueued.
        let err = svc
            .ingest_with(
                "facts",
                Delta::from_inserts(vec![row![8, "a", 1]]),
                IngestOptions::non_blocking(),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Backpressure {
                pending_rows: 1,
                watermark: 1
            }
        ));
        assert!(err.is_transient());
        assert_eq!(svc.pending_rows(), 1);
        assert_eq!(svc.metrics().ingest_rejects, 1);
        assert_eq!(svc.metrics().rows_ingested, 1);
    }

    #[test]
    fn bounded_ingest_rejects_after_deadline() {
        let svc = ViewService::new(catalog(), small_config());
        svc.ingest_with(
            "facts",
            Delta::from_inserts(vec![row![7, "a", 1]]),
            IngestOptions::blocking(),
        )
        .unwrap();
        let err = svc
            .ingest_with(
                "facts",
                Delta::from_inserts(vec![row![8, "a", 1]]),
                IngestOptions::bounded(Duration::from_millis(5)),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::Backpressure { .. }));
        assert_eq!(svc.metrics().ingest_rejects, 1);

        // After draining, the same call goes through.
        svc.register_view("pv", pivot_plan()).unwrap();
        svc.refresh_epoch().unwrap();
        svc.ingest_with(
            "facts",
            Delta::from_inserts(vec![row![8, "a", 1]]),
            IngestOptions::bounded(Duration::from_millis(5)),
        )
        .unwrap();
    }

    #[test]
    fn queue_coalescing_reaches_metrics() {
        let svc = ViewService::new(catalog(), ServeConfig::default());
        svc.register_view("pv", pivot_plan()).unwrap();
        svc.ingest_with(
            "facts",
            Delta::from_inserts(vec![row![5, "a", 1]]),
            IngestOptions::blocking(),
        )
        .unwrap();
        svc.ingest_with(
            "facts",
            Delta::from_deletes(vec![row![5, "a", 1]]),
            IngestOptions::blocking(),
        )
        .unwrap();
        svc.refresh_epoch().unwrap();
        let m = svc.metrics();
        assert_eq!(m.rows_ingested, 2);
        assert_eq!(m.rows_drained_raw, 2);
        assert_eq!(m.rows_drained_coalesced, 0);
        assert_eq!(m.coalescing_ratio(), Some(0.0));
        // Fully cancelled: no epoch work happened.
        assert_eq!(svc.epoch(), 0);
    }

    #[test]
    fn config_builder_validates() {
        let cfg = ServeConfig::builder()
            .workers(3)
            .shards(4)
            .heavy_key_threshold(100)
            .build()
            .unwrap();
        assert_eq!(cfg.workers(), 3);
        assert_eq!(cfg.sharding().shards, 4);
        assert_eq!(cfg.sharding().heavy_key_threshold, 100);

        // Zero-valued knobs that require at least 1 are rejected.
        for build in [
            ServeConfig::builder().workers(0),
            ServeConfig::builder().shards(0),
            ServeConfig::builder().max_pending_rows(0),
            ServeConfig::builder().quarantine_after(0),
            ServeConfig::builder().exec_threads(0),
        ] {
            assert!(matches!(
                build.build(),
                Err(CoreError::InvalidConfig { .. })
            ));
        }

        // The first violation wins over later ones.
        let err = ServeConfig::builder()
            .workers(0)
            .exec_threads(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { ref field, .. } if field == "workers"));
    }

    #[test]
    fn ingest_options_map_to_wait_modes() {
        assert_eq!(IngestOptions::default(), IngestOptions::blocking());
    }

    #[test]
    fn retry_transient_respects_classification() {
        let cfg = ServeConfig::builder().max_retries(3).build().unwrap();
        // Transient error that succeeds on the third attempt.
        let mut attempts = 0;
        let (res, retries) = retry_transient(&cfg, || {
            attempts += 1;
            if attempts < 3 {
                Err(CoreError::Backpressure {
                    pending_rows: 1,
                    watermark: 1,
                })
            } else {
                Ok(attempts)
            }
        });
        assert_eq!(res.unwrap(), 3);
        assert_eq!(retries, 2);

        // Permanent errors never retry.
        let mut attempts = 0;
        let (res, retries) = retry_transient(&cfg, || -> Result<()> {
            attempts += 1;
            Err(CoreError::UnknownView("v".into()))
        });
        assert!(res.is_err());
        assert_eq!(retries, 0);
        assert_eq!(attempts, 1);
    }
}
