//! The durability layer: write-ahead logging, checkpointing, and crash
//! recovery for [`crate::ViewService`].
//!
//! ## On-disk layout
//!
//! A durable service owns a directory containing generation-numbered files:
//!
//! ```text
//! wal-0000000001.log          append-only record log (gpivot_storage::wal)
//! checkpoint-0000000001.ckpt  full snapshot: catalog + views + queue
//! wal-0000000002.log          log continuing after checkpoint 2
//! ...
//! ```
//!
//! A checkpoint at generation *g* snapshots everything (base tables, view
//! tables + definitions, the pending ingest queue and its watermarks) and
//! declares that recovery replays WAL generations `>= g` on top of it.
//! Rotation order makes every crash window safe:
//!
//! 1. Under the queue lock: snapshot the queue, create `wal-(g+1)` (head
//!    record: [`WalRecord::Checkpoint`]) and switch appends to it.
//! 2. Write `checkpoint-(g+1)` via temp-file + fsync + rename.
//! 3. Only after the rename succeeds, prune generations `< g+1`.
//!
//! A crash before (2) completes leaves the previous checkpoint in place;
//! recovery then replays both the old and the new log generation in order,
//! which reproduces exactly the same state.
//!
//! ## Replay-from-queue recovery
//!
//! Recovery does not trust epoch markers to carry data — it rebuilds each
//! epoch's batch by *simulating the ingest queue*: `IngestDelta` records
//! feed a scratch queue, `EpochBegin` drains it, and `EpochCommit` applies
//! the drained batch (maintaining non-stale views incrementally against the
//! pre-commit base, exactly like a live epoch). This makes replay
//! self-healing against the duplicate `EpochBegin`/`EpochCommit` sequences
//! a crash-and-retry can legitimately leave behind, because what commits is
//! always what the queue actually held at that point in the record order.
//! A drained-but-uncommitted batch at end-of-log is restored to the pending
//! queue (the epoch never acked, so its rows are still "pending").
//!
//! Torn or corrupt log tails are truncated at the last valid record — never
//! a panic — and corrupt checkpoints are skipped in favor of older valid
//! ones (both surfaced in [`RecoveryReport`]). A directory whose files
//! leave no valid checkpoint to start from fails recovery with
//! `StorageError::Corrupt` and is left untouched.

use crate::metrics::MetricsSnapshot;
use crate::queue::IngestQueue;
use crate::sync;
use gpivot_algebra::plan::Plan;
use gpivot_core::{CoreError, MaterializedView, Result, SourceDeltas, Strategy, ViewManager};
use gpivot_exec::Executor;
use gpivot_storage::checkpoint::{self, CheckpointData};
use gpivot_storage::wal::{self, Wal, WalRecord};
use gpivot_storage::{Catalog, Delta, FaultInjector, FsyncPolicy, StorageError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Parses persisted view-definition SQL back into a [`Plan`].
///
/// The WAL and checkpoints persist view definitions as dialect SQL text
/// (`Plan::to_sql_dialect`, a fixed point of parse∘render) rather than a
/// binary plan encoding, so the serve layer needs a parser at recovery time
/// without depending on the SQL frontend crate. `gpivot_sql::GpivotService`
/// supplies `gpivot_sql::parse_query` here.
pub type PlanParser = dyn Fn(&str) -> std::result::Result<Plan, String> + Send + Sync;

/// What crash recovery found and did while opening a durable service.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// True iff prior state was found and recovered (false = fresh
    /// directory, nothing to replay).
    pub recovered: bool,
    /// Epoch of the checkpoint recovery started from.
    pub checkpoint_epoch: u64,
    /// Epoch counter after log replay (what readers now see).
    pub recovered_epoch: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: u64,
    /// Committed epochs re-applied during replay.
    pub replayed_epochs: u64,
    /// Torn log tails truncated at the last valid record.
    pub torn_tails_truncated: u64,
    /// Corrupt checkpoint files skipped (an older valid one was used).
    pub corrupt_checkpoints_skipped: u64,
    /// Epochs that had drained a batch but never committed; their rows were
    /// restored to the pending queue, not lost.
    pub uncommitted_epochs_dropped: u64,
    /// Views restored directly from snapshot tables.
    pub views_recovered: usize,
    /// Views recomputed from recovered base tables (stale-at-checkpoint or
    /// snapshot-schema mismatch).
    pub views_recomputed: usize,
    /// Coalesced row changes sitting in the queue after recovery.
    pub pending_rows: u64,
}

fn io_err(op: &str, e: std::io::Error) -> CoreError {
    CoreError::Storage(StorageError::Io {
        op: op.to_string(),
        message: e.to_string(),
    })
}

fn corrupt(what: impl Into<String>) -> CoreError {
    CoreError::Storage(StorageError::Corrupt { what: what.into() })
}

fn parse_plan(parser: &PlanParser, sql: &str, what: &str) -> Result<Plan> {
    parser(sql).map_err(|e| corrupt(format!("{what}: persisted view SQL failed to parse: {e}")))
}

fn parse_strategy(id: &str) -> Result<Strategy> {
    Strategy::from_id(id).ok_or_else(|| corrupt(format!("unknown persisted strategy id {id:?}")))
}

/// The live durability handle a [`crate::ViewService`] carries: the current
/// WAL generation plus cumulative counters that survive log rotation.
///
/// Lock order: the WAL mutex sits *below* the ingest-queue mutex and above
/// the metrics mutex (gate → state → queue → wal → metrics). Counters are
/// atomics precisely so `metrics()` never needs the WAL lock.
pub(crate) struct Durability {
    dir: PathBuf,
    policy: FsyncPolicy,
    injector: FaultInjector,
    wal: Mutex<Wal>,
    gen: AtomicU64,
    records: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    checkpoints: AtomicU64,
    last_checkpoint_bytes: AtomicU64,
}

impl Durability {
    /// Initialize a fresh durable directory: checkpoint generation 1 holds
    /// the seed catalog (no views, empty queue, epoch 0), and WAL
    /// generation 1 starts with its [`WalRecord::Checkpoint`] head record.
    /// Every later replay therefore always starts from a checkpoint.
    pub fn bootstrap(
        dir: &Path,
        catalog: &Catalog,
        policy: FsyncPolicy,
        injector: FaultInjector,
    ) -> Result<Durability> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create durable dir", e))?;
        let mut tables = Vec::new();
        for name in catalog.table_names() {
            tables.push((name.to_string(), catalog.table(name)?.as_bag()));
        }
        let data = CheckpointData {
            epoch: 0,
            wal_gen: 1,
            tables,
            views: Vec::new(),
            pending: Vec::new(),
            queue_raw_rows: 0,
            queue_batches: 0,
        };
        let ckpt_bytes = checkpoint::write_checkpoint(dir, &data, &injector)?;
        // No log exists yet (recovery found none), so this creates
        // generation 1, and the head record is counted like any append.
        let d = Durability::open_at(dir, 1, policy, injector)?;
        d.append_durable(
            &WalRecord::Checkpoint {
                epoch: 0,
                wal_gen: 1,
            },
            "bootstrap",
        )?;
        d.checkpoints.store(1, Ordering::Relaxed);
        d.last_checkpoint_bytes.store(ckpt_bytes, Ordering::Relaxed);
        Ok(d)
    }

    /// Attach to an existing directory after recovery: continue appending
    /// to generation `gen` (creating the file if a crash erased it between
    /// checkpoint and log creation). Every counter starts at 0: they count
    /// what this process writes, not what the log already holds.
    pub fn open_at(
        dir: &Path,
        gen: u64,
        policy: FsyncPolicy,
        injector: FaultInjector,
    ) -> Result<Durability> {
        let path = checkpoint::wal_path(dir, gen);
        let mut w = if path.exists() {
            Wal::open_append(&path)?
        } else {
            Wal::create(&path)?
        };
        w.set_fault_injector(injector.clone());
        Ok(Durability {
            dir: dir.to_path_buf(),
            policy,
            injector,
            gen: AtomicU64::new(gen),
            records: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            last_checkpoint_bytes: AtomicU64::new(0),
            wal: Mutex::new(w),
        })
    }

    pub fn current_gen(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }

    /// Append one record to the current log generation.
    pub fn append(&self, record: &WalRecord) -> Result<()> {
        self.append_with(|w| w.append(record))
    }

    /// Run one append against the current generation and count it.
    fn append_with(
        &self,
        append: impl FnOnce(&mut Wal) -> gpivot_storage::Result<()>,
    ) -> Result<()> {
        let mut w = sync::lock(&self.wal);
        let before = w.bytes_written();
        append(&mut w)?;
        self.records.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(w.bytes_written() - before, Ordering::Relaxed);
        Ok(())
    }

    /// Append one record and make it durable per policy: fsynced unless
    /// the policy is [`FsyncPolicy::Never`].
    pub fn append_durable(&self, record: &WalRecord, context: &str) -> Result<()> {
        self.append(record)?;
        if self.policy != FsyncPolicy::Never {
            self.sync(context)?;
        }
        Ok(())
    }

    /// fsync the current log generation.
    fn sync(&self, context: &str) -> Result<()> {
        sync::lock(&self.wal).sync(context)?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Log one producer ingest. Under [`FsyncPolicy::Always`] the record is
    /// also fsynced, so an acknowledged ingest survives any crash; the
    /// caller must not enqueue (or ack) the delta if this fails. The
    /// `IngestDelta` frame is encoded from the borrowed delta — this runs
    /// inside the queue lock, where a clone per ingest would be paid by
    /// every producer.
    pub fn log_ingest(&self, table: &str, delta: &Delta) -> Result<()> {
        self.append_with(|w| w.append_ingest(table, delta))?;
        if self.policy == FsyncPolicy::Always {
            self.sync("ingest")?;
        }
        Ok(())
    }

    /// Log an epoch's commit marker and make it durable per policy. After
    /// this returns `Ok`, recovery is guaranteed to re-apply the epoch
    /// (under `Always`/`OnCommit`; `Never` trades that for speed).
    pub fn log_commit(&self, epoch: u64) -> Result<()> {
        self.append_durable(&WalRecord::EpochCommit { epoch }, "epoch-commit")
    }

    /// Rotate the log: create generation `current + 1` with its
    /// [`WalRecord::Checkpoint`] head record and switch appends to it.
    /// Must be called with the ingest-queue lock held (step 1 of the
    /// checkpoint protocol) so the queue snapshot and the rotation point
    /// agree on what is "before" vs "after" the checkpoint.
    pub fn rotate(&self, epoch: u64) -> Result<u64> {
        let new_gen = self.current_gen() + 1;
        let mut new_wal = Wal::create(checkpoint::wal_path(&self.dir, new_gen))?;
        new_wal.set_fault_injector(self.injector.clone());
        new_wal.append(&WalRecord::Checkpoint {
            epoch,
            wal_gen: new_gen,
        })?;
        if self.policy != FsyncPolicy::Never {
            new_wal.sync("rotate")?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        self.records.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(new_wal.bytes_written(), Ordering::Relaxed);
        *sync::lock(&self.wal) = new_wal;
        self.gen.store(new_gen, Ordering::Release);
        Ok(new_gen)
    }

    /// Write the checkpoint file for `data` (step 2) and prune generations
    /// behind it (step 3, best-effort). Returns the checkpoint size.
    pub fn write_checkpoint_file(&self, data: &CheckpointData) -> Result<u64> {
        let bytes = checkpoint::write_checkpoint(&self.dir, data, &self.injector)?;
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.last_checkpoint_bytes.store(bytes, Ordering::Relaxed);
        checkpoint::prune(&self.dir, data.wal_gen);
        Ok(bytes)
    }

    /// The cumulative WAL and checkpoint counters, as a snapshot that
    /// [`MetricsSnapshot::merge`] folds into the service's.
    pub fn counters(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            wal_records: self.records.load(Ordering::Relaxed),
            wal_bytes: self.bytes.load(Ordering::Relaxed),
            wal_fsyncs: self.fsyncs.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            last_checkpoint_bytes: self.last_checkpoint_bytes.load(Ordering::Relaxed),
            ..MetricsSnapshot::default()
        }
    }
}

/// Everything `ViewService::open` needs from a completed recovery.
pub(crate) struct Recovered {
    pub manager: ViewManager,
    pub queue: IngestQueue,
    pub epoch: u64,
    /// The newest log generation on disk; appends continue here.
    pub gen: u64,
    pub report: RecoveryReport,
}

/// Recover service state from `dir`: latest valid checkpoint + log-tail
/// replay. `Ok(None)` means the directory holds no checkpoint and no log
/// (fresh). A directory with checkpoint or log files of which no
/// checkpoint validates is [`StorageError::Corrupt`], and nothing in it is
/// touched: bootstrapping there would silently drop every acknowledged
/// epoch.
///
/// Recovery runs with a *disabled* fault injector (the caller re-arms the
/// catalog afterwards): replay re-executes already-acknowledged work, so
/// injecting faults into it would only re-litigate decided epochs.
pub(crate) fn recover(
    dir: &Path,
    parser: &PlanParser,
    exec: Executor,
) -> Result<Option<Recovered>> {
    let Some(loaded) = checkpoint::load_latest(dir)? else {
        if !checkpoint::list_wal_gens(dir)?.is_empty() {
            return Err(corrupt("durable directory holds a log but no checkpoint"));
        }
        return Ok(None);
    };
    let ckpt = loaded.data;
    let mut report = RecoveryReport {
        recovered: true,
        checkpoint_epoch: ckpt.epoch,
        corrupt_checkpoints_skipped: loaded.skipped_corrupt,
        ..RecoveryReport::default()
    };

    // Rebuild the catalog; recovery itself never injects faults.
    let mut catalog = Catalog::new();
    for (name, table) in ckpt.tables {
        catalog
            .register(name.clone(), table)
            .map_err(|_| corrupt(format!("checkpoint lists table {name:?} twice")))?;
    }
    let mut manager = ViewManager::new(catalog).with_exec(exec);

    // Views: non-stale snapshots install now (their tables are consistent
    // with the checkpointed base, so replay maintains them incrementally);
    // stale ones (quarantined at checkpoint time) recompute at the end,
    // from the fully-replayed base.
    let mut stale: BTreeMap<String, (String, String)> = BTreeMap::new();
    for vs in ckpt.views {
        if vs.stale {
            stale.insert(vs.name, (vs.definition_sql, vs.strategy));
            continue;
        }
        let plan = parse_plan(parser, &vs.definition_sql, &vs.name)?;
        let strategy = parse_strategy(&vs.strategy)?;
        let (view, used_snapshot) = MaterializedView::from_snapshot(
            vs.name,
            plan,
            strategy,
            vs.table,
            manager.catalog(),
            manager.executor(),
        )?;
        if used_snapshot {
            report.views_recovered += 1;
        } else {
            report.views_recomputed += 1;
        }
        manager.install_view(view);
    }

    let mut queue = IngestQueue::new();
    queue.restore_state(ckpt.pending, ckpt.queue_raw_rows, ckpt.queue_batches);

    // Replay log generations >= the checkpoint's, in order. Only these
    // matter: older generations (left behind by a failed prune) were
    // already folded into the checkpoint.
    let mut epoch = ckpt.epoch;
    let mut held: Option<(SourceDeltas, crate::queue::DrainStats)> = None;
    let gens: Vec<u64> = checkpoint::list_wal_gens(dir)?
        .into_iter()
        .filter(|g| *g >= ckpt.wal_gen)
        .collect();
    for &gen in &gens {
        let path = checkpoint::wal_path(dir, gen);
        let scan = wal::read_wal(&path)?;
        if scan.torn {
            wal::truncate_wal(&path, scan.valid_len)?;
            report.torn_tails_truncated += 1;
        }
        for record in scan.records {
            report.replayed_records += 1;
            match record {
                WalRecord::Checkpoint { .. } => {}
                WalRecord::RegisterView {
                    name,
                    definition_sql,
                    strategy,
                } => {
                    stale.remove(&name);
                    let plan = parse_plan(parser, &definition_sql, &name)?;
                    let strategy = parse_strategy(&strategy)?;
                    let view = MaterializedView::create_with(
                        name,
                        plan,
                        strategy,
                        manager.catalog(),
                        manager.executor(),
                    )?;
                    manager.install_view(view);
                }
                WalRecord::DropView { name } => {
                    stale.remove(&name);
                    let _ = manager.drop_view(&name);
                }
                WalRecord::IngestDelta { table, delta } => {
                    queue.ingest(&table, delta);
                }
                WalRecord::EpochBegin { .. } => {
                    // A Begin while a batch is already held means the
                    // previous epoch's commit marker never became durable
                    // and the epoch was rolled back live: put the batch
                    // back and re-drain, exactly as the live retry did.
                    if let Some((batch, stats)) = held.take() {
                        queue.restore(&batch, stats);
                    }
                    let (batch, stats) = queue.drain();
                    if !batch.is_empty() {
                        held = Some((batch, stats));
                    }
                }
                WalRecord::EpochCommit { epoch: committed } => {
                    if let Some((batch, _)) = held.take() {
                        // The live epoch's own plan → validate → commit,
                        // run sequentially.
                        manager.refresh(&batch)?;
                        report.replayed_epochs += 1;
                    }
                    epoch = epoch.max(committed);
                }
            }
        }
    }
    // A batch drained but never committed belongs to an epoch that never
    // acknowledged: its rows go back to pending, invisible to readers.
    if let Some((batch, stats)) = held.take() {
        queue.restore(&batch, stats);
        report.uncommitted_epochs_dropped += 1;
    }

    // Stale (quarantined-at-checkpoint) views recompute from the replayed
    // base — the durable analogue of `retry_view`'s recompute path.
    for (name, (sql, strategy)) in stale {
        let plan = parse_plan(parser, &sql, &name)?;
        let strategy = parse_strategy(&strategy)?;
        let view = MaterializedView::create_with(
            name,
            plan,
            strategy,
            manager.catalog(),
            manager.executor(),
        )?;
        manager.install_view(view);
        report.views_recomputed += 1;
    }

    report.recovered_epoch = epoch;
    report.pending_rows = queue.pending_rows();
    let gen = gens.last().copied().unwrap_or(ckpt.wal_gen);
    Ok(Some(Recovered {
        manager,
        queue,
        epoch,
        gen,
        report,
    }))
}
