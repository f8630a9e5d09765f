//! The durability layer: write-ahead logging, checkpointing, and crash
//! recovery for [`crate::ViewService`]. This module is the only code that
//! knows the on-disk protocol: it builds every checkpoint image
//! ([`snapshot`]) and every WAL record (the `Durability::log_*` methods);
//! the service holds the locks and decides when each step runs.
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
//!
//! ## The three directory steps
//!
//! **Create** (`Durability::create`) lays down generation 1 in a
//! directory, replacing any gpivot files already there: first
//! `checkpoint-1` (temp-file + fsync + rename), then `wal-1` with its
//! [`WalRecord::Checkpoint`] head record. The order matters: a crash
//! between the two leaves a checkpoint without a log, which recovers; the
//! reverse would leave a log without a checkpoint, which recovery rejects.
//! A fresh `ViewService::open` creates from the seed catalog, and
//! `ViewService::save_to` creates from the live state in another
//! directory.
//!
//! **Checkpoint** rotates, writes, then prunes, so every crash window is
//! safe:
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
//! **Recover** ([`recover`]) loads the newest valid checkpoint and replays
//! the log generations at or after it, as below.
//!
//! The live directory is never created over: `save_to` into the
//! service's own directory runs a checkpoint there instead, because
//! create's pruning would delete the log the service is still appending
//! to, and with it every epoch acknowledged after the save.
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
use gpivot_core::{
    CoreError, MaterializedView, RefreshPlan, Result, SourceDeltas, Strategy, ViewManager,
};
use gpivot_exec::Executor;
use gpivot_storage::checkpoint::{self, CheckpointData, ViewSnapshot};
use gpivot_storage::wal::{self, Wal, WalRecord};
use gpivot_storage::{Catalog, Delta, FaultInjector, FsyncPolicy, StorageError, Table};
use std::collections::{BTreeMap, BTreeSet};
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

/// The checkpoint image of `state` at `epoch`, declaring that replay
/// starts at log generation `wal_gen`. `pending` and `watermarks` are the
/// ingest queue's contents and `(raw rows, batches)` counters, copied by
/// the caller under the queue lock; views named in `stale` (quarantined,
/// so their tables lag the base) are marked for recompute at recovery.
pub(crate) fn snapshot(
    state: &ViewManager,
    pending: Vec<(String, Delta)>,
    (queue_raw_rows, queue_batches): (u64, u64),
    epoch: u64,
    wal_gen: u64,
    stale: &BTreeSet<String>,
) -> Result<CheckpointData> {
    // The writer serializes schema + rows: hand it views that share the
    // rows, not deep copies of every key index.
    let mut tables = Vec::new();
    for name in state.catalog().table_names() {
        tables.push((name.to_string(), state.catalog().table(name)?.as_bag()));
    }
    let views = state
        .views()
        .map(|v| ViewSnapshot {
            name: v.name().to_string(),
            definition_sql: v.definition().to_sql_dialect(),
            strategy: v.strategy().id().to_string(),
            stale: stale.contains(v.name()),
            table: v.table().as_bag(),
        })
        .collect();
    Ok(CheckpointData {
        epoch,
        wal_gen,
        tables,
        views,
        pending,
        queue_raw_rows,
        queue_batches,
    })
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
    /// Lay down generation `data.wal_gen` in `dir`, replacing any gpivot
    /// files already there: first the checkpoint of `data`, then the log
    /// with its [`WalRecord::Checkpoint`] head record, fsynced per
    /// `policy`. Every later replay therefore starts from a checkpoint,
    /// and a crash between the two files leaves one that recovers.
    pub fn create(
        dir: &Path,
        data: &CheckpointData,
        policy: FsyncPolicy,
        injector: FaultInjector,
    ) -> Result<Durability> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create durable dir", e))?;
        // Clear any previous files so stale higher generations can't
        // shadow this one.
        checkpoint::prune(dir, u64::MAX);
        let ckpt_bytes = checkpoint::write_checkpoint(dir, data, &injector)?;
        let wal = Wal::create(checkpoint::wal_path(dir, data.wal_gen))?;
        let d = Durability::attach(dir, data.wal_gen, wal, policy, injector);
        d.append_durable(
            &WalRecord::Checkpoint {
                epoch: data.epoch,
                wal_gen: data.wal_gen,
            },
            "create",
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
        let wal = if path.exists() {
            Wal::open_append(&path)?
        } else {
            Wal::create(&path)?
        };
        Ok(Durability::attach(dir, gen, wal, policy, injector))
    }

    fn attach(
        dir: &Path,
        gen: u64,
        mut wal: Wal,
        policy: FsyncPolicy,
        injector: FaultInjector,
    ) -> Durability {
        wal.set_fault_injector(injector.clone());
        Durability {
            dir: dir.to_path_buf(),
            policy,
            injector,
            gen: AtomicU64::new(gen),
            records: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            last_checkpoint_bytes: AtomicU64::new(0),
            wal: Mutex::new(wal),
        }
    }

    /// True iff `dir` names this handle's directory, however spelled
    /// (both sides are canonicalized; a missing `dir` is never it).
    pub fn owns(&self, dir: &Path) -> bool {
        match (std::fs::canonicalize(dir), std::fs::canonicalize(&self.dir)) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        }
    }

    pub fn current_gen(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }

    /// Append one record to the current log generation.
    fn append(&self, record: &WalRecord) -> Result<()> {
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
    fn append_durable(&self, record: &WalRecord, context: &str) -> Result<()> {
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

    /// Log a view registration (definition as dialect SQL, strategy id)
    /// and make it durable per policy.
    pub fn log_register(&self, view: &MaterializedView) -> Result<()> {
        self.append_durable(
            &WalRecord::RegisterView {
                name: view.name().to_string(),
                definition_sql: view.definition().to_sql_dialect(),
                strategy: view.strategy().id().to_string(),
            },
            "register-view",
        )
    }

    /// Log a view drop and make it durable per policy.
    pub fn log_drop(&self, name: &str) -> Result<()> {
        self.append_durable(
            &WalRecord::DropView {
                name: name.to_string(),
            },
            "drop-view",
        )
    }

    /// Log the boundary of epoch `epoch`: replay drains its simulated
    /// queue here. Not fsynced — the commit marker that follows is.
    pub fn log_begin(&self, epoch: u64) -> Result<()> {
        self.append(&WalRecord::EpochBegin { epoch })
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
    /// Views that lagged the replayed base and failed to recompute from
    /// it, with the error: the service reports them quarantined.
    pub quarantined: Vec<(String, CoreError)>,
}

/// Recover service state from `dir`: latest valid checkpoint + log-tail
/// replay. `Ok(None)` means the directory holds no checkpoint and no log
/// (fresh). A directory with checkpoint or log files of which no
/// checkpoint validates is [`StorageError::Corrupt`], and nothing in it is
/// touched: creating there would silently drop every acknowledged
/// epoch.
///
/// Recovery runs with a *disabled* fault injector (the caller re-arms the
/// catalog afterwards): replay re-executes already-acknowledged work, so
/// injecting faults into it would only re-litigate decided epochs.
pub(crate) fn recover(dir: &Path, parser: &PlanParser) -> Result<Option<Recovered>> {
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
    let mut manager = ViewManager::new(catalog);

    // Every view recovery builds comes through here: from its checkpoint
    // snapshot when there is one (recomputed instead if the snapshot's
    // schema no longer matches), else recomputed from the base tables.
    // Returns whether the snapshot was used.
    let rebuild = |manager: &mut ViewManager,
                   name: String,
                   sql: &str,
                   strategy: &str,
                   snapshot: Option<Table>|
     -> Result<bool> {
        let plan = parser(sql)
            .map_err(|e| corrupt(format!("{name}: persisted view SQL failed to parse: {e}")))?;
        let strategy = Strategy::from_id(strategy)
            .ok_or_else(|| corrupt(format!("unknown persisted strategy id {strategy:?}")))?;
        let (catalog, exec) = (manager.catalog(), &Executor::new());
        let (view, used_snapshot) = match snapshot {
            Some(table) => {
                MaterializedView::from_snapshot(name, plan, strategy, table, catalog, exec)?
            }
            None => (
                MaterializedView::create_with(name, plan, strategy, catalog, exec)?,
                false,
            ),
        };
        manager.install_view(view);
        Ok(used_snapshot)
    };

    // Views: non-stale snapshots install now (their tables are consistent
    // with the checkpointed base, so replay maintains them incrementally);
    // stale ones (quarantined at checkpoint time) are rebuilt at the end,
    // from the fully-replayed base.
    let mut stale: BTreeMap<String, ViewSnapshot> = BTreeMap::new();
    for vs in ckpt.views {
        if vs.stale {
            stale.insert(vs.name.clone(), vs);
        } else if rebuild(
            &mut manager,
            vs.name,
            &vs.definition_sql,
            &vs.strategy,
            Some(vs.table),
        )? {
            report.views_recovered += 1;
        } else {
            report.views_recomputed += 1;
        }
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
                    rebuild(&mut manager, name, &definition_sql, &strategy, None)?;
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
                        replay_epoch(&mut manager, &batch)?;
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

    // Every view whose table lags the replayed base — stale at the
    // checkpoint (installed now, from its snapshot) or left out of a
    // replayed epoch — recomputes from that base, the durable analogue of
    // `retry_view`. One whose recompute fails too keeps the table it had
    // and comes back quarantined.
    let mut lagging: Vec<String> = manager
        .view_names()
        .into_iter()
        .filter(|v| manager.is_lagging(v))
        .map(String::from)
        .collect();
    for (name, vs) in stale {
        let (sql, strategy, table) = (&vs.definition_sql, &vs.strategy, vs.table);
        rebuild(&mut manager, name.clone(), sql, strategy, Some(table))?;
        lagging.push(name);
    }
    let mut quarantined = Vec::new();
    for name in lagging {
        let view = manager.view(&name)?;
        let fresh = MaterializedView::create_with(
            name.as_str(),
            view.definition().clone(),
            view.strategy(),
            manager.catalog(),
            &Executor::new(),
        );
        match fresh {
            Ok(view) => {
                manager.install_view(view);
                report.views_recomputed += 1;
            }
            Err(e) => quarantined.push((name, e)),
        }
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
        quarantined,
    }))
}

/// Commit one logged epoch the way the live service committed it: plan →
/// validate → commit, run sequentially. A view whose plan fails here
/// failed in the live epoch too (replay injects no faults), and the commit
/// marker proves that epoch committed without it: so does this one, and
/// the view lags from here on, out of every later replayed epoch. A base
/// delta that fails validation fails recovery.
fn replay_epoch(manager: &mut ViewManager, batch: &SourceDeltas) -> Result<()> {
    let mut plan = manager.plan_commit(batch)?;
    let views: Vec<&str> = manager
        .affected_views(batch)
        .map(MaterializedView::name)
        .filter(|v| !manager.is_lagging(v))
        .collect();
    for group in manager.refresh_groups(&views) {
        let mut planned: Vec<Option<RefreshPlan>> = Vec::new();
        for &(name, parent) in group.members() {
            // A child whose parent failed plans by its own rule.
            let parent = parent.and_then(|i| planned[i].as_ref());
            planned.push(manager.plan_member(name, batch, parent).ok());
        }
        for (&(name, _), refresh) in group.members().iter().zip(planned) {
            if let Some(refresh) = refresh {
                plan.add_view(name, refresh);
            }
        }
    }
    Ok(manager.commit_epoch(plan)?)
}
