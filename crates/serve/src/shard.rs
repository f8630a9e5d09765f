//! Horizontal sharding for the serve tier: a [`ShardedService`] that
//! partitions base tables and views by group-key hash across N shard
//! workers, with skew-aware **heavy-light** key placement.
//!
//! The design leans on the paper's §4.2.3 combinability result: a GPIVOT
//! over disjoint slices of its input can be computed slice-wise and
//! bag-concatenated, provided every slice holds *all* rows of each pivot
//! group. `gpivot-analyze`'s [`shard_safety`] dataflow proves exactly that
//! property for a candidate hash layout — each registered plan is either
//! *proven* shard-safe (GP024) and maintained on every hash shard, or
//! falls back to single-shard maintenance on the root with a GP023 `Info`
//! diagnostic. The service never guesses: an unprovable plan is never
//! sharded.
//!
//! ## Topology
//!
//! One vector of [`ViewService`]s, in this order:
//!
//! * **Root** — full copies of all base tables, host of every
//!   single-shard view, the catalog the SQL frontend falls back to, and
//!   the only backpressure point. An unsharded service is the root alone
//!   (one slice: the trivial case of combinability) and runs the same code.
//! * **Hash shards** `0..N`, when N > 1 — each holds only the rows of a
//!   partitioned table that hash to it ([`gpivot_storage::shard_of`] on
//!   the class's partition column), and replicated tables in full.
//! * **Heavy shard**, only while [`ShardConfig::heavy_key_threshold`] is
//!   set — owner of *promoted* keys: when a key's observed delta-row
//!   frequency crosses the threshold, its rows migrate (as ordinary
//!   maintenance deltas, so every shard view stays incrementally exact)
//!   to the heavy shard regardless of hash. This is the classic
//!   heavy/light split for skewed workloads: one hot key no longer
//!   saturates whichever hash shard it happened to land on.
//!
//! Reads merge: [`ShardedService::snapshot`] captures all shard snapshots
//! under the epoch gate (so they agree on an epoch boundary) and
//! [`ShardSnapshot::query_view`] bag-concatenates the per-shard view
//! tables — key disjointness across shards is re-validated by the keyed
//! table constructor on every merged read.
//!
//! Durability stays single-shard: [`ShardedService::from_single`] wraps a
//! durable root as the whole tier, and its epoch counter continues from
//! the root's, but a multi-shard service refuses to checkpoint (the WAL
//! protocol has no cross-shard commit record yet).

use crate::metrics::{EpochSummary, MetricsSnapshot, ViewHealth};
use crate::service::{IngestOptions, ServeConfig, Snapshot, ViewService};
use crate::sync;
use gpivot_algebra::Plan;
use gpivot_analyze::{shard_safety, DiagCode, Diagnostic, ShardRouting, ShardVerdict, TableRoute};
use gpivot_core::{CoreError, Result, Strategy, ViewManager, ViewOptions};
use gpivot_exec::WorkerPool;
use gpivot_storage::{shard_of, Catalog, Delta, Row, RowMap, RowSet, Table, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Sharding knobs, carried inside [`ServeConfig`] (set them through
/// [`ServeConfig::builder`]'s `shards` / `heavy_key_threshold` setters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of hash shards. `1` (the default) means unsharded: the
    /// service is its root [`ViewService`] alone.
    pub shards: usize,
    /// Cumulative delta-row frequency at which a key is promoted to the
    /// heavy shard. `0` (the default) disables promotion and that shard.
    pub heavy_key_threshold: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            heavy_key_threshold: 0,
        }
    }
}

/// Where one registered view is maintained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewPlacement {
    /// Proven shard-safe and maintained on every shard service under
    /// `routing`; reads bag-merge the shard tables.
    Sharded {
        /// The layout the view was registered under.
        routing: ShardRouting,
        /// Rendered GP024 diagnostic recorded at registration.
        diagnostic: String,
    },
    /// Maintained on the root shard only. `diagnostic` carries the
    /// rendered GP023 `Info` finding when this was a fallback (the plan
    /// was unprovable, or every safe layout conflicted with views already
    /// registered); `None` for an unsharded service.
    Single { diagnostic: Option<String> },
}

impl ViewPlacement {
    /// True iff the view is maintained shard-wise.
    pub fn is_sharded(&self) -> bool {
        matches!(self, ViewPlacement::Sharded { .. })
    }

    /// The GP023/GP024 diagnostic recorded at registration, if any.
    pub fn diagnostic(&self) -> Option<&str> {
        match self {
            ViewPlacement::Sharded { diagnostic, .. } => Some(diagnostic),
            ViewPlacement::Single { diagnostic } => diagnostic.as_deref(),
        }
    }
}

/// A table pinned to a hash layout: rows are placed by
/// `shard_of(row[col_idx], shards)` unless the key is heavy.
#[derive(Debug, Clone)]
struct PartLayout {
    column: String,
    col_idx: usize,
    /// Co-partition class: tables partitioned *together* (their partition
    /// columns were proven join-aligned) share one heavy-key set, so a
    /// promotion moves the matching rows of every member table and keeps
    /// the joins that made the layout safe co-located.
    class: usize,
}

/// Routing state: which tables are partitioned how, and where each view
/// lives. Layouts are sticky — once a table is partitioned it stays so
/// even if the views that required it are dropped (re-replicating would
/// force a cross-shard rebuild for no correctness gain).
#[derive(Debug, Default, Clone)]
struct Router {
    /// Partitioned tables only; absence means replicated everywhere.
    tables: BTreeMap<String, PartLayout>,
    /// Keys promoted to the heavy shard, per co-partition class.
    heavy: Vec<RowSet<Value>>,
    /// Sharded views that read a table *replicated* pin it against later
    /// partitioning (their shard-local results assume full copies).
    replicated_pins: BTreeMap<String, BTreeSet<String>>,
    views: BTreeMap<String, ViewPlacement>,
}

impl Router {
    /// Can `candidate` be installed alongside the current layouts?
    /// Requires: every partitioned table either is new/unpinned or already
    /// partitioned on the same column; every replicated table is not
    /// partitioned; and at most one existing co-partition class is touched
    /// (merging classes would require migrating their heavy sets).
    fn compatible(&self, candidate: &ShardRouting) -> bool {
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        for (table, route) in &candidate.routes {
            match route {
                TableRoute::Partitioned { column } => match self.tables.get(table) {
                    None => {
                        if self
                            .replicated_pins
                            .get(table)
                            .is_some_and(|pins| !pins.is_empty())
                        {
                            return false;
                        }
                    }
                    Some(layout) if layout.column == *column => {
                        touched.insert(layout.class);
                    }
                    Some(_) => return false,
                },
                TableRoute::Replicated => {
                    if self.tables.contains_key(table) {
                        return false;
                    }
                }
            }
        }
        touched.len() <= 1
    }

    /// The single existing class `candidate` extends, if any.
    fn touched_class(&self, candidate: &ShardRouting) -> Option<usize> {
        candidate
            .partitioned()
            .find_map(|(table, _)| self.tables.get(table).map(|l| l.class))
    }

    /// The member tables of co-partition class `class`.
    fn class_tables(&self, class: usize) -> impl Iterator<Item = (&String, &PartLayout)> {
        self.tables.iter().filter(move |(_, l)| l.class == class)
    }

    /// Index of the shard service owning `key` of `class` among
    /// `shards` hash shards: its hash shard, or `shards` (the heavy
    /// shard) once the key is promoted.
    fn owner(&self, class: usize, key: &Value, shards: usize) -> usize {
        if self.heavy[class].contains(key) {
            shards
        } else {
            shard_of(key, shards)
        }
    }
}

struct Inner {
    cfg: ServeConfig,
    /// The root first — a full unsharded copy that hosts single-shard
    /// views, serves as the SQL base-table fallback, and is the sole
    /// backpressure point — then the hash shards, then the heavy shard
    /// while promotion is on. An unsharded service is the root alone.
    services: Vec<ViewService>,
    /// Number of hash shards (`0` when unsharded).
    hash_shards: usize,
    /// Serializes refresh epochs, registrations, and promotions across
    /// shards. Ordered before each shard service's internal locks.
    gate: Mutex<()>,
    /// Read-held by every ingest across its whole fan-out; write-held by
    /// a routing change until its rows have moved
    /// ([`ShardedService::reroute_locked`]).
    router: RwLock<Router>,
    /// Observed delta-row frequency per (class, key), feeding promotion.
    freq: Mutex<RowMap<(usize, Value), u64>>,
    epoch: AtomicU64,
    /// The shard fan-out's `cfg.workers()` threads, separate from every
    /// shard service's own refresh pool so a shard's epoch never queues
    /// behind the tier job that is waiting for it.
    pool: WorkerPool,
}

/// A shard-transparent view-maintenance service: the redesigned serve
/// API. One shard behaves exactly like the wrapped [`ViewService`]; with
/// `N > 1` hash shards, provably shard-safe views are partitioned by
/// group-key hash, refreshed shard-parallel, and merged on read. See the
/// module docs for the topology and safety argument.
#[derive(Clone)]
pub struct ShardedService {
    inner: Arc<Inner>,
}

impl ShardedService {
    /// Build a service over `catalog`. `cfg.sharding.shards == 1` yields
    /// the root alone; `N > 1` also clones the catalog onto N hash shards,
    /// plus a heavy shard when `heavy_key_threshold > 0` (tables start
    /// replicated; they are filtered down to hash slices when the first
    /// shard-safe view needing them registers).
    pub fn new(catalog: Catalog, cfg: ServeConfig) -> Self {
        let sharding = cfg.sharding();
        let hash_shards = Some(sharding.shards).filter(|&n| n > 1).unwrap_or(0);
        let heavy = usize::from(hash_shards > 0 && sharding.heavy_key_threshold > 0);
        // Shard workers get an unbounded watermark: the root already
        // applied backpressure to the producer, and a bounded shard queue
        // could deadlock the routing fan-out against itself.
        let mut worker_cfg = cfg.clone();
        worker_cfg.max_pending_rows = u64::MAX;
        let shards = (0..hash_shards + heavy)
            .map(|_| ViewService::new(catalog.clone(), worker_cfg.clone()))
            .collect();
        Self::assemble(ViewService::new(catalog, cfg), shards, hash_shards)
    }

    /// Wrap an existing (possibly durable, possibly already-populated)
    /// [`ViewService`] as the root of a single-shard service — the bridge
    /// for durable deployments, since durability remains single-shard.
    /// The epoch counter continues from the service's own.
    pub fn from_single(service: ViewService) -> Self {
        Self::assemble(service, Vec::new(), 0)
    }

    /// The one constructor: `root`, then `shards` (hash shards first).
    fn assemble(root: ViewService, shards: Vec<ViewService>, hash_shards: usize) -> Self {
        ShardedService {
            inner: Arc::new(Inner {
                cfg: root.config().clone(),
                pool: WorkerPool::new(root.config().workers()),
                epoch: AtomicU64::new(root.epoch()),
                services: std::iter::once(root).chain(shards).collect(),
                hash_shards,
                gate: Mutex::new(()),
                router: RwLock::new(Router::default()),
                freq: Mutex::new(RowMap::default()),
            }),
        }
    }

    /// Number of hash shards (`1` for an unsharded service).
    pub fn shards(&self) -> usize {
        self.inner.hash_shards.max(1)
    }

    /// True iff this service maintains more than one hash shard.
    pub fn is_sharded(&self) -> bool {
        self.inner.hash_shards > 0
    }

    /// The root shard: full base tables, single-shard views, durability.
    /// Intended for reads (metrics, SQL base fallback); ingest and
    /// refresh should go through the sharded API so shards stay in sync.
    pub fn root(&self) -> &ViewService {
        &self.inner.services[0]
    }

    /// True iff the root shard write-ahead-logs.
    pub fn is_durable(&self) -> bool {
        self.root().is_durable()
    }

    /// Persist the full service state to `dir` — single-shard only. A
    /// multi-shard service refuses: the checkpoint format has no
    /// cross-shard commit record, so a partial save could not be restored
    /// consistently.
    pub fn save_to(&self, dir: impl AsRef<std::path::Path>) -> Result<u64> {
        if self.is_sharded() {
            return Err(CoreError::InvalidConfig {
                field: "shards".into(),
                message: format!(
                    "durable save is single-shard only (this service has {} shards)",
                    self.shards()
                ),
            });
        }
        self.root().save_to(dir)
    }

    /// Write a checkpoint of the durable (single-shard) root and rotate
    /// its log — see [`ViewService::checkpoint`]. Shard workers are never
    /// durable, so on a multi-shard service this fails exactly like the
    /// root's own non-durable checkpoint would.
    pub fn checkpoint(&self) -> Result<u64> {
        self.root().checkpoint()
    }

    /// Every service, root first.
    fn services(&self) -> &[ViewService] {
        &self.inner.services
    }

    /// Shard services hosting sharded views (hash shards, then heavy).
    fn shard_services(&self) -> &[ViewService] {
        &self.inner.services[1..]
    }

    /// Refresh every shard (root included) once, in parallel on the
    /// tier's worker pool. Caller must hold the gate.
    fn refresh_all_locked(&self) -> Result<Vec<EpochSummary>> {
        let results = self
            .inner
            .pool
            .run_slots(self.services().iter().collect(), ViewService::refresh_epoch);
        let mut out = Vec::with_capacity(results.len());
        for (i, slot) in results.into_iter().enumerate() {
            match slot {
                Some(Ok(summary)) => out.push(summary),
                Some(Err(e)) => return Err(e),
                None => {
                    return Err(CoreError::ViewPanic {
                        view: format!("<shard {i}>"),
                        message: "shard refresh worker died without a result".into(),
                    })
                }
            }
        }
        Ok(out)
    }

    /// The one routing-change protocol: a table going replicated →
    /// partitioned, or a key going heavy. Rows must move and deltas must
    /// redirect as one step, because a GPIVOT over hash slices is exact
    /// only while every slice holds *all* rows of each pivot group
    /// (§4.2.3). Under the router **write** lock, held throughout:
    ///
    /// 1. save the router, then `change` it;
    /// 2. flush every shard, so committed state includes every delta
    ///    routed by the old rule;
    /// 3. `rewrite` committed state to match the new rule;
    /// 4. release — restoring the saved router first if step 2 or 3
    ///    failed, so a failed change is no change at all.
    ///
    /// Ingests hold the read lock across their fan-out, so none routes by
    /// the new rule before its rows have moved; one that arrives meanwhile
    /// waits for the flush. `rewrite` must compute everything before its
    /// first write, so that failing leaves committed state untouched.
    /// Caller holds the gate; returns the flush's shard summaries.
    fn reroute_locked(
        &self,
        change: impl FnOnce(&mut Router),
        rewrite: impl FnOnce(&Router) -> Result<()>,
    ) -> Result<Vec<EpochSummary>> {
        let mut router = sync::write(&self.inner.router);
        let saved = router.clone();
        change(&mut router);
        // Held across the refresh pool: its workers only refresh shard
        // services, which never touch the router.
        let result = self
            .refresh_all_locked()
            .and_then(|summaries| rewrite(&router).map(|()| summaries));
        if result.is_err() {
            *router = saved;
        }
        result
    }

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    /// Register a named view with an auto-selected maintenance strategy.
    /// On a sharded service the plan is first proven shard-safe by
    /// [`shard_safety`]; see [`ShardedService::register_view_with`].
    pub fn register_view(&self, name: impl Into<String>, definition: Plan) -> Result<Strategy> {
        self.register_view_with(name, definition, ViewOptions::new())
    }

    /// Register a named view with explicit [`ViewOptions`].
    ///
    /// Sharded placement is chosen here, per the §4.2.3 combinability
    /// proof: the analyzer returns every safe hash layout in preference
    /// order, and the first one compatible with layouts already pinned by
    /// other views wins. Plans the analyzer cannot prove safe — and safe
    /// plans whose every layout conflicts — register on the root shard
    /// instead, recording a GP023 `Info` diagnostic (visible in
    /// [`ShardedService::metrics`] lint warnings and
    /// [`ShardedService::placement`]); they never error for being
    /// unshardable. An unsharded service has no layout to prove: its
    /// views register on the root with no diagnostic.
    pub fn register_view_with(
        &self,
        name: impl Into<String>,
        definition: Plan,
        options: impl Into<ViewOptions>,
    ) -> Result<Strategy> {
        let name = name.into();
        let options = options.into();
        let _gate = sync::lock(&self.inner.gate);
        let verdict = self.is_sharded().then(|| {
            let snap = self.root().snapshot();
            shard_safety(&definition, snap.manager().catalog())
        });
        let chosen = match &verdict {
            Some(ShardVerdict::Safe { candidates }) => {
                let router = sync::read(&self.inner.router);
                candidates.iter().find(|c| router.compatible(c)).cloned()
            }
            _ => None,
        };
        if let Some(routing) = chosen {
            return self.register_sharded_locked(name, definition, options, routing);
        }

        let strategy = self
            .root()
            .register_view_with(name.clone(), definition, options)?;
        let diagnostic = verdict.map(|verdict| match verdict {
            ShardVerdict::Unprovable { .. } => verdict.diagnostic().to_string(),
            ShardVerdict::Safe { .. } => Diagnostic::new(
                DiagCode::Gp023NotShardSafe,
                vec![],
                "plan is shard-safe but every safe layout conflicts with \
                 views already registered; maintained single-shard",
            )
            .to_string(),
        });
        sync::write(&self.inner.router)
            .views
            .insert(name, ViewPlacement::Single { diagnostic });
        Ok(strategy)
    }

    /// Install `routing` (partitioning any tables it needs that are still
    /// replicated) and register the view on every shard service. Caller
    /// holds the gate and has checked compatibility.
    fn register_sharded_locked(
        &self,
        name: String,
        definition: Plan,
        options: ViewOptions,
        routing: ShardRouting,
    ) -> Result<Strategy> {
        // The tables moving replicated → partitioned, with partition
        // columns resolved against the root catalog before any state
        // changes so schema errors abort cleanly.
        let (class, transitions) = {
            let snap = self.root().snapshot();
            let catalog = snap.manager().catalog();
            let router = sync::read(&self.inner.router);
            let class = router.touched_class(&routing).unwrap_or(router.heavy.len());
            let mut transitions = Vec::new();
            for (table, column) in routing.partitioned() {
                if !router.tables.contains_key(table) {
                    let layout = PartLayout {
                        column: column.to_string(),
                        col_idx: catalog.schema(table)?.index_of(column)?,
                        class,
                    };
                    transitions.push((table.to_string(), layout));
                }
            }
            (class, transitions)
        };

        // Publish the layouts, then cut each transitioning table down to
        // every shard's slice of it (heavy keys of an extended class to
        // the heavy shard). The root keeps its full copy.
        if !transitions.is_empty() {
            self.reroute_locked(
                |router| {
                    if class == router.heavy.len() {
                        router.heavy.push(RowSet::default());
                    }
                    router.tables.extend(transitions.iter().cloned());
                },
                |router| self.slice_tables(router, &transitions),
            )?;
        }

        // Register on every shard service (hash shards + heavy); the
        // root does not host sharded views. The lint verdict is
        // deterministic, so a failure on one shard is a failure on all —
        // but unwind partial registrations anyway.
        let shard_services = self.shard_services();
        let mut strategy = None;
        for (i, svc) in shard_services.iter().enumerate() {
            match svc.register_view_with(name.clone(), definition.clone(), options) {
                Ok(s) => strategy = Some(s),
                Err(e) => {
                    for done in &shard_services[..i] {
                        let _ = done.drop_view(&name);
                    }
                    return Err(e);
                }
            }
        }
        let strategy = strategy.ok_or_else(|| CoreError::NotMaintainable(name.clone()))?;

        // Record placement + pins.
        let diagnostic = Diagnostic::new(
            DiagCode::Gp024ShardSafe,
            vec![],
            format!(
                "plan proven shard-safe; sharded {}-way as {}",
                self.inner.hash_shards,
                routing.describe()
            ),
        )
        .to_string();
        let mut router = sync::write(&self.inner.router);
        for (table, route) in &routing.routes {
            if matches!(route, TableRoute::Replicated) {
                router
                    .replicated_pins
                    .entry(table.clone())
                    .or_default()
                    .insert(name.clone());
            }
        }
        router.views.insert(
            name,
            ViewPlacement::Sharded {
                routing,
                diagnostic,
            },
        );
        Ok(strategy)
    }

    /// The publish rewrite: replace each of `tables` on every shard
    /// service with the rows `router` places there. Every slice is built
    /// before the first replacement, so a failure replaces nothing.
    fn slice_tables(&self, router: &Router, tables: &[(String, PartLayout)]) -> Result<()> {
        let shard_count = self.inner.hash_shards;
        let mut slices = Vec::new();
        for (s, svc) in self.shard_services().iter().enumerate() {
            let snap = svc.snapshot();
            for (table, layout) in tables {
                let t = snap.manager().catalog().table(table)?;
                let rows: Vec<Row> = t
                    .rows()
                    .iter()
                    .filter(|r| router.owner(layout.class, &r[layout.col_idx], shard_count) == s)
                    .cloned()
                    .collect();
                slices.push((svc, table, Table::from_rows(t.schema().clone(), rows)?));
            }
        }
        for (svc, table, slice) in slices {
            svc.replace_table(table, slice);
        }
        Ok(())
    }

    /// Drop a view from wherever it is placed.
    pub fn drop_view(&self, name: &str) -> Result<()> {
        let _gate = sync::lock(&self.inner.gate);
        let placement = sync::read(&self.inner.router).views.get(name).cloned();
        match placement {
            Some(ViewPlacement::Sharded { .. }) => {
                for svc in self.shard_services() {
                    svc.drop_view(name)?;
                }
            }
            _ => self.root().drop_view(name)?,
        }
        let mut router = sync::write(&self.inner.router);
        router.views.remove(name);
        for pins in router.replicated_pins.values_mut() {
            pins.remove(name);
        }
        Ok(())
    }

    /// Names of all registered views (sharded and single-shard).
    pub fn view_names(&self) -> Vec<String> {
        let mut names = self.root().view_names();
        if let Some(first) = self.shard_services().first() {
            names.extend(first.view_names());
        }
        names.sort();
        names.dedup();
        names
    }

    /// Where `name` is maintained, if registered through this service.
    pub fn placement(&self, name: &str) -> Option<ViewPlacement> {
        sync::read(&self.inner.router).views.get(name).cloned()
    }

    /// Keys currently promoted to the heavy shard, as
    /// `(table, column, key)` triples (one per co-partitioned member
    /// table). Empty until a key crosses the promotion threshold.
    pub fn heavy_keys(&self) -> Vec<(String, String, Value)> {
        let router = sync::read(&self.inner.router);
        let mut out = Vec::new();
        for (class, heavy) in router.heavy.iter().enumerate() {
            let mut keys: Vec<&Value> = heavy.iter().collect();
            keys.sort();
            for (table, layout) in router.class_tables(class) {
                for key in &keys {
                    out.push((table.clone(), layout.column.clone(), (*key).clone()));
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Ingest
    // ------------------------------------------------------------------

    /// Submit a signed delta batch for one base table, routing it to the
    /// shards that own its rows.
    ///
    /// The root ingests the full delta first under the caller's
    /// [`IngestOptions`] — it is the single backpressure point, and a
    /// rejection there means no shard saw anything. The delta is then
    /// split by the table's partition column (hash slice per shard, heavy
    /// keys to the heavy shard) or broadcast when the table is
    /// replicated; shard queues are unbounded so the fan-out cannot
    /// deadlock. Routing holds the router read lock across the whole
    /// fan-out — that is what makes every routing change exact: a change
    /// holds the write lock until its rows have moved, so no delta routes
    /// by the new rule before then, and none by the old rule after
    /// (the routing-change protocol, `reroute_locked`).
    pub fn ingest_with(&self, table: &str, delta: Delta, options: IngestOptions) -> Result<()> {
        // The root takes the caller's delta; a copy is made only when
        // there is a shard to route it to.
        let routed = self.is_sharded().then(|| delta.clone());
        self.root().ingest_with(table, delta, options)?;
        let Some(delta) = routed.filter(|d| !d.is_empty()) else {
            return Ok(());
        };
        let router = sync::read(&self.inner.router);
        match router.tables.get(table) {
            Some(layout) => {
                let n = self.inner.hash_shards;
                let heavy = &router.heavy[layout.class];
                let parts = delta.partition_by_key(layout.col_idx, n, |key| heavy.contains(key));
                // Without a heavy shard the heavy part is empty, and the
                // zip drops it.
                for (svc, part) in self.shard_services().iter().zip(parts) {
                    if !part.is_empty() {
                        svc.ingest_with(table, part, IngestOptions::blocking())?;
                    }
                }
                if self.inner.cfg.sharding().heavy_key_threshold > 0 {
                    let mut freq = sync::lock(&self.inner.freq);
                    for (row, weight) in delta.iter() {
                        *freq
                            .entry((layout.class, row[layout.col_idx].clone()))
                            .or_insert(0) += weight.unsigned_abs();
                    }
                }
            }
            None => {
                for svc in self.shard_services() {
                    svc.ingest_with(table, delta.clone(), IngestOptions::blocking())?;
                }
            }
        }
        Ok(())
    }

    /// Coalesced rows pending across all shard queues (a routed delta
    /// counts once at the root and once on each shard it reached).
    pub fn pending_rows(&self) -> u64 {
        self.services().iter().map(|s| s.pending_rows()).sum()
    }

    // ------------------------------------------------------------------
    // Refresh
    // ------------------------------------------------------------------

    /// Run one refresh epoch: promote any keys that crossed the heavy
    /// threshold (one routing change, exact under concurrent ingest), then
    /// refresh the root and every shard in parallel on the configured
    /// worker pool and merge the per-shard summaries. A promotion epoch
    /// runs two shard-refresh rounds: the change's flush, and this one,
    /// which commits the promotion's row moves.
    ///
    /// Cross-shard commit is *not* atomic: if one shard's epoch fails,
    /// shards that already committed stay committed, the failed shard
    /// rolls back (its batch re-queued), and the error is returned — a
    /// later successful epoch reconverges, and no delta is ever lost.
    pub fn refresh_epoch(&self) -> Result<EpochSummary> {
        let started = Instant::now();
        let _gate = sync::lock(&self.inner.gate);
        let epochs = || -> Vec<u64> { self.services().iter().map(ViewService::epoch).collect() };
        let before = epochs();
        let refreshed = self.promote_heavy_locked().and_then(|mut summaries| {
            summaries.extend(self.refresh_all_locked()?);
            Ok(summaries)
        });
        // The tier's epoch advances with any service's, even when a later
        // step failed (say, a durable root's in-epoch checkpoint): that
        // service's epoch committed, and the tier must not fall behind it.
        if epochs() != before {
            self.inner.epoch.fetch_add(1, Ordering::SeqCst);
        }
        let summaries = refreshed?;

        let mut out = EpochSummary::default();
        // Each refresh round lists the root first, then the shards.
        let round = self.services().len();
        for (i, s) in summaries.iter().enumerate() {
            out.absorb(s, i % round == 0);
        }
        out.epoch = self.inner.epoch.load(Ordering::SeqCst);
        out.duration = started.elapsed();
        Ok(out)
    }

    /// Promote the keys whose observed delta frequency crossed the
    /// threshold, as one routing change ([`Self::reroute_locked`]): mark
    /// them heavy, flush, then move each key's *committed* rows as a
    /// delete on its hash shard plus an insert on the heavy shard —
    /// ordinary maintenance deltas, so every shard view stays exact. The
    /// moves are queued ahead of any delta routed to the heavy shard
    /// after the lock is released, so they commit first, in the epoch's
    /// own round. A failed change restores the router, and the keys'
    /// counts stay, so the next epoch retries from scratch; once the
    /// change succeeds a key is heavy and never moves again. Caller holds
    /// the gate.
    fn promote_heavy_locked(&self) -> Result<Vec<EpochSummary>> {
        let threshold = self.inner.cfg.sharding().heavy_key_threshold;
        if threshold == 0 {
            return Ok(Vec::new());
        }
        let promoted: BTreeSet<(usize, Value)> = {
            let router = sync::read(&self.inner.router);
            let freq = sync::lock(&self.inner.freq);
            freq.iter()
                .filter(|((class, key), count)| {
                    **count >= threshold && !router.heavy[*class].contains(key)
                })
                .map(|(class_key, _)| class_key.clone())
                .collect()
        };
        if promoted.is_empty() {
            return Ok(Vec::new());
        }
        let summaries = self.reroute_locked(
            |router| {
                for (class, key) in &promoted {
                    router.heavy[*class].insert(key.clone());
                }
            },
            |router| self.move_heavy_rows(router, &promoted),
        )?;
        let mut freq = sync::lock(&self.inner.freq);
        freq.retain(|class_key, _| !promoted.contains(class_key));
        Ok(summaries)
    }

    /// The promotion rewrite: enqueue every promoted key's committed rows
    /// as a delete on its hash shard and an insert on the heavy shard.
    /// Every scan runs before the first enqueue, and the enqueues target
    /// unbounded queues of tables every shard holds. Only partitioned
    /// tables feed promotion, so the heavy shard exists here.
    fn move_heavy_rows(&self, router: &Router, promoted: &BTreeSet<(usize, Value)>) -> Result<()> {
        let n = self.inner.hash_shards;
        let (hash, heavy) = self.shard_services().split_at(n);
        let mut moves = Vec::new();
        for (class, key) in promoted {
            let src = &hash[shard_of(key, n)];
            let snap = src.snapshot();
            for (table, layout) in router.class_tables(*class) {
                let rows: Vec<Row> = snap
                    .manager()
                    .catalog()
                    .table(table)?
                    .rows()
                    .iter()
                    .filter(|r| &r[layout.col_idx] == key)
                    .cloned()
                    .collect();
                if !rows.is_empty() {
                    moves.push((src, table, rows));
                }
            }
        }
        for (src, table, rows) in moves {
            let inserts = Delta::from_inserts(rows.clone());
            heavy[0].ingest_with(table, inserts, IngestOptions::blocking())?;
            src.ingest_with(table, Delta::from_deletes(rows), IngestOptions::blocking())?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// The tier's epoch counter: bumps once per [`refresh_epoch`] call
    /// that did work, starting from the root's epoch (so a recovered
    /// durable root keeps counting).
    ///
    /// [`refresh_epoch`]: ShardedService::refresh_epoch
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// A consistent read snapshot across all shards: per-shard snapshots
    /// are acquired under the epoch gate, so no shard is mid-commit and
    /// all agree on an epoch boundary. A lone root's own snapshot is
    /// already consistent: it takes no gate and reports the root's epoch,
    /// so a reader never waits behind an epoch.
    pub fn snapshot(&self) -> ShardSnapshot<'_> {
        let gate = self.is_sharded().then(|| sync::lock(&self.inner.gate));
        let services: Vec<Snapshot<'_>> = self.services().iter().map(|s| s.snapshot()).collect();
        let epoch = gate.map_or(services[0].epoch(), |_| self.epoch());
        ShardSnapshot {
            services,
            placements: sync::read(&self.inner.router).views.clone(),
            epoch,
        }
    }

    /// The user-facing contents of a view, merged across shards.
    pub fn query_view(&self, name: &str) -> Result<Table> {
        self.snapshot().query_view(name)
    }

    /// A view's fault-tolerance health: for sharded views, the *worst*
    /// health across the shards maintaining it.
    pub fn view_health(&self, name: &str) -> Result<ViewHealth> {
        let sharded = self
            .placement(name)
            .as_ref()
            .is_some_and(ViewPlacement::is_sharded);
        if !sharded {
            return self.root().view_health(name);
        }
        let mut worst = ViewHealth::Healthy;
        for svc in self.shard_services() {
            worst = worst.worse(svc.view_health(name)?);
        }
        Ok(worst)
    }

    /// Verify every view on every shard against a from-scratch recompute
    /// of its definition over that shard's base tables, and that no two
    /// shards hold the same key of a sharded view — the disjointness the
    /// layout proof promises and merge-on-read concatenates on.
    pub fn verify_all(&self) -> Result<bool> {
        for svc in self.services() {
            if !svc.verify_all()? {
                return Ok(false);
            }
        }
        let snap = self.snapshot();
        for (name, _) in snap.placements.iter().filter(|(_, p)| p.is_sharded()) {
            let mut seen: RowSet<Row> = RowSet::default();
            for shard in &snap.services[1..] {
                let table = shard.manager().view(name)?.table();
                let Some(key) = table.schema().key() else {
                    break;
                };
                // Keys are unique within a shard: a repeat is another shard's.
                if !table.iter().all(|row| seen.insert(row.project(key))) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Rolled-up metrics: the root and every shard folded by each
    /// counter's declared roll-up rule (`MetricsSnapshot::merge`: worst
    /// health wins, histograms folded), with each view's GP023/GP024
    /// placement diagnostic appended to its lint warnings. Physical-work
    /// semantics: a routed ingest counts once at the root and once per
    /// shard it reached; use `root().metrics()` for producer-facing
    /// accounting.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut merged = self.root().metrics();
        for svc in self.shard_services() {
            merged.merge(&svc.metrics());
        }
        let router = sync::read(&self.inner.router);
        for (name, placement) in &router.views {
            if let Some(diag) = placement.diagnostic() {
                let entry = merged.per_view.entry(name.clone()).or_default();
                if !entry.lint_warnings.iter().any(|w| w == diag) {
                    entry.lint_warnings.push(diag.to_string());
                }
            }
        }
        merged
    }

    /// Count a SQL `CREATE MATERIALIZED VIEW` registration (root metrics).
    pub fn record_sql_registration(&self) {
        self.root().record_sql_registration();
    }

    /// Count a SQL `SELECT` rewrite outcome (root metrics).
    pub fn record_sql_rewrite(&self, used_view: Option<&str>) {
        self.root().record_sql_rewrite(used_view);
    }
}

/// A consistent cross-shard read snapshot — see
/// [`ShardedService::snapshot`]. Holds one read guard per shard; sharded
/// views merge on [`ShardSnapshot::query_view`], everything else is
/// served from the root.
pub struct ShardSnapshot<'a> {
    /// The root's snapshot first, then each shard's.
    services: Vec<Snapshot<'a>>,
    placements: BTreeMap<String, ViewPlacement>,
    epoch: u64,
}

impl ShardSnapshot<'_> {
    /// The epoch this snapshot observes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The root shard's view manager: full base catalog + executor (the
    /// SQL frontend executes against these).
    pub fn manager(&self) -> &ViewManager {
        self.services[0].manager()
    }

    /// The root's manager, then shard 0's (every shard hosts the same views).
    fn hosts(&self) -> impl Iterator<Item = &ViewManager> {
        self.services.iter().take(2).map(Snapshot::manager)
    }

    /// The user-facing contents of a view: a bag, as an unsharded service
    /// returns. Sharded views concatenate the hash-shard and heavy-shard
    /// results (key-disjoint by the registration-time layout proof, and
    /// re-checked by [`ShardedService::verify_all`]); single-shard views
    /// read from the root.
    pub fn query_view(&self, name: &str) -> Result<Table> {
        let sharded = self
            .placements
            .get(name)
            .is_some_and(ViewPlacement::is_sharded);
        if !sharded {
            return self.services[0].query_view(name);
        }
        let parts = self.services[1..]
            .iter()
            .map(|shard| shard.query_view(name))
            .collect::<Result<Vec<Table>>>()?;
        let mut rows: Vec<Row> = Vec::with_capacity(parts.iter().map(Table::len).sum());
        for part in &parts {
            rows.extend_from_slice(part.rows());
        }
        Ok(Table::bag(parts[0].schema().clone(), rows))
    }

    /// Every registered view as `(name, definition)` pairs — root views
    /// plus sharded views — the input the SQL view-matching rewriter
    /// wants.
    pub fn view_definitions(&self) -> Vec<(String, Plan)> {
        self.hosts()
            .flat_map(ViewManager::views)
            .map(|v| (v.name().to_string(), v.definition().clone()))
            .collect()
    }

    /// Registration-time lint warnings for a view (rendered), wherever it
    /// is placed, including its GP023/GP024 placement diagnostic.
    pub fn view_lint_warnings(&self, name: &str) -> Vec<String> {
        let mut out: Vec<String> = self
            .hosts()
            .find_map(|m| m.view(name).ok())
            .map(|v| v.lint_warnings().iter().map(|d| d.to_string()).collect())
            .unwrap_or_default();
        if let Some(diag) = self
            .placements
            .get(name)
            .and_then(ViewPlacement::diagnostic)
        {
            out.push(diag.to_string());
        }
        out
    }

    /// Where a view is placed, if registered through the sharded API.
    pub fn placement(&self, name: &str) -> Option<&ViewPlacement> {
        self.placements.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_algebra::{AggSpec, PivotSpec, Plan};
    use gpivot_storage::{row, DataType, FaultInjector, FaultSite, Schema};
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

    fn cfg(shards: usize, heavy_threshold: u64) -> ServeConfig {
        ServeConfig::builder()
            .workers(2)
            .exec_threads(1)
            .shards(shards)
            .heavy_key_threshold(heavy_threshold)
            .build()
            .unwrap()
    }

    /// Drive `svc` and an unsharded oracle through the same schedule and
    /// assert the view contents stay bag-equal after every epoch.
    fn assert_tracks_oracle(svc: &ShardedService, schedule: &[Delta]) {
        let oracle = ViewService::new(catalog(), cfg(1, 0));
        oracle.register_view("pv", pivot_plan()).unwrap();
        for delta in schedule {
            svc.ingest_with("facts", delta.clone(), IngestOptions::blocking())
                .unwrap();
            oracle
                .ingest_with("facts", delta.clone(), IngestOptions::blocking())
                .unwrap();
            svc.refresh_epoch().unwrap();
            oracle.refresh_epoch().unwrap();
            let got = svc.query_view("pv").unwrap();
            let want = oracle.query_view("pv").unwrap();
            assert!(
                got.bag_eq(&want),
                "sharded diverged from oracle:\n got: {:?}\nwant: {:?}",
                got.sorted_rows(),
                want.sorted_rows()
            );
        }
        assert!(svc.verify_all().unwrap());
    }

    #[test]
    fn unsharded_service_is_a_passthrough() {
        let svc = ShardedService::new(catalog(), cfg(1, 0));
        assert!(!svc.is_sharded());
        assert_eq!(svc.shards(), 1);
        svc.register_view("pv", pivot_plan()).unwrap();
        assert!(matches!(
            svc.placement("pv"),
            Some(ViewPlacement::Single { diagnostic: None })
        ));
        svc.ingest_with(
            "facts",
            Delta::from_inserts(vec![row![3, "b", 7]]),
            IngestOptions::blocking(),
        )
        .unwrap();
        let s = svc.refresh_epoch().unwrap();
        assert_eq!(s.epoch, 1);
        assert_eq!(svc.epoch(), 1);
        assert_eq!(svc.query_view("pv").unwrap().len(), 3);
        assert!(svc.verify_all().unwrap());
    }

    /// An unsharded tier is the root alone, so its snapshot is consistent
    /// without the tier gate: a reader must not wait behind an epoch.
    #[test]
    fn unsharded_snapshot_does_not_wait_for_the_gate() {
        let svc = ShardedService::new(catalog(), cfg(1, 0));
        svc.register_view("pv", pivot_plan()).unwrap();
        let gate = sync::lock(&svc.inner.gate);
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = svc.clone();
        let handle = std::thread::spawn(move || {
            let snap = reader.snapshot();
            let _ = tx.send((snap.epoch(), snap.query_view("pv").map(|t| t.len())));
        });
        let got = rx.recv_timeout(std::time::Duration::from_secs(5));
        drop(gate);
        handle.join().unwrap();
        assert!(
            matches!(got, Ok((0, Ok(2)))),
            "snapshot blocked on the gate or read wrong: {got:?}"
        );
    }

    /// A heavy shard exists only where a threshold can promote keys into it.
    #[test]
    fn heavy_shard_exists_only_with_a_threshold() {
        for (shards, threshold, services) in [(1, 0, 1), (1, 5, 1), (2, 0, 3), (2, 5, 4)] {
            let svc = ShardedService::new(catalog(), cfg(shards, threshold));
            assert_eq!(
                svc.services().len(),
                services,
                "{shards} shards, threshold {threshold}"
            );
        }
    }

    #[test]
    fn sharded_refresh_matches_unsharded_oracle() {
        let svc = ShardedService::new(catalog(), cfg(3, 0));
        assert!(svc.is_sharded());
        assert_eq!(svc.shards(), 3);
        svc.register_view("pv", pivot_plan()).unwrap();
        let placement = svc.placement("pv").unwrap();
        assert!(placement.is_sharded(), "expected sharded: {placement:?}");
        assert!(placement.diagnostic().unwrap().contains("GP024"));

        let schedule = vec![
            Delta::from_inserts(vec![row![3, "a", 1], row![4, "b", 2], row![5, "a", 3]]),
            Delta::from_deletes(vec![row![1, "b", 20]]),
            Delta::from_inserts(vec![row![6, "b", 4], row![7, "a", 5]]),
            Delta::from_deletes(vec![row![4, "b", 2], row![2, "a", 30]]),
        ];
        assert_tracks_oracle(&svc, &schedule);
    }

    /// Merge-on-read concatenates the shards' rows on the strength of the
    /// layout proof; `verify_all` is where a broken layout shows. Planted
    /// here, not from `tests/sharding.rs`: only a row fed to two shard
    /// services directly, past the router, lands on both — each then
    /// agrees with its own recompute, and only the cross-shard check fails.
    #[test]
    fn a_view_key_held_by_two_shards_fails_verify_all() {
        let svc = ShardedService::new(catalog(), cfg(2, 0));
        svc.register_view("pv", pivot_plan()).unwrap();
        assert!(svc.verify_all().unwrap());
        for shard in svc.shard_services() {
            let stray = Delta::from_inserts(vec![row![9, "a", 1]]);
            shard
                .ingest_with("facts", stray, IngestOptions::blocking())
                .unwrap();
            shard.refresh_epoch().unwrap();
            assert!(shard.verify_all().unwrap());
        }
        assert_eq!(svc.query_view("pv").unwrap().len(), 4, "key 9 twice");
        assert!(!svc.verify_all().unwrap());
    }

    #[test]
    fn heavy_key_promotion_keeps_results_exact() {
        // Threshold 3: key 1 crosses it after two delete+insert rounds.
        let svc = ShardedService::new(catalog(), cfg(2, 3));
        svc.register_view("pv", pivot_plan()).unwrap();
        let mut schedule = vec![Delta::from_inserts(vec![row![8, "a", 1]])];
        let mut prev = 10;
        for next in [11, 12, 13, 14] {
            let mut d = Delta::from_deletes(vec![row![1, "a", prev]]);
            d.merge(&Delta::from_inserts(vec![row![1, "a", next]]));
            schedule.push(d);
            prev = next;
        }
        assert_tracks_oracle(&svc, &schedule);
        let heavy = svc.heavy_keys();
        assert!(
            heavy
                .iter()
                .any(|(t, c, v)| t == "facts" && c == "id" && *v == Value::Int(1)),
            "key 1 should be heavy: {heavy:?}"
        );
    }

    /// Demotion readiness: once a key is promoted it must never
    /// *silently* re-route back to a hash shard — its rows stay on the
    /// heavy shard across later ingests and epochs, and `heavy_keys()`
    /// keeps reporting it. When demotion arrives it has to be the routing
    /// change run in reverse (`reroute_locked`: unmark → flush → move
    /// back), not a side effect of the frequency map being cleared after
    /// promotion.
    #[test]
    fn promoted_key_never_silently_reroutes() {
        let svc = ShardedService::new(catalog(), cfg(2, 3));
        svc.register_view("pv", pivot_plan()).unwrap();

        // Rows of key 1 currently committed on one shard service.
        let key_rows = |s: &ViewService| -> usize {
            let snap = s.snapshot();
            snap.manager()
                .catalog()
                .table("facts")
                .unwrap()
                .rows()
                .iter()
                .filter(|r| r[0] == Value::Int(1))
                .count()
        };
        let assert_heavy_owns_key = |when: &str| {
            let (hash, heavy) = svc.shard_services().split_at(2);
            for (j, w) in hash.iter().enumerate() {
                assert_eq!(
                    key_rows(w),
                    0,
                    "{when}: hash shard {j} still owns rows of the promoted key"
                );
            }
            assert!(
                key_rows(&heavy[0]) > 0,
                "{when}: heavy shard lost the promoted key's rows"
            );
            assert!(
                svc.heavy_keys()
                    .iter()
                    .any(|(t, c, v)| t == "facts" && c == "id" && *v == Value::Int(1)),
                "{when}: heavy_keys() no longer reports the promoted key"
            );
        };

        // One oracle persists across both phases (a fresh one could not
        // replay the later update rounds from base state).
        let oracle = ViewService::new(catalog(), cfg(1, 0));
        oracle.register_view("pv", pivot_plan()).unwrap();
        let drive = |schedule: &[Delta]| {
            for delta in schedule {
                svc.ingest_with("facts", delta.clone(), IngestOptions::blocking())
                    .unwrap();
                oracle
                    .ingest_with("facts", delta.clone(), IngestOptions::blocking())
                    .unwrap();
                svc.refresh_epoch().unwrap();
                oracle.refresh_epoch().unwrap();
                let got = svc.query_view("pv").unwrap();
                let want = oracle.query_view("pv").unwrap();
                assert!(
                    got.bag_eq(&want),
                    "sharded diverged from oracle:\n got: {:?}\nwant: {:?}",
                    got.sorted_rows(),
                    want.sorted_rows()
                );
            }
            assert!(svc.verify_all().unwrap());
        };

        // Drive key 1 over the threshold (update rounds, as the promotion
        // test does), tracking the oracle throughout.
        let mut schedule = Vec::new();
        let mut prev = 10;
        for next in [11, 12, 13] {
            let mut d = Delta::from_deletes(vec![row![1, "a", prev]]);
            d.merge(&Delta::from_inserts(vec![row![1, "a", next]]));
            schedule.push(d);
            prev = next;
        }
        drive(&schedule);
        assert_heavy_owns_key("after promotion");

        // The freq entry for the promoted key was cleared on promotion; a
        // fresh burst of updates re-counts it from zero. Routing must
        // come from the router's heavy set, not the frequency map.
        let mut after = Vec::new();
        for next in [14, 15, 16] {
            let mut d = Delta::from_deletes(vec![row![1, "a", prev]]);
            d.merge(&Delta::from_inserts(vec![row![1, "a", next]]));
            after.push(d);
            prev = next;
        }
        // And an unrelated light key keeps the hash shards busy.
        after.push(Delta::from_inserts(vec![row![9, "b", 1]]));
        drive(&after);
        assert_heavy_owns_key("after post-promotion ingests");
    }

    /// A registration whose flush fails must publish nothing: were the
    /// layout left recorded while every shard still held a full replica,
    /// the next registration would find no transition to slice, and a
    /// merged read would hold every key once per shard.
    #[test]
    fn failed_registration_flush_leaves_no_layout_published() {
        let injector = FaultInjector::seeded(7).with_site(FaultSite::Commit, 1.0, 0.0);
        injector.disarm();
        let mut cat = catalog();
        cat.set_fault_injector(injector.clone());
        let svc = ShardedService::new(cat, cfg(2, 0));
        let oracle = ViewService::new(catalog(), cfg(1, 0));
        let ingest = |rows: Vec<Row>| {
            let delta = Delta::from_inserts(rows);
            svc.ingest_with("facts", delta.clone(), IngestOptions::blocking())
                .unwrap();
            oracle
                .ingest_with("facts", delta, IngestOptions::blocking())
                .unwrap();
        };

        // Queued rows make the registration's flush a real epoch.
        ingest(vec![row![3, "a", 1], row![4, "b", 2]]);
        injector.arm();
        assert!(svc.register_view("pv", pivot_plan()).is_err());

        injector.disarm();
        svc.register_view("pv", pivot_plan()).unwrap();
        oracle.register_view("pv", pivot_plan()).unwrap();
        ingest(vec![row![5, "a", 3]]);
        svc.refresh_epoch().unwrap();
        oracle.refresh_epoch().unwrap();
        assert!(svc.verify_all().unwrap());
        let got = svc.query_view("pv").unwrap();
        let want = oracle.query_view("pv").unwrap();
        assert!(
            got.bag_eq(&want),
            "sharded diverged from oracle:\n got: {:?}\nwant: {:?}",
            got.sorted_rows(),
            want.sorted_rows()
        );
    }

    #[test]
    fn conflicting_layout_falls_back_to_single_shard() {
        let svc = ShardedService::new(catalog(), cfg(2, 0));
        // Pins facts to the `id` layout.
        svc.register_view("pv", pivot_plan()).unwrap();
        assert!(svc.placement("pv").unwrap().is_sharded());
        // Safe only when facts is partitioned by `attr` — conflicts.
        let by_attr = Plan::scan("facts").group_by(&["attr"], vec![AggSpec::sum("val", "total")]);
        svc.register_view("by_attr", by_attr).unwrap();
        let placement = svc.placement("by_attr").unwrap();
        assert!(!placement.is_sharded(), "conflict must fall back");
        assert!(placement.diagnostic().unwrap().contains("GP023"));
        // The fallback view still refreshes and serves from the root.
        svc.ingest_with(
            "facts",
            Delta::from_inserts(vec![row![9, "a", 5]]),
            IngestOptions::blocking(),
        )
        .unwrap();
        svc.refresh_epoch().unwrap();
        assert_eq!(svc.query_view("by_attr").unwrap().len(), 2);
        assert!(svc.verify_all().unwrap());
        // The placement diagnostics surface through metrics lint warnings.
        let m = svc.metrics();
        assert!(m.per_view["by_attr"]
            .lint_warnings
            .iter()
            .any(|w| w.contains("GP023")));
        assert!(m.per_view["pv"]
            .lint_warnings
            .iter()
            .any(|w| w.contains("GP024")));
    }

    #[test]
    fn unprovable_plan_falls_back_to_single_shard() {
        let svc = ShardedService::new(catalog(), cfg(2, 0));
        // A global aggregate has no group key to partition on.
        let global = Plan::scan("facts").group_by(&[], vec![AggSpec::sum("val", "total")]);
        svc.register_view("total", global).unwrap();
        let placement = svc.placement("total").unwrap();
        assert!(!placement.is_sharded());
        assert!(placement.diagnostic().unwrap().contains("GP023"));
        svc.ingest_with(
            "facts",
            Delta::from_inserts(vec![row![9, "b", 5]]),
            IngestOptions::blocking(),
        )
        .unwrap();
        svc.refresh_epoch().unwrap();
        assert_eq!(svc.query_view("total").unwrap().len(), 1);
    }

    #[test]
    fn sharded_save_is_refused() {
        let svc = ShardedService::new(catalog(), cfg(2, 0));
        let err = svc.save_to("/tmp/should-not-be-created").unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
    }

    #[test]
    fn drop_view_removes_from_all_shards() {
        let svc = ShardedService::new(catalog(), cfg(2, 0));
        svc.register_view("pv", pivot_plan()).unwrap();
        assert_eq!(svc.view_names(), vec!["pv".to_string()]);
        svc.drop_view("pv").unwrap();
        assert!(svc.view_names().is_empty());
        assert!(svc.placement("pv").is_none());
        assert!(svc.query_view("pv").is_err());
    }

    #[test]
    fn worse_health_orders_states() {
        let q = ViewHealth::Quarantined {
            since_epoch: 1,
            reason: "r".into(),
        };
        let d = ViewHealth::Degraded {
            consecutive_failures: 2,
        };
        assert_eq!(ViewHealth::Healthy.worse(q.clone()), q);
        assert_eq!(d.clone().worse(ViewHealth::Healthy), d);
        assert_eq!(
            d.worse(ViewHealth::Degraded {
                consecutive_failures: 5
            }),
            ViewHealth::Degraded {
                consecutive_failures: 5
            }
        );
    }

    /// `metrics()` folds the root and every shard by the declaration
    /// table: each declared scalar is the sum of the services' values, or
    /// their max where its rule says so; a view's health is its worst
    /// shard's; a lint warning every shard recorded appears once.
    #[test]
    fn metrics_roll_up_follows_the_declaration_table() {
        use crate::metrics::{Num, SCALARS};
        let injector = FaultInjector::seeded(7).with_site(FaultSite::Propagate, 1.0, 0.0);
        injector.disarm();
        let mut cat = catalog();
        cat.set_fault_injector(injector.clone());
        let svc = ShardedService::new(cat, cfg(2, 0));
        // A null-tolerant selection over a pivoted cell: shard-safe, and
        // linted GP011 on every shard.
        let cell =
            gpivot_algebra::Expr::col(gpivot_algebra::encode_pivot_col(&[Value::str("a")], "val"));
        let plan = pivot_plan().select(gpivot_algebra::Expr::IsNull(Box::new(cell)));
        svc.register_view("pv", plan).unwrap();
        assert!(svc.placement("pv").unwrap().is_sharded());
        svc.ingest_with(
            "facts",
            Delta::from_inserts(vec![row![3, "a", 7], row![4, "b", 8]]),
            IngestOptions::blocking(),
        )
        .unwrap();
        svc.refresh_epoch().unwrap();
        svc.record_sql_rewrite(Some("pv"));
        // One shard fails an epoch on its own: only it degrades.
        let failing = &svc.shard_services()[0];
        failing
            .ingest_with(
                "facts",
                Delta::from_inserts(vec![row![9, "a", 1]]),
                IngestOptions::blocking(),
            )
            .unwrap();
        injector.arm();
        assert!(failing.refresh_epoch().is_err());
        injector.disarm();

        // `lock_poisoned` is process-wide; read while no other test bumps it.
        let (parts, rolled) = loop {
            let before = sync::poisoned_total();
            let parts: Vec<MetricsSnapshot> = svc.services().iter().map(|s| s.metrics()).collect();
            let rolled = svc.metrics();
            if sync::poisoned_total() == before {
                break (parts, rolled);
            }
        };
        let values: Vec<Vec<Num>> = parts.iter().map(MetricsSnapshot::scalars).collect();
        for (i, (scalar, got)) in SCALARS.iter().zip(rolled.scalars()).enumerate() {
            let want = values.iter().map(|v| v[i]).reduce(|a, b| match (a, b) {
                (Num::Count(a), Num::Count(b)) => Num::Count(scalar.rollup.apply(a, b)),
                (Num::Time(a), Num::Time(b)) => Num::Time(scalar.rollup.apply(a, b)),
                _ => unreachable!("{} changed type", scalar.field),
            });
            assert_eq!(
                Some(got),
                want,
                "{} is not its parts' roll-up",
                scalar.field
            );
        }

        let health: Vec<ViewHealth> = parts
            .iter()
            .filter_map(|p| p.per_view.get("pv").map(|v| v.health.clone()))
            .collect();
        assert!(health.contains(&ViewHealth::Healthy));
        let degraded = ViewHealth::Degraded {
            consecutive_failures: 1,
        };
        assert!(health.contains(&degraded));
        assert_eq!(rolled.per_view["pv"].health, degraded);
        assert_eq!(svc.view_health("pv").unwrap(), degraded);

        let warnings = &rolled.per_view["pv"].lint_warnings;
        let gp011 = warnings.iter().filter(|w| w.contains("GP011")).count();
        assert_eq!(gp011, 1, "{warnings:?}");
        let gp024 = warnings.iter().filter(|w| w.contains("GP024")).count();
        assert_eq!(gp024, 1, "{warnings:?}");
    }
}
