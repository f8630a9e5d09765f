//! One workload, end to end: set up, measure, check, (crash and recover,)
//! and — on a traced run — probe each layer.

use crate::affinity;
use crate::gen::{Call, Generator, Mix, Rng, FINGERPRINT_BATCHES};
use crate::json::Json;
use crate::layers;
use crate::spec::{DeltaSize, Effort, Kind, Spec};
use crate::stats::{median, p95};
use crate::trace::Trace;
use gpivot_algebra::Plan;
use gpivot_core::{CoreError, Strategy};
use gpivot_exec::Executor;
use gpivot_serve::{
    EpochSummary, FsyncPolicy, IngestOptions, MetricsSnapshot, ServeConfig, ShardedService,
    ViewService,
};
use gpivot_sql::{GpivotService, SqlOutcome};
use gpivot_storage::{checkpoint, Catalog, Delta, Table};
use gpivot_tpch::{generate, views, TpchConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    /// Measure until the program has been busy this long …
    pub seconds: f64,
    /// … or, when set, for exactly this many epochs (fixed work: counts
    /// then repeat exactly between runs).
    pub epochs: Option<u64>,
    pub trace: bool,
    pub smoke: bool,
    /// Work directory: the durable service, crash images and probe files
    /// live here. The caller creates it and removes it afterwards.
    pub scratch: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_out: PathBuf,
}

impl RunOptions {
    pub(crate) fn effort(&self) -> Effort {
        Effort::new(self.smoke)
    }
}

#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// What went wrong, one line per failed operation (capped).
    pub failures: Vec<String>,
    pub values: BTreeMap<String, f64>,
    /// Sample count behind each timing.
    pub samples: BTreeMap<String, u64>,
    pub config: Vec<(String, Json)>,
}

impl RunResult {
    pub(crate) fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub(crate) fn op(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 20 {
                    self.failures.push(format!("{what}: {e}"));
                }
                false
            }
        }
    }
}

/// The three paper views under the names the workloads register them by.
pub fn view_defs() -> [(&'static str, Plan); 3] {
    [
        ("v1", views::view1()),
        ("v2", views::view2(views::VIEW2_THRESHOLD)),
        ("v3", views::view3()),
    ]
}

/// The service under test. `ViewService` and `ShardedService` expose the
/// same calls; the single-shard workloads must not pass through the shard
/// tier, so both are held as what they are.
pub(crate) enum Target {
    Single(ViewService),
    Sharded(ShardedService),
}

impl Target {
    fn ingest(&self, table: &str, delta: Delta) -> Result<(), CoreError> {
        // One writer: a blocking ingest at the watermark would wait for an
        // epoch only this thread can run.
        let options = IngestOptions::non_blocking();
        match self {
            Target::Single(s) => s.ingest_with(table, delta, options),
            Target::Sharded(s) => s.ingest_with(table, delta, options),
        }
    }

    fn register_view(&self, name: &str, plan: Plan) -> Result<Strategy, CoreError> {
        match self {
            Target::Single(s) => s.register_view(name, plan),
            Target::Sharded(s) => s.register_view(name, plan),
        }
    }

    fn refresh(&self) -> Result<EpochSummary, CoreError> {
        match self {
            Target::Single(s) => s.refresh_epoch(),
            Target::Sharded(s) => s.refresh_epoch(),
        }
    }

    pub(crate) fn query_view(&self, name: &str) -> Result<Table, CoreError> {
        match self {
            Target::Single(s) => s.query_view(name),
            Target::Sharded(s) => s.query_view(name),
        }
    }

    fn verify_all(&self) -> Result<bool, CoreError> {
        match self {
            Target::Single(s) => s.verify_all(),
            Target::Sharded(s) => s.verify_all(),
        }
    }

    fn epoch(&self) -> u64 {
        match self {
            Target::Single(s) => s.epoch(),
            Target::Sharded(s) => s.epoch(),
        }
    }

    fn pending_rows(&self) -> u64 {
        match self {
            Target::Single(s) => s.pending_rows(),
            Target::Sharded(s) => s.pending_rows(),
        }
    }

    /// Physical-work metrics (summed over shards).
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        match self {
            Target::Single(s) => s.metrics(),
            Target::Sharded(s) => s.metrics(),
        }
    }

    /// Producer-facing metrics: a routed ingest counts once.
    pub(crate) fn producer_metrics(&self) -> MetricsSnapshot {
        match self {
            Target::Single(s) => s.metrics(),
            Target::Sharded(s) => s.root().metrics(),
        }
    }
}

pub(crate) struct Built {
    pub target: Target,
    /// The SQL facade, on the durable workload.
    pub sql: Option<GpivotService>,
    pub dir: Option<PathBuf>,
    /// The generated data before any delta (shares rows with the service).
    pub initial: Catalog,
    pub strategies: Vec<Strategy>,
    pub cfg: ServeConfig,
    pub generate_s: f64,
    pub setup_s: f64,
}

/// Where the run's threads may go. Only `durable_sql` has a second
/// load-generator thread, the SQL reader; there the last CPU this process
/// may use is the reader's and the rest are the writer's and the service's
/// (see `affinity`). Everywhere else every CPU is the service's and nothing
/// is pinned. Refresh workers are one per service CPU, at most two — the
/// issue's `min(nproc, 2)`, less the reader's CPU where there is a reader.
#[derive(Debug, Clone)]
pub(crate) struct Placement {
    service_cpus: Vec<usize>,
    reader_cpu: Option<usize>,
    /// Whether the kernel accepted the writer's pin.
    pinned: bool,
    workers: usize,
}

impl Placement {
    /// Split the allowed CPUs and — when there is a reader to keep apart
    /// and `pin` is on — pin the calling (writer) thread, so that every
    /// thread the service spawns later inherits the pin.
    fn claim(has_reader: bool, pin: bool) -> Placement {
        let cpus = affinity::allowed_cpus();
        let nproc = match cpus.len() {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let (service_cpus, reader_cpu) = match cpus.split_last() {
            Some((&last, rest)) if has_reader && !rest.is_empty() => (rest.to_vec(), Some(last)),
            _ => (cpus, None),
        };
        Placement {
            pinned: pin && reader_cpu.is_some() && affinity::pin_current_thread(&service_cpus),
            workers: (nproc - usize::from(reader_cpu.is_some())).clamp(1, 2),
            service_cpus,
            reader_cpu,
        }
    }
}

fn serve_config(spec: &Spec, place: &Placement) -> Result<ServeConfig, String> {
    let mut b = ServeConfig::builder().workers(place.workers);
    match spec.kind {
        Kind::Memory => {}
        Kind::DurableSql {
            checkpoint_every, ..
        } => {
            b = b
                .wal_fsync(FsyncPolicy::OnCommit)
                .checkpoint_every_epochs(checkpoint_every);
        }
        Kind::Sharded {
            shards,
            heavy_key_threshold,
            ..
        } => b = b.shards(shards).heavy_key_threshold(heavy_key_threshold),
    }
    b.build().map_err(|e| e.to_string())
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))
}

/// Generate the data, construct (or open) the service and register the
/// three views — everything before the first measured epoch.
pub(crate) fn build(spec: &Spec, opts: &RunOptions, place: &Placement) -> Result<Built, String> {
    let cfg = serve_config(spec, place)?;
    let start = Instant::now();
    let initial = generate(&TpchConfig {
        seed: opts.seed,
        ..TpchConfig::scale(spec.scale)
    });
    let generate_s = start.elapsed().as_secs_f64();
    let (target, sql, dir) = match spec.kind {
        Kind::Memory => (
            Target::Single(ViewService::new(initial.clone(), cfg.clone())),
            None,
            None,
        ),
        Kind::Sharded { .. } => (
            Target::Sharded(ShardedService::new(initial.clone(), cfg.clone())),
            None,
            None,
        ),
        Kind::DurableSql { .. } => {
            let dir = opts.scratch.join("service");
            fresh_dir(&dir)?;
            let (svc, _) = GpivotService::open(&dir, initial.clone(), cfg.clone())
                .map_err(|e| e.to_string())?;
            (Target::Sharded(svc.service().clone()), Some(svc), Some(dir))
        }
    };
    let mut strategies = Vec::new();
    for (name, plan) in view_defs() {
        strategies.push(match &sql {
            None => target
                .register_view(name, plan)
                .map_err(|e| e.to_string())?,
            Some(svc) => {
                let ddl = format!(
                    "CREATE MATERIALIZED VIEW {name} AS {}",
                    plan.to_sql_dialect()
                );
                match svc.execute_sql(&ddl).map_err(|e| e.to_string())? {
                    SqlOutcome::ViewCreated { strategy, .. } => strategy,
                    _ => return Err("CREATE MATERIALIZED VIEW did not create a view".into()),
                }
            }
        });
    }
    Ok(Built {
        target,
        sql,
        dir,
        initial,
        strategies,
        cfg,
        generate_s,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

pub(crate) fn generator(spec: &Spec, initial: &Catalog, seed: u64) -> Generator {
    let lineitems = initial.table("lineitem").map_or(0, Table::len) as f64;
    let mix = match spec.delta {
        DeltaSize::ShareOfLineitem(share) => Mix::for_rows(lineitems * share, 0.0),
        DeltaSize::Rows {
            surviving,
            cancelling,
        } => Mix::for_rows(surviving, cancelling),
    };
    let (zipf, cap) = match spec.kind {
        Kind::Memory => (None, None),
        Kind::DurableSql {
            max_rows_per_call, ..
        } => (None, Some(max_rows_per_call)),
        Kind::Sharded { zipf_s, .. } => (Some(zipf_s), None),
    };
    Generator::new(initial, seed, mix, zipf, cap)
}

/// The three statements the SQL reader cycles through, with the view each
/// must be answered from.
pub(crate) fn sql_reads() -> [(String, Option<&'static str>); 3] {
    let defs = view_defs();
    [
        // Exact rewrite hit: the whole of v2.
        (defs[1].1.to_sql_dialect(), Some("v2")),
        // Hit on v3 that needs a residual predicate and a projection.
        (
            format!(
                "SELECT c_custkey, \"1995**sum_price\" AS p95 FROM ({}) sub WHERE c_nationkey > 10",
                defs[2].1.to_sql_dialect()
            ),
            Some("v3"),
        ),
        // Miss: no view holds this; it runs on the base table.
        (
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 100000.0".to_string(),
            None,
        ),
    ]
}

#[derive(Debug, Default)]
struct ReaderLog {
    /// Per statement: (index into `sql_reads`, start, end).
    statements: Vec<(usize, Instant, Instant)>,
    /// Per read round: due time → last statement's rows returned, in ms.
    round_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    failures: Vec<String>,
}

/// The open-loop SQL reader: one read round — the three statements, back
/// to back, as a dashboard would refresh — at seeded exponential gaps of
/// mean `Effort::sql_read_gap_ms`, whatever the service is doing, so a stall
/// delays and is charged to every round queued behind it. The gaps are
/// random because a fixed period close to a multiple of the epoch time
/// samples the same phase of every epoch for a whole run, and a different
/// one the next run.
fn sql_reader(
    svc: &GpivotService,
    seed: u64,
    mean_gap_ms: f64,
    cpu: Option<usize>,
    stop: &AtomicBool,
) -> ReaderLog {
    if let Some(cpu) = cpu {
        affinity::pin_current_thread(&[cpu]);
    }
    let reads = sql_reads();
    let mut rng = Rng::new(seed ^ 0x5EED_7EAD);
    let mut log = ReaderLog::default();
    // The first round is due at once, so even the shortest run has one.
    let mut due = Instant::now();
    loop {
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::SeqCst) && !log.lag_ms.is_empty() {
            break;
        }
        let begun = Instant::now();
        let mut ok = true;
        for (which, (sql, want_view)) in reads.iter().enumerate() {
            let start = Instant::now();
            let outcome = svc.execute_sql(sql);
            let end = Instant::now();
            match outcome {
                Ok(SqlOutcome::Rows { table, used_view }) if used_view.as_deref() == *want_view => {
                    black_box(table.len());
                    log.statements.push((which, start, end));
                }
                other => {
                    ok = false;
                    log.failures.push(match other {
                        Ok(SqlOutcome::Rows { used_view, .. }) => format!(
                            "statement {which} was answered from {used_view:?}, expected {want_view:?}"
                        ),
                        Ok(_) => format!("statement {which} returned no rows"),
                        Err(e) => format!("statement {which}: {e}"),
                    });
                }
            }
        }
        if ok {
            // Charged from the due time: a round that starts late because
            // the one before it overran has waited on the program. How late
            // the reader itself woke is in there too, and is reported
            // beside it as the schedule lag.
            log.round_ms.push(due.elapsed().as_secs_f64() * 1e3);
        }
        log.lag_ms.push((begun - due).as_secs_f64() * 1e3);
        let gap_ms = -(1.0 - rng.unit()).ln() * mean_gap_ms;
        due += Duration::from_secs_f64(gap_ms.min(5.0 * mean_gap_ms) / 1e3);
    }
    log
}

/// One generate → ingest → refresh (→ read) cycle of the writer.
#[derive(Debug, Default)]
pub(crate) struct EpochRec {
    /// The service's epoch number once committed.
    pub service_epoch: u64,
    /// Row-changes (`Delta::total_multiplicity`, before coalescing)
    /// ingested and committed.
    pub rows: u64,
    /// Busy time of the cycle: every call into the program, no think time.
    pub cycle_s: f64,
    pub refresh_ms: f64,
    /// Per ingest batch: its `ingest_with` start → the return of the
    /// `refresh_epoch` that committed it.
    pub visible_ms: Vec<f64>,
    pub traced: bool,
}

/// What the measured phase observed.
#[derive(Debug, Default)]
pub(crate) struct Measured {
    pub log: Vec<EpochRec>,
    pub read_ms: Vec<f64>,
    pub ingest_us: Vec<f64>,
    pub sql_hit_ms: Vec<f64>,
    pub sql_miss_ms: Vec<f64>,
    pub read_lag_ms: Vec<f64>,
    /// WAL generation file and its length when the last `refresh_epoch`
    /// was acknowledged.
    pub acked_wal: Option<(PathBuf, u64)>,
    pub peak_rss_mb: f64,
}

impl Measured {
    pub fn rows(&self) -> u64 {
        self.log.iter().map(|e| e.rows).sum()
    }

    fn busy_s(&self) -> f64 {
        self.log.iter().map(|e| e.cycle_s).sum()
    }

    /// The log cut into blocks of `size` epochs ([`Effort::block_epochs`]);
    /// a trailing partial block is dropped unless it is all there is.
    /// Throughput is taken per block and the median block is reported, so
    /// a burst of interference from outside the program moves one block
    /// and not the result — while anything the program does once per block
    /// (a checkpoint, a read round) is inside every block.
    pub fn blocks(&self, size: usize) -> Vec<&[EpochRec]> {
        let full: Vec<&[EpochRec]> = self.log.chunks_exact(size).collect();
        if full.is_empty() && !self.log.is_empty() {
            vec![&self.log[..]]
        } else {
            full
        }
    }
}

fn visible_ms(epochs: &[EpochRec]) -> Vec<f64> {
    epochs
        .iter()
        .flat_map(|e| e.visible_ms.iter().copied())
        .collect()
}

pub(crate) fn block_rate(block: &[EpochRec]) -> f64 {
    let (rows, secs) = block
        .iter()
        .fold((0.0, 0.0), |(r, s), e| (r + e.rows as f64, s + e.cycle_s));
    rows / secs.max(f64::MIN_POSITIVE)
}

fn wal_position(dir: &Path) -> Option<(PathBuf, u64)> {
    let gen = checkpoint::list_wal_gens(dir).ok()?.into_iter().max()?;
    let path = checkpoint::wal_path(dir, gen);
    let len = std::fs::metadata(&path).ok()?.len();
    Some((path, len))
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Loop<'a> {
    spec: &'a Spec,
    opts: &'a RunOptions,
    place: &'a Placement,
    built: &'a Built,
    gen: &'a mut Generator,
    trace: &'a mut Trace,
    out: &'a mut RunResult,
}

impl Loop<'_> {
    fn finished(&self, m: &Measured) -> bool {
        let enough = match self.opts.epochs {
            Some(n) => m.log.len() as u64 >= n,
            None => m.busy_s() >= self.opts.seconds,
        };
        match self.spec.kind {
            Kind::DurableSql {
                checkpoint_every,
                crash_after,
                ..
            } => enough && self.built.target.epoch() % checkpoint_every == crash_after,
            _ => enough,
        }
    }

    /// One cycle of the closed-loop writer: generate a batch (client think
    /// time, not measured), ingest it, refresh, and on in-memory workloads
    /// read the three views every few rounds.
    fn cycle(&mut self, round: u64, m: &mut Measured) -> EpochRec {
        let built: &Built = self.built;
        let target = &built.target;
        let prev_epoch = target.epoch();
        let calls: Vec<Call> = self.gen.next_batch();
        self.trace.set_epoch(Some(prev_epoch + 1));
        let span = self.trace.open("harness.epoch_cycle");
        let cycle_start = Instant::now();
        let mut rec = EpochRec {
            traced: self.trace.enabled,
            ..EpochRec::default()
        };
        let mut starts = Vec::with_capacity(calls.len());
        for call in calls {
            let rows = call.delta.total_multiplicity();
            let start = Instant::now();
            let result = target.ingest(call.table, call.delta);
            let end = Instant::now();
            self.trace.leaf("serve.ingest_with", start, end);
            m.ingest_us.push((end - start).as_secs_f64() * 1e6);
            if self
                .out
                .op("ingest_with", result.map_err(|e| e.to_string()))
            {
                rec.rows += rows;
                starts.push(start);
            }
        }
        let start = Instant::now();
        let result = target.refresh();
        let end = Instant::now();
        self.trace.leaf("serve.refresh_epoch", start, end);
        let committed = self.out.op(
            "refresh_epoch",
            match result {
                Ok(s) if s.epoch == prev_epoch + 1 => Ok(()),
                Ok(s) => Err(format!("epoch {} after {prev_epoch}", s.epoch)),
                Err(e) => Err(e.to_string()),
            },
        );
        rec.refresh_ms = (end - start).as_secs_f64() * 1e3;
        if committed {
            rec.service_epoch = prev_epoch + 1;
            // A batch whose epoch failed has no visible time: it counts
            // as a failure, not as a fast sample.
            rec.visible_ms = starts
                .iter()
                .map(|s| (end - *s).as_secs_f64() * 1e3)
                .collect();
        } else {
            rec.rows = 0;
        }
        if built.sql.is_none() && round.is_multiple_of(self.opts.effort().read_every_epochs) {
            // One read round: all three views, as a dashboard refreshes.
            let round_start = Instant::now();
            let mut ok = true;
            for (name, _) in view_defs() {
                let start = Instant::now();
                let result = target.query_view(name);
                let end = Instant::now();
                self.trace.leaf("serve.query_view", start, end);
                ok &= self.out.op(
                    "query_view",
                    result
                        .map(|t| drop(black_box(t)))
                        .map_err(|e| e.to_string()),
                );
            }
            if ok {
                m.read_ms.push(round_start.elapsed().as_secs_f64() * 1e3);
            }
        }
        rec.cycle_s = cycle_start.elapsed().as_secs_f64();
        self.trace.close(span);
        if committed {
            if let Some(dir) = &built.dir {
                m.acked_wal = wal_position(dir);
            }
        }
        rec
    }

    /// Untimed blocks before the measured phase.
    fn warm_up(&mut self) {
        self.trace.enabled = false;
        let mut discard = Measured::default();
        let effort = self.opts.effort();
        for round in 1..=(effort.warm_up_blocks * effort.block_epochs) as u64 {
            self.cycle(round, &mut discard);
        }
    }

    fn writer(&mut self) -> Measured {
        let mut m = Measured::default();
        let block_epochs = self.opts.effort().block_epochs;
        while !self.finished(&m) {
            let round = m.log.len() as u64 + 1;
            // A traced run alternates untraced and traced blocks; the gap
            // between their rates is what the tracing itself costs.
            self.trace.enabled = self.opts.trace && (m.log.len() / block_epochs) % 2 == 1;
            let rec = self.cycle(round, &mut m);
            m.log.push(rec);
        }
        self.trace.enabled = true;
        self.trace.set_epoch(None);
        m.peak_rss_mb = peak_rss_mb();
        m
    }

    fn measure(&mut self) -> Measured {
        let Some(sql) = &self.built.sql else {
            return self.writer();
        };
        let stop = &AtomicBool::new(false);
        let seed = self.opts.seed;
        let (mut m, log) = std::thread::scope(|scope| {
            let mean_gap_ms = self.opts.effort().sql_read_gap_ms;
            let cpu = self.place.reader_cpu.filter(|_| self.place.pinned);
            let reader = scope.spawn(move || sql_reader(sql, seed, mean_gap_ms, cpu, stop));
            let m = self.writer();
            stop.store(true, Ordering::SeqCst);
            (m, reader.join().expect("the SQL reader does not panic"))
        });
        m.read_ms = log.round_ms;
        let hits: Vec<bool> = sql_reads().iter().map(|r| r.1.is_some()).collect();
        for (which, start, end) in log.statements {
            self.out.op("execute_sql", Ok(()));
            self.trace.leaf("sql.execute_sql", start, end);
            let own_ms = (end - start).as_secs_f64() * 1e3;
            if hits[which] {
                m.sql_hit_ms.push(own_ms);
            } else {
                m.sql_miss_ms.push(own_ms);
            }
        }
        for failure in log.failures {
            self.out.op("execute_sql", Err(failure));
        }
        m.read_lag_ms = log.lag_ms;
        m
    }
}

/// What the views must hold after the measured phase, computed from the
/// harness's own mirror of the base tables.
pub(crate) struct Expected {
    pub mirror: Catalog,
    /// `None` where executing the definition itself failed.
    pub views: Vec<Option<Table>>,
    /// Wall time of each `Executor::run(definition)` above, in ms.
    pub run_ms: Vec<f64>,
}

/// The correctness gate (untimed): the service's own oracle agrees, the
/// queue is empty, and every view is bag-equal to its definition executed
/// over the mirror.
fn gate(target: &Target, gen: &Generator, trace: &mut Trace, out: &mut RunResult) -> Expected {
    out.op(
        "verify_all",
        match target.verify_all() {
            Ok(true) => Ok(()),
            Ok(false) => Err("a view differs from its recomputation".into()),
            Err(e) => Err(e.to_string()),
        },
    );
    out.op(
        "queue drained",
        match target.pending_rows() {
            0 => Ok(()),
            n => Err(format!("{n} rows still pending")),
        },
    );
    let mirror = gen.mirror_catalog();
    let exec = Executor::new();
    let mut views = Vec::new();
    let mut run_ms = Vec::new();
    for (name, plan) in view_defs() {
        let (expected, ms) = trace.timed("exec.run_columnar", || exec.run(&plan, &mirror));
        run_ms.push(ms);
        let check = match (&expected, target.query_view(name)) {
            (Ok(want), Ok(got)) if got.bag_eq(want) => Ok(()),
            (Ok(want), Ok(got)) => Err(format!(
                "{name} holds {} rows, its definition over the mirror gives {}",
                got.len(),
                want.len()
            )),
            (Err(e), _) => Err(format!("{name}: mirror execution failed: {e}")),
            (_, Err(e)) => Err(format!("{name}: {e}")),
        };
        out.op("view equals definition over mirror", check);
        views.push(expected.ok());
    }
    Expected {
        mirror,
        views,
        run_ms,
    }
}

/// One seed must give one schedule: regenerate the leading batches on a
/// second model and compare fingerprints. (Two `HashMap`s never iterate
/// alike, even in one process, so any dependence on iteration order shows
/// here.)
fn schedule_repeats(
    spec: &Spec,
    built: &Built,
    opts: &RunOptions,
    gen: &Generator,
) -> Result<(), String> {
    let mut again = generator(spec, &built.initial, opts.seed);
    for _ in 0..gen.batches().min(FINGERPRINT_BATCHES) {
        again.next_batch();
    }
    if again.fingerprint() == gen.fingerprint() {
        Ok(())
    } else {
        Err(format!(
            "seed {} gave schedules {:x} and {:x}",
            opts.seed,
            gen.fingerprint(),
            again.fingerprint()
        ))
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fresh_dir(to)?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// What recovery of the crash image showed.
#[derive(Debug, Default)]
pub(crate) struct Recovery {
    pub open_ms: Vec<f64>,
    pub replayed_records: u64,
    /// The crash image, kept for the checkpoint probes.
    pub image: PathBuf,
}

/// Build an honest crash image and recover from it.
///
/// Killing the process would leave the page cache — and so every
/// unflushed write — intact. Instead: submit one more batch that no epoch
/// acknowledges, copy the directory, cut the WAL copy back to its length
/// at the last acknowledged `refresh_epoch`, and reopen that. Each open
/// gets its own copy, so none sees files another has touched.
fn crash_and_recover(
    lp: &mut Loop<'_>,
    measured: &Measured,
    expected: &Expected,
) -> Result<Recovery, String> {
    let dir = lp.built.dir.as_ref().ok_or("not a durable workload")?;
    let (acked_path, acked_len) = measured
        .acked_wal
        .clone()
        .ok_or("no acknowledged epoch to recover to")?;
    let acked_epoch = lp.built.target.epoch();
    // Drawn from a copy of the generator: this batch is never committed,
    // so the model — which the gate's mirror and the layer probes' batches
    // come from — must not advance past it.
    for call in lp.gen.clone().next_batch() {
        let result = lp.built.target.ingest(call.table, call.delta);
        lp.out.op(
            "ingest_with (unacknowledged)",
            result.map_err(|e| e.to_string()),
        );
    }
    let image = lp.opts.scratch.join("crash-image");
    copy_dir(dir, &image)?;
    let wal_copy = image.join(acked_path.file_name().ok_or("wal path has no file name")?);
    let unflushed = std::fs::metadata(&wal_copy)
        .map_err(|e| e.to_string())?
        .len()
        - acked_len;
    if unflushed == 0 {
        return Err("the unacknowledged batch left no WAL bytes to discard".into());
    }
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_copy)
        .and_then(|f| f.set_len(acked_len))
        .map_err(|e| format!("truncate {}: {e}", wal_copy.display()))?;

    let mut rec = Recovery {
        image: image.clone(),
        ..Recovery::default()
    };
    for i in 0..lp.opts.effort().recovery_opens {
        let work = lp.opts.scratch.join(format!("recover-{i}"));
        copy_dir(&image, &work)?;
        let (opened, ms) = lp.trace.timed("serve.open", || {
            GpivotService::open(&work, Catalog::new(), lp.built.cfg.clone())
        });
        let check = match opened {
            Err(e) => Err(e.to_string()),
            Ok((svc, report)) => {
                rec.replayed_records = report.replayed_records;
                let views_match =
                    view_defs()
                        .iter()
                        .zip(&expected.views)
                        .all(|((name, _), want)| {
                            let got = svc.service().query_view(name);
                            matches!((got, want), (Ok(got), Some(want)) if got.bag_eq(want))
                        });
                if !report.recovered {
                    Err("open found nothing to recover".into())
                } else if report.recovered_epoch != acked_epoch {
                    Err(format!(
                        "recovered epoch {}, last acknowledged {acked_epoch}",
                        report.recovered_epoch
                    ))
                } else if report.pending_rows != 0 {
                    Err(format!(
                        "{} unacknowledged rows survived the crash",
                        report.pending_rows
                    ))
                } else if !views_match {
                    Err("a recovered view differs from the mirror".into())
                } else {
                    Ok(())
                }
            }
        };
        if lp.out.op("recovery", check) {
            rec.open_ms.push(ms);
        }
        let _ = std::fs::remove_dir_all(&work);
    }
    Ok(rec)
}

fn config_echo(
    spec: &Spec,
    opts: &RunOptions,
    place: &Placement,
    built: &Built,
    mix: Mix,
) -> Vec<(String, Json)> {
    let cfg = &built.cfg;
    let n = |v: f64| Json::Num(v);
    let rows = |t: &str| n(built.initial.table(t).map_or(0, Table::len) as f64);
    vec![
        ("workload".into(), Json::str(spec.name)),
        ("seed".into(), n(opts.seed as f64)),
        ("seconds".into(), n(opts.seconds)),
        (
            "epochs".into(),
            opts.epochs.map_or(Json::Null, |e| n(e as f64)),
        ),
        ("smoke".into(), Json::Bool(opts.smoke)),
        ("scale".into(), n(spec.scale)),
        (
            "cpus".into(),
            Json::obj([
                (
                    "service",
                    Json::Arr(place.service_cpus.iter().map(|&c| n(c as f64)).collect()),
                ),
                (
                    "sql_reader",
                    place.reader_cpu.map_or(Json::Null, |c| n(c as f64)),
                ),
                ("pinned", Json::Bool(place.pinned)),
            ]),
        ),
        (
            "serve_config".into(),
            Json::obj([
                ("workers", n(cfg.workers() as f64)),
                ("max_pending_rows", n(cfg.max_pending_rows() as f64)),
                ("max_retries", n(f64::from(cfg.max_retries()))),
                ("quarantine_after", n(f64::from(cfg.quarantine_after()))),
                ("exec_threads", n(cfg.exec_threads() as f64)),
                ("exec_columnar", Json::Bool(cfg.exec_columnar())),
                ("wal_fsync", Json::str(cfg.wal_fsync().name())),
                (
                    "checkpoint_every_epochs",
                    n(cfg.checkpoint_every_epochs() as f64),
                ),
                ("shards", n(cfg.sharding().shards as f64)),
                (
                    "heavy_key_threshold",
                    n(cfg.sharding().heavy_key_threshold as f64),
                ),
            ]),
        ),
        (
            "rows".into(),
            Json::obj([
                ("customer", rows("customer")),
                ("orders", rows("orders")),
                ("lineitem", rows("lineitem")),
            ]),
        ),
        (
            "batch".into(),
            Json::obj([
                ("order_turnover", n(mix.order_turnover as f64)),
                ("price_updates", n(mix.price_updates as f64)),
                ("redates", n(mix.redates as f64)),
                ("nation_moves", n(mix.nation_moves as f64)),
                ("transient_orders", n(mix.transient_orders as f64)),
            ]),
        ),
        (
            "strategies".into(),
            Json::Arr(built.strategies.iter().map(|s| Json::str(s.id())).collect()),
        ),
    ]
}

/// Run one workload. `Err` is a harness failure (bad scratch directory,
/// set-up refused); failed operations of the program are counted in the
/// result instead.
pub fn run_workload(spec: &Spec, opts: &RunOptions) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let mut trace = Trace::default();
    let effort = opts.effort();
    let has_reader = matches!(spec.kind, Kind::DurableSql { .. });
    let place = Placement::claim(has_reader, effort.pin_threads);

    // Set up several times and report the median; the last one is used.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..effort.setup_repeats {
        drop(built.take());
        let b = build(spec, opts, &place)?;
        setups.push((b.setup_s, b.generate_s));
        built = Some(b);
    }
    let built = built.expect("at least one set-up");
    let mut gen = generator(spec, &built.initial, opts.seed);
    out.config = config_echo(spec, opts, &place, &built, gen.mix());

    let mut lp = Loop {
        spec,
        opts,
        place: &place,
        built: &built,
        gen: &mut gen,
        trace: &mut trace,
        out: &mut out,
    };
    lp.warm_up();
    let before = built.target.metrics();
    let measured = lp.measure();
    let after = built.target.metrics();

    let expected = gate(&built.target, &*lp.gen, lp.trace, lp.out);
    let repeats_ok = schedule_repeats(spec, &built, opts, &*lp.gen);
    lp.out.op("schedule repeats", repeats_ok);
    let recovery = match spec.kind {
        Kind::DurableSql { .. } => match crash_and_recover(&mut lp, &measured, &expected) {
            Ok(r) => Some(r),
            Err(e) => {
                lp.out.op("crash image", Err(e));
                None
            }
        },
        _ => None,
    };

    // End-to-end metrics: what an operator of the service feels.
    let visible_ms = visible_ms(&measured.log);
    out.set(
        "setup_s",
        median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()),
    );
    let blocks = measured.blocks(effort.block_epochs);
    let block_rates: Vec<f64> = blocks.iter().map(|b| block_rate(b)).collect();
    out.set("visible_rows_per_s", median(&block_rates));
    out.set("visible_ms_p50", median(&visible_ms));
    // Over the whole measured phase, and 0 — not measured — on a run too
    // short to carry a 95th percentile.
    out.set("visible_ms_p95", p95(&visible_ms).unwrap_or(0.0));
    out.set("read_ms_p50", median(&measured.read_ms));
    out.set("peak_rss_mb", measured.peak_rss_mb);
    out.config.push((
        "block_rows_per_s".into(),
        Json::Arr(block_rates.iter().map(|r| Json::Num(r.round())).collect()),
    ));
    for (name, count) in [
        ("epochs", measured.log.len()),
        ("blocks", blocks.len()),
        ("rows", measured.rows() as usize),
        ("visible_ms", visible_ms.len()),
        ("read_ms", measured.read_ms.len()),
        ("setup_s", setups.len()),
    ] {
        out.samples.insert(name.into(), count as u64);
    }

    if opts.trace {
        layers::report(layers::Inputs {
            spec,
            opts,
            built: &built,
            gen: &mut gen,
            trace: &mut trace,
            measured: &measured,
            expected: &expected,
            recovery: recovery.as_ref(),
            before: &before,
            after: &after,
            generate_s: median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()),
            out: &mut out,
        });
        std::fs::write(&opts.trace_out, trace.to_json().render())
            .map_err(|e| format!("write {}: {e}", opts.trace_out.display()))?;
    }
    Ok(out)
}
