//! Deterministic schedule exploration for the serve tier's concurrency
//! protocols (DESIGN.md §"Concurrency analysis").
//!
//! Each suite models one protocol as a set of logical threads taking
//! *atomic steps* — the granularity a lock-protected critical section
//! really has — and drives every interleaving of those steps through
//! [`shuttle::explore`]. The spaces are small-scope by design (tens to
//! low thousands of schedules), so exploration is exhaustive: a passing
//! suite means *no* interleaving of those steps violates the invariant,
//! not just the ones a racy test happened to hit. A failing schedule
//! panics with a `SHUTTLE_NAME=… SHUTTLE_SCHEDULE=…` reproducer that
//! replays exactly one interleaving.
//!
//! Suite 1 runs against the real [`IngestQueue`]; suite 2 models the
//! epoch's plan/commit protocol against readers, suites 3 and 4
//! model the sharded router/promotion protocols (the real ones fan out
//! through whole `ViewService` instances, too heavy for thousands of
//! replays) with the same step structure as `shard.rs`. The
//! deliberately-broken variants assert the explorer *finds* a known bug
//! and that the reported schedule replays it — the analogue of the
//! injected-cycle fixture in `gpivot-concurrency`.
//!
//! Under `--features shuttle` the `sched_*` tests additionally run the
//! *real* service types on real threads under the cooperative token
//! scheduler (the `sync` helpers yield through `shuttle::sched`),
//! sweeping seeds; failures print a `SHUTTLE_SEED=…` reproducer.

use crate::queue::IngestQueue;
use gpivot_storage::{row, Delta, Row};
use shuttle::{explore, ExploreConfig, ExploreReport};
use std::collections::HashMap;

fn cfg() -> ExploreConfig {
    ExploreConfig::default()
}

fn print_report(r: &ExploreReport) {
    println!("{r}");
}

// ---------------------------------------------------------------------
// Suite 1: ingest vs refresh on the real IngestQueue
// ---------------------------------------------------------------------

/// Producer ingests (with cancellation) racing one failing and one
/// succeeding epoch. Checks after *every* step that the coalesced
/// watermark never exceeds raw submissions and that
/// `raw == submitted − drained(net)` counts every producer row exactly
/// once; at quiescence the committed multiset must equal the ingested one.
#[test]
fn queue_ingest_vs_refresh_is_exact_under_all_interleavings() {
    // Producer steps (signed deltas; step 2 cancels step 1's row 1, step 4
    // cancels step 1's row 2 — possibly across a drain/restore boundary).
    let producer: Vec<Delta> = vec![
        Delta::from_inserts(vec![row![1], row![2]]),
        Delta::from_deletes(vec![row![1]]),
        Delta::from_inserts(vec![row![3]]),
        Delta::from_deletes(vec![row![2]]),
    ];
    let counts = [producer.len(), 4];
    let report = explore("queue-ingest-vs-refresh", &cfg(), &counts, |schedule| {
        let mut q = IngestQueue::new();
        let mut model: HashMap<Row, i64> = HashMap::new(); // ingested net
        let mut committed: HashMap<Row, i64> = HashMap::new();
        let mut submitted: u64 = 0;
        let mut in_flight = None; // drained but not yet committed/restored
        let mut committed_raw: u64 = 0;
        let mut p_step = 0;
        let mut r_step = 0;
        for &t in schedule {
            match t {
                0 => {
                    let d = producer[p_step].clone();
                    p_step += 1;
                    submitted += d.total_multiplicity();
                    for (r, w) in d.iter() {
                        *model.entry(r.clone()).or_default() += w;
                    }
                    q.ingest("t", d);
                }
                _ => {
                    match r_step {
                        0 | 2 => in_flight = Some(q.drain()),
                        1 => {
                            // Epoch failed: roll the drained batch back.
                            if let Some((batch, stats)) = in_flight.take() {
                                q.restore(&batch, stats);
                            }
                        }
                        _ => {
                            // Epoch committed.
                            if let Some((batch, stats)) = in_flight.take() {
                                for table in batch.tables() {
                                    if let Some(d) = batch.delta(table) {
                                        for (r, w) in d.iter() {
                                            *committed.entry(r.clone()).or_default() += w;
                                        }
                                    }
                                }
                                committed_raw += stats.raw_rows;
                            }
                        }
                    }
                    r_step += 1;
                }
            }
            let in_flight_raw = in_flight.as_ref().map_or(0, |(_, s)| s.raw_rows);
            let (raw, _) = q.watermarks();
            if q.pending_rows() > raw {
                return Err(format!(
                    "watermark invariant broken: pending {} > raw {raw}",
                    q.pending_rows()
                ));
            }
            if raw != submitted - in_flight_raw - committed_raw {
                return Err(format!(
                    "row conservation broken: raw {raw} != submitted {submitted} \
                     − in-flight {in_flight_raw} − committed {committed_raw}"
                ));
            }
        }
        // Quiesce: commit whatever is left, then compare multisets.
        let (batch, _) = q.drain();
        for table in batch.tables() {
            if let Some(d) = batch.delta(table) {
                for (r, w) in d.iter() {
                    *committed.entry(r.clone()).or_default() += w;
                }
            }
        }
        for (r, want) in &model {
            let got = committed.get(r).copied().unwrap_or(0);
            if got != *want {
                return Err(format!("row {r:?}: committed {got}, ingested {want}"));
            }
        }
        Ok(())
    });
    print_report(&report);
    assert!(report.exhaustive, "space must be explored exhaustively");
    assert_eq!(report.explored as u128, report.total_space);
    assert_eq!(report.total_space, 70); // C(8,4)
    report.assert_ok();
}

// ---------------------------------------------------------------------
// Suite 2: plan/commit vs readers in the view registry
// ---------------------------------------------------------------------

/// What is wrong with the modelled epoch protocol, if anything.
#[derive(Clone, Copy, PartialEq)]
enum Bug {
    None,
    /// The patch is written into live state while *planning* — before the
    /// commit point, where a reader (or a rollback) still expects the old
    /// epoch. Planning must only read.
    MutateAtPlan,
    /// The commit's in-place writes happen without one registry write lock
    /// spanning them, so a reader can run between the base-table write and
    /// the view write.
    UnlockedCommit,
}

/// The epoch protocol `ViewService::refresh_epoch` follows: drain, *plan*
/// off to the side (the patch is a value; nothing live is written), then
/// *commit* in place — the base tables, then the views. The commit is
/// several writes to live state; it is one step to readers only because
/// the registry write lock is held across all of them, which the model
/// states by making the commit a single atomic step.
struct EpochModel {
    queue: Vec<i64>,
    /// Committed base-table state (the sum of committed ingests)…
    base: i64,
    /// …and the view over it, which must always equal it.
    view: i64,
    planned: Option<i64>,
    epoch: u64,
    /// Committed value per epoch — what a consistent reader may observe.
    history: Vec<i64>,
    bug: Bug,
}

impl EpochModel {
    fn new(bug: Bug) -> Self {
        EpochModel {
            queue: Vec::new(),
            base: 0,
            view: 0,
            planned: None,
            epoch: 0,
            history: vec![0],
            bug,
        }
    }

    /// Epoch-thread steps per epoch: plan, commit — or, with the lock
    /// missing, plan, commit-base, commit-views.
    fn steps_per_epoch(bug: Bug) -> usize {
        if bug == Bug::UnlockedCommit {
            3
        } else {
            2
        }
    }

    fn step_epoch(&mut self, phase: usize) {
        match (phase, self.bug) {
            (0, bug) => {
                let batch: i64 = self.queue.drain(..).sum();
                if bug == Bug::MutateAtPlan {
                    self.base += batch;
                    self.view += batch;
                }
                self.planned = Some(batch);
            }
            (1, Bug::UnlockedCommit) => self.base += self.planned.unwrap_or(0),
            (_, bug) => {
                let Some(batch) = self.planned.take() else {
                    return;
                };
                match bug {
                    Bug::None => {
                        self.base += batch;
                        self.view += batch;
                    }
                    Bug::MutateAtPlan => {}
                    Bug::UnlockedCommit => self.view += batch,
                }
                self.epoch += 1;
                self.history.push(self.view);
            }
        }
    }

    fn read(&self) -> Result<(), String> {
        let want = self.history[self.epoch as usize];
        if self.base != self.view {
            return Err(format!(
                "reader saw base {} under view {} at epoch {}: torn commit",
                self.base, self.view, self.epoch
            ));
        }
        if self.view != want {
            return Err(format!(
                "reader saw epoch {} with value {} (expected {want}): \
                 planned state leaked before commit",
                self.epoch, self.view
            ));
        }
        Ok(())
    }
}

/// Thread 0 runs two epochs, thread 1 three ingests, thread 2 three reads.
fn epoch_model_counts(bug: Bug) -> [usize; 3] {
    [2 * EpochModel::steps_per_epoch(bug), 3, 3]
}

fn run_epoch_model(schedule: &[usize], bug: Bug) -> Result<(), String> {
    let mut m = EpochModel::new(bug);
    let ingests = [3i64, 5, 7];
    let mut phase = 0usize;
    let mut p = 0usize;
    for &t in schedule {
        match t {
            0 => {
                m.step_epoch(phase % EpochModel::steps_per_epoch(bug));
                phase += 1;
            }
            1 => {
                m.queue.push(ingests[p]);
                p += 1;
            }
            _ => m.read()?,
        }
    }
    Ok(())
}

#[test]
fn epoch_commit_is_atomic_to_readers_under_all_interleavings() {
    let report = explore(
        "epoch-plan-commit",
        &cfg(),
        &epoch_model_counts(Bug::None),
        |s| run_epoch_model(s, Bug::None),
    );
    print_report(&report);
    assert!(report.exhaustive);
    assert_eq!(report.total_space, 4_200); // 10!/(4!·3!·3!)
    report.assert_ok();
}

/// The explorer must *find* each planted bug, and the schedule it reports
/// must replay the failure deterministically — the reproducer contract
/// behind the `SHUTTLE_SCHEDULE` environment variable.
fn assert_found_and_replays(name: &str, bug: Bug, symptom: &str) {
    let report = explore(name, &cfg(), &epoch_model_counts(bug), |s| {
        run_epoch_model(s, bug)
    });
    print_report(&report);
    let failure = report.failure.expect("explorer must find the planted bug");
    assert!(failure.message.contains(symptom), "{}", failure.message);
    // The reported schedule replays the same invariant violation.
    let replayed = run_epoch_model(&failure.schedule, bug);
    assert_eq!(replayed.err().as_deref(), Some(failure.message.as_str()));
    // And the reproducer string round-trips through the parser.
    let s = shuttle::format_schedule(&failure.schedule);
    assert_eq!(shuttle::parse_schedule(&s).unwrap(), failure.schedule);
}

#[test]
fn plan_time_mutation_bug_is_found_and_replays() {
    assert_found_and_replays(
        "epoch-mutate-at-plan",
        Bug::MutateAtPlan,
        "leaked before commit",
    );
}

#[test]
fn unlocked_commit_bug_is_found_and_replays() {
    assert_found_and_replays("epoch-unlocked-commit", Bug::UnlockedCommit, "torn commit");
}

// ---------------------------------------------------------------------
// Suite 3: router replicated → partitioned publish
// ---------------------------------------------------------------------

/// `register_sharded_locked`'s transition protocol: (a) publish the new
/// layout under the router write lock, (b) flush queued broadcasts,
/// (c) filter committed tables down to hash slices. Ingests hold the
/// router read lock across their whole fan-out, so each is one atomic
/// step routing by the placement it observed.
struct RouterModel {
    partitioned: bool,
    queued: [Vec<u32>; 2],
    committed: [Vec<u32>; 2],
}

impl RouterModel {
    fn new() -> Self {
        RouterModel {
            partitioned: false,
            queued: [Vec::new(), Vec::new()],
            committed: [Vec::new(), Vec::new()],
        }
    }

    fn owner(key: u32) -> usize {
        (key % 2) as usize
    }

    fn ingest(&mut self, key: u32) {
        if self.partitioned {
            self.queued[Self::owner(key)].push(key);
        } else {
            self.queued[0].push(key);
            self.queued[1].push(key);
        }
    }

    fn flush(&mut self) {
        for j in 0..2 {
            let drained: Vec<u32> = self.queued[j].drain(..).collect();
            self.committed[j].extend(drained);
        }
    }

    fn filter(&mut self) {
        for j in 0..2 {
            self.committed[j].retain(|k| Self::owner(*k) == j);
        }
    }

    fn check_exact(&self, keys: &[u32]) -> Result<(), String> {
        for &k in keys {
            let own = Self::owner(k);
            let on_owner = self.committed[own].iter().filter(|&&x| x == k).count();
            let elsewhere = self.committed[1 - own].iter().filter(|&&x| x == k).count();
            if on_owner != 1 || elsewhere != 0 {
                return Err(format!(
                    "key {k}: {on_owner} copies on owner shard {own}, \
                     {elsewhere} on the other — transition lost or duplicated rows"
                ));
            }
        }
        Ok(())
    }
}

fn run_router_model(schedule: &[usize], flush_before_filter: bool) -> Result<(), String> {
    let keys = [1u32, 2, 3];
    let mut m = RouterModel::new();
    let mut pub_step = 0;
    let mut p = 0;
    for &t in schedule {
        match t {
            0 => {
                match (pub_step, flush_before_filter) {
                    (0, _) => m.partitioned = true,
                    (1, true) => m.flush(),
                    (1, false) => m.filter(), // bug: filter sees stale tables
                    (_, true) => m.filter(),
                    (_, false) => m.flush(),
                }
                pub_step += 1;
            }
            _ => {
                m.ingest(keys[p]);
                p += 1;
            }
        }
    }
    m.flush(); // quiesce: commit any still-queued routed deltas
    m.check_exact(&keys)
}

#[test]
fn router_publish_transition_is_exact_under_all_interleavings() {
    let counts = [3, 3];
    let report = explore("router-publish", &cfg(), &counts, |s| {
        run_router_model(s, true)
    });
    print_report(&report);
    assert!(report.exhaustive);
    assert_eq!(report.total_space, 20); // C(6,3)
    report.assert_ok();
}

/// Reordering the transition (filter before flush) double-commits any
/// broadcast that was queued before the layout published — the explorer
/// must catch it and its schedule must replay.
#[test]
fn router_filter_before_flush_bug_is_found_and_replays() {
    let counts = [3, 3];
    let report = explore("router-filter-first", &cfg(), &counts, |s| {
        run_router_model(s, false)
    });
    print_report(&report);
    let failure = report
        .failure
        .expect("explorer must find the double-commit");
    let replayed = run_router_model(&failure.schedule, false);
    assert_eq!(replayed.err().as_deref(), Some(failure.message.as_str()));
}

// ---------------------------------------------------------------------
// Suite 4: heavy-key promotion vs concurrent ingest
// ---------------------------------------------------------------------

/// `promote_heavy_locked`'s exactly-once protocol. One hot key; rows are
/// numbered ingests of that key. Steps mirror the real sequence: scan
/// freq → mark heavy (router write lock) → park in `pending_promotions` →
/// flush → migrate (re-scan *committed* owner rows) → flush → unpark.
/// A failed flush leaves the key parked; the retry flushes *before*
/// re-scanning, which is what makes retries never double-move rows.
#[derive(Clone, Copy, PartialEq)]
enum Op {
    Ins(u32),
    Del(u32),
}

struct PromotionModel {
    freq: u64,
    heavy: bool,
    parked: bool,
    owner_q: Vec<Op>,
    heavy_q: Vec<Op>,
    owner: Vec<u32>,
    heavy_rows: Vec<u32>,
}

impl PromotionModel {
    const THRESHOLD: u64 = 1;

    fn new() -> Self {
        PromotionModel {
            freq: 0,
            heavy: false,
            parked: false,
            owner_q: Vec::new(),
            heavy_q: Vec::new(),
            owner: Vec::new(),
            heavy_rows: Vec::new(),
        }
    }

    /// Atomic ingest of one row of the hot key: routed by the placement
    /// observed under the router read lock, frequency counted.
    fn ingest(&mut self, id: u32) {
        self.freq += 1;
        if self.heavy {
            self.heavy_q.push(Op::Ins(id));
        } else {
            self.owner_q.push(Op::Ins(id));
        }
    }

    fn apply(committed: &mut Vec<u32>, ops: Vec<Op>) {
        for op in ops {
            match op {
                Op::Ins(id) => committed.push(id),
                Op::Del(id) => {
                    if let Some(i) = committed.iter().position(|&x| x == id) {
                        committed.remove(i);
                    }
                }
            }
        }
    }

    fn flush(&mut self) {
        let o: Vec<Op> = self.owner_q.drain(..).collect();
        Self::apply(&mut self.owner, o);
        let h: Vec<Op> = self.heavy_q.drain(..).collect();
        Self::apply(&mut self.heavy_rows, h);
    }

    fn scan_and_mark(&mut self) {
        if self.parked || (self.freq >= Self::THRESHOLD && !self.heavy) {
            self.heavy = true;
            self.parked = true;
        }
    }

    /// Re-scan *committed* owner rows and enqueue the move. Scanning
    /// committed (not queued) state is what makes retries idempotent.
    fn migrate(&mut self) {
        if !self.parked {
            return;
        }
        for &id in &self.owner.clone() {
            self.heavy_q.push(Op::Ins(id));
            self.owner_q.push(Op::Del(id));
        }
    }

    fn unpark(&mut self) {
        if self.parked {
            self.parked = false;
            self.freq = 0;
        }
    }

    /// One full promoter round, as `refresh_epoch` would run it.
    fn promoter_round(&mut self) {
        self.scan_and_mark();
        self.flush();
        self.migrate();
        self.flush();
        self.unpark();
    }

    fn check_exactly_once(&self, ingested: u32) -> Result<(), String> {
        if !self.owner.is_empty() {
            return Err(format!(
                "{} promoted-key rows still on the hash shard after migration",
                self.owner.len()
            ));
        }
        for id in 0..ingested {
            let n = self.heavy_rows.iter().filter(|&&x| x == id).count();
            if n != 1 {
                return Err(format!(
                    "row {id} committed {n} times on the heavy shard (want exactly 1)"
                ));
            }
        }
        if !self.parked {
            Ok(())
        } else {
            Err("promotion left parked after quiescence".into())
        }
    }
}

fn quiesce_and_check(mut m: PromotionModel, ingested: u32) -> Result<(), String> {
    // Producers have stopped; run promoter rounds to a fixed point, as a
    // real deployment's trailing refresh epochs would.
    m.promoter_round();
    m.promoter_round();
    m.check_exactly_once(ingested)
}

#[test]
fn promotion_vs_ingest_applies_exactly_once_under_all_interleavings() {
    // Promoter: scan+mark, flush, migrate, flush, unpark (one epoch's
    // promotion pass, each phase atomic under its documented lock).
    let counts = [5, 3];
    let report = explore("promotion-vs-ingest", &cfg(), &counts, |schedule| {
        let mut m = PromotionModel::new();
        let mut phase = 0;
        let mut p = 0u32;
        for &t in schedule {
            match t {
                0 => {
                    match phase {
                        0 => m.scan_and_mark(),
                        1 | 3 => m.flush(),
                        2 => m.migrate(),
                        _ => m.unpark(),
                    }
                    phase += 1;
                }
                _ => {
                    m.ingest(p);
                    p += 1;
                }
            }
        }
        quiesce_and_check(m, p)
    });
    print_report(&report);
    assert!(report.exhaustive);
    assert_eq!(report.total_space, 56); // C(8,3)
    report.assert_ok();
}

/// A promotion epoch whose final flush fails leaves the key parked in
/// `pending_promotions`; the retry round must not double-move rows. The
/// failed flush is modeled faithfully: the drained batch is restored, so
/// the queued move ops survive to the retry (which flushes them *before*
/// re-scanning committed state).
#[test]
fn promotion_retry_after_failed_epoch_never_double_moves() {
    // Promoter: scan+mark, flush, migrate, [flush FAILS → still parked],
    // then the retry round: flush, migrate, flush, unpark.
    let counts = [8, 2];
    let report = explore("promotion-retry", &cfg(), &counts, |schedule| {
        let mut m = PromotionModel::new();
        let mut phase = 0;
        let mut p = 0u32;
        for &t in schedule {
            match t {
                0 => {
                    match phase {
                        0 => m.scan_and_mark(),
                        1 | 4 | 6 => m.flush(),
                        2 => m.migrate(),
                        3 => {} // flush fails: batch restored, queues intact
                        5 => m.migrate(),
                        _ => m.unpark(),
                    }
                    phase += 1;
                }
                _ => {
                    m.ingest(p);
                    p += 1;
                }
            }
        }
        quiesce_and_check(m, p)
    });
    print_report(&report);
    assert!(report.exhaustive);
    assert_eq!(report.total_space, 45); // C(10,2)
    report.assert_ok();
}

// ---------------------------------------------------------------------
// Real-thread scheduling: the actual service under the token scheduler
// ---------------------------------------------------------------------

#[cfg(feature = "shuttle")]
mod sched {
    use crate::{IngestOptions, ServeConfig, ShardedService, ViewService};
    use gpivot_algebra::{PivotSpec, Plan, PlanBuilder};
    use gpivot_storage::{row, Catalog, DataType, Delta, Schema, Table, Value};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Arc::new(
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
            Table::from_rows(schema, vec![row![1, "a", 10], row![2, "b", 20]]).unwrap(),
        )
        .unwrap();
        c
    }

    fn pivot_plan() -> Plan {
        PlanBuilder::scan("facts")
            .gpivot(PivotSpec::simple(
                "attr",
                "val",
                vec![Value::str("a"), Value::str("b")],
            ))
            .build()
    }

    // `workers(1)` keeps refresh on the calling (scheduled) thread: the
    // pool inlines single-worker runs, so every lock acquisition in the
    // run happens on a token-holding thread.
    fn cfg() -> ServeConfig {
        ServeConfig::builder()
            .workers(1)
            .exec_threads(1)
            .build()
            .unwrap()
    }

    fn deltas() -> Vec<Delta> {
        vec![
            Delta::from_inserts(vec![row![3, "a", 1], row![4, "b", 2]]),
            Delta::from_deletes(vec![row![1, "a", 10]]),
            Delta::from_inserts(vec![row![5, "a", 3]]),
        ]
    }

    /// Ingest vs refresh on a real `ViewService`, all lock acquisitions
    /// serialized by the seeded token scheduler. Every seed must converge
    /// to the single-threaded oracle after a trailing refresh.
    #[test]
    fn sched_ingest_vs_refresh_converges_for_every_seed() {
        let oracle = ViewService::new(catalog(), cfg());
        oracle.register_view("pv", pivot_plan()).unwrap();
        for d in deltas() {
            oracle
                .ingest_with("facts", d, IngestOptions::blocking())
                .unwrap();
        }
        oracle.refresh_epoch().unwrap();
        let want = oracle.query_view("pv").unwrap();

        let seeds = shuttle::sched::seeds(0..24);
        let mut total_yields = 0;
        for seed in seeds {
            let svc = ViewService::new(catalog(), cfg());
            svc.register_view("pv", pivot_plan()).unwrap();
            let opts = shuttle::sched::RunOptions {
                seed,
                ..Default::default()
            };
            let report = shuttle::sched::run(
                &opts,
                vec![
                    Box::new(|| {
                        for d in deltas() {
                            svc.ingest_with("facts", d, IngestOptions::blocking())
                                .unwrap();
                        }
                    }),
                    Box::new(|| {
                        svc.refresh_epoch().unwrap();
                        svc.refresh_epoch().unwrap();
                    }),
                ],
            );
            total_yields += report.yields;
            svc.refresh_epoch().unwrap();
            let got = svc.query_view("pv").unwrap();
            assert!(
                got.bag_eq(&want),
                "seed {seed}: diverged from oracle\n got: {:?}\nwant: {:?}",
                got.sorted_rows(),
                want.sorted_rows()
            );
        }
        println!("sched[ingest-vs-refresh]: swept seeds, {total_yields} total yields");
    }

    /// Heavy-key promotion racing `ingest_with` on a real sharded
    /// service: the hot key's rows must stay exact (vs the oracle) and
    /// the key must end up promoted, for every scheduler seed.
    #[test]
    fn sched_promotion_vs_ingest_with_stays_exact_for_every_seed() {
        fn shard_cfg() -> ServeConfig {
            ServeConfig::builder()
                .workers(1)
                .exec_threads(1)
                .shards(2)
                .heavy_key_threshold(2)
                .build()
                .unwrap()
        }
        fn hot_deltas() -> Vec<Delta> {
            // Updates of the hot key (1): delete+insert pairs keep the
            // (id, attr) primary key unique while driving the key's
            // delta-row frequency over the promotion threshold.
            let mut d1 = Delta::from_deletes(vec![row![1, "a", 10]]);
            d1.merge(&Delta::from_inserts(vec![row![1, "a", 11]]));
            let mut d2 = Delta::from_deletes(vec![row![1, "a", 11]]);
            d2.merge(&Delta::from_inserts(vec![row![1, "a", 12]]));
            vec![d1, d2, Delta::from_inserts(vec![row![5, "b", 9]])]
        }

        let oracle = ViewService::new(catalog(), cfg());
        oracle.register_view("pv", pivot_plan()).unwrap();
        for d in hot_deltas() {
            oracle
                .ingest_with("facts", d, IngestOptions::blocking())
                .unwrap();
        }
        oracle.refresh_epoch().unwrap();
        let want = oracle.query_view("pv").unwrap();

        for seed in shuttle::sched::seeds(0..16) {
            let svc = ShardedService::new(catalog(), shard_cfg());
            svc.register_view("pv", pivot_plan()).unwrap();
            let opts = shuttle::sched::RunOptions {
                seed,
                ..Default::default()
            };
            shuttle::sched::run(
                &opts,
                vec![
                    Box::new(|| {
                        for d in hot_deltas() {
                            svc.ingest_with("facts", d, IngestOptions::blocking())
                                .unwrap();
                        }
                    }),
                    Box::new(|| {
                        // Promotion runs inside refresh_epoch once freq
                        // crosses the threshold.
                        svc.refresh_epoch().unwrap();
                        svc.refresh_epoch().unwrap();
                    }),
                ],
            );
            svc.refresh_epoch().unwrap();
            svc.refresh_epoch().unwrap();
            let got = svc.query_view("pv").unwrap();
            assert!(
                got.bag_eq(&want),
                "seed {seed}: sharded diverged from oracle\n got: {:?}\nwant: {:?}",
                got.sorted_rows(),
                want.sorted_rows()
            );
            assert!(
                svc.verify_all().unwrap(),
                "seed {seed}: full recompute check"
            );
            assert!(
                svc.heavy_keys()
                    .iter()
                    .any(|(t, c, v)| t == "facts" && c == "id" && *v == Value::Int(1)),
                "seed {seed}: hot key must be promoted after quiescence"
            );
        }
    }
}
