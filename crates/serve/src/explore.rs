//! Deterministic schedule exploration for the serve tier's concurrency
//! protocols (DESIGN.md §"Concurrency checks").
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
//! epoch's plan/commit protocol against readers; suite 3 models the
//! sharded tier's one routing-change protocol — a layout publish or a
//! heavy-key promotion, taken as a parameter (the real one fans out
//! through whole `ViewService` instances, too heavy for thousands of
//! replays) — with the same step structure as
//! `ShardedService::reroute_locked`. The deliberately-broken variants
//! assert the explorer *finds* a known bug and that the reported
//! schedule replays it — the analogue of the planted-violation tests of
//! the lock-level checks in `sync.rs` (GP030–GP034).
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
// Suite 3: the one routing-change protocol vs concurrent ingest
// ---------------------------------------------------------------------

/// The routing change `ShardedService::reroute_locked` performs.
#[derive(Clone, Copy, PartialEq)]
enum Transition {
    /// A table goes replicated → partitioned (`register_sharded_locked`):
    /// the rewrite cuts every shard's committed table to its slice.
    Publish,
    /// The hot key goes heavy (`promote_heavy_locked`): the rewrite
    /// enqueues its committed rows as a delete on the owning hash shard
    /// and an insert on the heavy shard.
    Promote,
}

/// One atomic step of the thread making the routing change.
#[derive(Clone, Copy, PartialEq)]
enum Step {
    /// Take the router write lock, save the router, apply the change.
    Change,
    /// Refresh every shard: commit each queue in order.
    Flush,
    /// A refresh round whose heavy shard fails: the hash shards commit,
    /// the heavy shard's batch is restored. Inside the change this is its
    /// error path too — restore the saved router, then release.
    FailedFlush,
    /// Rewrite committed state to the new router.
    Rewrite,
    /// Release the router write lock; waiting ingests route now.
    Release,
}

/// The helper, then the epoch's own refresh round.
const ROUTING_CHANGE: &[Step] = &[
    Step::Change,
    Step::Flush,
    Step::Rewrite,
    Step::Release,
    Step::Flush,
];

#[derive(Clone, Copy)]
enum Op {
    Ins(u32),
    Del(u32),
}

impl Op {
    fn row(self) -> u32 {
        match self {
            Op::Ins(id) | Op::Del(id) => id,
        }
    }

    fn weight(self) -> i64 {
        match self {
            Op::Ins(_) => 1,
            Op::Del(_) => -1,
        }
    }
}

/// Hash shards 0 and 1, then the heavy shard. Ingests hold the router
/// read lock across their fan-out, so each is one atomic step routing by
/// the router it observed — or, while the write lock is held, a wait.
struct RoutingModel {
    transition: Transition,
    /// The router: has the change been published?
    changed: bool,
    /// The router saved by `Change`; `Some` while the write lock is held.
    saved: Option<bool>,
    /// Ingests blocked on the write lock, in arrival order.
    waiting: Vec<Op>,
    /// Every ingest that has routed.
    routed: Vec<Op>,
    queued: [Vec<Op>; 3],
    committed: [Vec<u32>; 3],
}

impl RoutingModel {
    const HEAVY: usize = 2;
    /// For `Promote`, every row belongs to the hot key, which hashes here.
    const HOT_OWNER: usize = 0;

    fn new(transition: Transition) -> Self {
        RoutingModel {
            transition,
            changed: false,
            saved: None,
            waiting: Vec::new(),
            routed: Vec::new(),
            queued: Default::default(),
            committed: Default::default(),
        }
    }

    /// The shards the current router places row `id` on.
    fn placement(&self, id: u32) -> Vec<usize> {
        match (self.transition, self.changed) {
            (Transition::Publish, false) => vec![0, 1, Self::HEAVY],
            (Transition::Publish, true) => vec![(id % 2) as usize],
            (Transition::Promote, false) => vec![Self::HOT_OWNER],
            (Transition::Promote, true) => vec![Self::HEAVY],
        }
    }

    fn ingest(&mut self, op: Op) {
        if self.saved.is_some() {
            self.waiting.push(op);
            return;
        }
        for j in self.placement(op.row()) {
            self.queued[j].push(op);
        }
        self.routed.push(op);
    }

    /// Commit shard `j`'s queue in order. A keyed table refuses to delete
    /// a row it does not hold.
    fn commit(&mut self, j: usize) -> Result<(), String> {
        for op in std::mem::take(&mut self.queued[j]) {
            match op {
                Op::Ins(id) => self.committed[j].push(id),
                Op::Del(id) => match self.committed[j].iter().position(|&x| x == id) {
                    Some(i) => {
                        self.committed[j].remove(i);
                    }
                    None => {
                        return Err(format!(
                            "shard {j} deleted row {id} it does not hold: \
                             a delta committed ahead of the rows it changes"
                        ))
                    }
                },
            }
        }
        Ok(())
    }

    fn step(&mut self, step: Step) -> Result<(), String> {
        match step {
            Step::Change => {
                self.saved = Some(self.changed);
                self.changed = true;
            }
            Step::Flush => (0..3).try_for_each(|j| self.commit(j))?,
            Step::FailedFlush => {
                self.commit(0)?;
                self.commit(1)?;
                if let Some(saved) = self.saved {
                    self.changed = saved;
                    self.step(Step::Release)?;
                }
                // A failed round leaves every row where the router it
                // left behind places it: nothing moved, nothing doubled.
                self.check_placement()?;
            }
            Step::Rewrite => match self.transition {
                Transition::Publish => {
                    for j in 0..3 {
                        let keep: Vec<u32> = std::mem::take(&mut self.committed[j])
                            .into_iter()
                            .filter(|&id| self.placement(id).contains(&j))
                            .collect();
                        self.committed[j] = keep;
                    }
                }
                Transition::Promote => {
                    for id in self.committed[Self::HOT_OWNER].clone() {
                        self.queued[Self::HOT_OWNER].push(Op::Del(id));
                        self.queued[Self::HEAVY].push(Op::Ins(id));
                    }
                }
            },
            Step::Release => {
                self.saved = None;
                for op in std::mem::take(&mut self.waiting) {
                    self.ingest(op);
                }
            }
        }
        Ok(())
    }

    /// Every shard's committed rows plus its queued deltas must be exactly
    /// the routed rows the current router places on it.
    fn check_placement(&self) -> Result<(), String> {
        for j in 0..3 {
            let mut got: HashMap<u32, i64> = HashMap::new();
            for &id in &self.committed[j] {
                *got.entry(id).or_default() += 1;
            }
            for op in &self.queued[j] {
                *got.entry(op.row()).or_default() += op.weight();
            }
            let mut want: HashMap<u32, i64> = HashMap::new();
            for op in &self.routed {
                if self.placement(op.row()).contains(&j) {
                    *want.entry(op.row()).or_default() += op.weight();
                }
            }
            for id in got.keys().chain(want.keys()) {
                let (g, w) = (got.get(id).copied(), want.get(id).copied());
                if g.unwrap_or(0) != w.unwrap_or(0) {
                    return Err(format!(
                        "shard {j} holds row {id} ×{}, the router places it ×{}: \
                         the routing change lost or duplicated rows",
                        g.unwrap_or(0),
                        w.unwrap_or(0)
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Thread 0 runs `script`; thread 1 ingests a row, deletes it, and
/// ingests another — the delete is what a delta committing ahead of its
/// row's move trips over.
fn run_routing_model(
    schedule: &[usize],
    transition: Transition,
    script: &[Step],
) -> Result<(), String> {
    let ingests = [Op::Ins(1), Op::Del(1), Op::Ins(2)];
    let mut m = RoutingModel::new(transition);
    let (mut s, mut p) = (0, 0);
    for &t in schedule {
        if t == 0 {
            m.step(script[s])?;
            s += 1;
        } else {
            m.ingest(ingests[p]);
            p += 1;
        }
    }
    m.step(Step::Flush)?; // quiesce: commit whatever is still queued
    m.check_placement()
}

fn explore_routing(name: &str, transition: Transition, script: &[Step]) -> ExploreReport {
    let report = explore(name, &cfg(), &[script.len(), 3], |s| {
        run_routing_model(s, transition, script)
    });
    print_report(&report);
    report
}

#[test]
fn router_publish_transition_is_exact_under_all_interleavings() {
    let report = explore_routing("router-publish", Transition::Publish, ROUTING_CHANGE);
    assert!(report.exhaustive);
    assert_eq!(report.total_space, 56); // C(8,3)
    report.assert_ok();
}

#[test]
fn promotion_vs_ingest_applies_exactly_once_under_all_interleavings() {
    let report = explore_routing("promotion-vs-ingest", Transition::Promote, ROUTING_CHANGE);
    assert!(report.exhaustive);
    assert_eq!(report.total_space, 56); // C(8,3)
    report.assert_ok();
}

/// A flush that fails inside the change restores the router before the
/// lock is released, so no ingest ever routes by it and no row moves
/// (checked right after the failure); the next epoch's change then runs
/// whole.
#[test]
fn failed_flush_restores_the_router_and_moves_no_row() {
    let script = [
        Step::Change,
        Step::FailedFlush,
        Step::Change,
        Step::Flush,
        Step::Rewrite,
        Step::Release,
        Step::Flush,
    ];
    for (name, transition) in [
        ("publish-failed-flush", Transition::Publish),
        ("promotion-failed-flush", Transition::Promote),
    ] {
        let report = explore_routing(name, transition, &script);
        assert!(report.exhaustive);
        assert_eq!(report.total_space, 120); // C(10,3)
        report.assert_ok();
    }
}

/// A promotion epoch whose final round fails keeps the key heavy and its
/// moves queued (the failed shard's batch is restored); the next epoch
/// commits them without moving anything again.
#[test]
fn promotion_retry_after_failed_epoch_never_double_moves() {
    let script = [
        Step::Change,
        Step::Flush,
        Step::Rewrite,
        Step::Release,
        Step::FailedFlush,
        Step::Flush,
    ];
    let report = explore_routing("promotion-retry", Transition::Promote, &script);
    assert!(report.exhaustive);
    assert_eq!(report.total_space, 84); // C(9,3)
    report.assert_ok();
}

/// The explorer must find a planted misordering of the protocol, and the
/// schedule it reports must replay it.
fn assert_routing_bug_found_and_replays(name: &str, transition: Transition, script: &[Step]) {
    let report = explore_routing(name, transition, script);
    let failure = report.failure.expect("explorer must find the planted bug");
    let replayed = run_routing_model(&failure.schedule, transition, script);
    assert_eq!(replayed.err().as_deref(), Some(failure.message.as_str()));
}

/// Rewriting before the flush works on stale committed state: a publish
/// keeps the broadcasts still queued on every shard, and a promotion
/// leaves the queued rows of the key behind on its hash shard.
#[test]
fn rewrite_before_flush_bug_is_found_and_replays() {
    let script = [
        Step::Change,
        Step::Rewrite,
        Step::Flush,
        Step::Release,
        Step::Flush,
    ];
    assert_routing_bug_found_and_replays("publish-rewrite-first", Transition::Publish, &script);
    assert_routing_bug_found_and_replays("promotion-rewrite-first", Transition::Promote, &script);
}

/// Releasing the lock before the rewrite lets a delta routed to the heavy
/// shard commit ahead of the migration of the rows it changes — the race
/// the real-thread sweep first caught.
#[test]
fn release_before_rewrite_bug_is_found_and_replays() {
    let script = [
        Step::Change,
        Step::Release,
        Step::Flush,
        Step::Rewrite,
        Step::Flush,
    ];
    assert_routing_bug_found_and_replays("promotion-release-first", Transition::Promote, &script);
}

// ---------------------------------------------------------------------
// Real-thread scheduling: the actual service under the token scheduler
// ---------------------------------------------------------------------

#[cfg(feature = "shuttle")]
mod sched {
    use crate::{IngestOptions, ServeConfig, ShardedService, ViewService};
    use gpivot_algebra::{PivotSpec, Plan};
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
        Plan::scan("facts").gpivot(PivotSpec::simple(
            "attr",
            "val",
            vec![Value::str("a"), Value::str("b")],
        ))
    }

    // `workers(1)` keeps refresh on the calling (scheduled) thread: the
    // pool inlines single-worker runs, so every lock acquisition in the
    // run happens on a token-holding thread.
    fn cfg() -> ServeConfig {
        ServeConfig::builder().workers(1).build().unwrap()
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
