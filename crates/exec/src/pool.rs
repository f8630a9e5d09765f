//! Dependency-free worker pool: the workspace's one fan-out loop
//! (round-robin buckets over long-lived workers, order-preserving result
//! slots — [`WorkerPool::run_slots`]). Operator kernels and the serve
//! layer's epoch and shard fan-outs all submit their jobs here:
//!
//! * **Long-lived workers** — a pool's threads are spawned once, by the
//!   first fan-out that needs more than one of them, from the calling
//!   thread (so they inherit its CPU affinity). Each worker has its own
//!   inbox, and bucket `k` of a call goes to worker `k`, so a call's
//!   buckets run on distinct threads. A worker that runs out of tasks
//!   polls its inbox for 2 ms, yielding its CPU between polls, then parks
//!   on the inbox's condvar; the last handle's drop wakes and joins them.
//!   A fan-out therefore costs one push per bucket — plus a wake-up when
//!   the workers have been idle for longer than those 2 ms — not a spawn,
//!   a fresh stack and a cold allocator arena per call.
//! * **Determinism** — results come back in job (partition) index order,
//!   and when several jobs fail the error of the lowest-indexed job wins,
//!   so a query's outcome never depends on thread scheduling.
//! * **Panic isolation** — every job runs under `catch_unwind`, on the
//!   inline path too, so a poisoned partition surfaces as a classified
//!   [`ExecError::WorkerPanic`] instead of hanging the query or killing
//!   the process; a worker survives every panic.
//! * **Collector handoff** — the collector installed on the calling
//!   thread (see `tracing::current_collector`) is installed on the worker
//!   for each task it runs and removed afterwards, never for the worker's
//!   lifetime, so a worker that serves several callers puts each one's
//!   spans in that caller's timing store.
//! * **No self-deadlock** — a `run_slots` call made from one of the same
//!   pool's workers runs its jobs inline instead of queueing behind
//!   itself. Fan-outs nested across pools (a service's epoch pool inside
//!   a shard tier's pool, an executor's pool inside either) queue on the
//!   inner pool, which never waits on an outer one.
//!
//! [`partition_by_hash`] and [`morsels`] are the two job-shaping helpers
//! the parallel kernels share: hash partitioning keeps equal keys in the
//! same partition (joins, grouping, pivoting), morsels keep row order
//! (selection, projection).

use crate::error::{ExecError, Result};
use gpivot_storage::Row;
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// One bucket of a caller's jobs, with its borrows erased to `'static`
/// by [`WorkerPool::run_slots`] (see the `SAFETY` note there).
type Task = Box<dyn FnOnce() + Send + 'static>;

/// How long a worker that has run out of tasks keeps polling its inbox
/// before it parks. Waking a parked thread whose CPU has gone idle costs
/// 50–100 µs on a 2-vCPU VM — as much as planning a view on `trickle` —
/// while a service that refreshes back to back queues its next epoch's
/// tasks well within this window. The poll yields the CPU every time, so
/// a spinning worker never delays a thread that has work.
const SPIN: Duration = Duration::from_millis(2);

/// A worker pool of a fixed width. Cloning shares the workers; they are
/// spawned by the first fan-out that needs them and joined when the last
/// clone drops. Jobs may borrow from the caller: every call waits for all
/// of its jobs before it returns.
#[derive(Clone)]
pub struct WorkerPool {
    workers: Arc<Workers>,
}

/// The shared part of a pool: one inbox per worker and — once the first
/// fan-out has spawned them — the worker threads.
struct Workers {
    inboxes: Arc<[Inbox]>,
    handles: OnceLock<Vec<JoinHandle<()>>>,
}

/// One worker's task queue, which it polls and parks on. Bucket `k` of
/// every call goes to inbox `k`, so a call's buckets run on distinct
/// threads, as they would on threads spawned for the call, and never
/// pile up behind one worker that happened to be awake. Its mutex is a
/// leaf: it is held only to push, poll or pop tasks or to close the
/// inbox, never while a task runs and never while another lock is taken.
#[derive(Default)]
struct Inbox {
    tasks: Mutex<Tasks>,
    ready: Condvar,
}

#[derive(Default)]
struct Tasks {
    queued: VecDeque<Task>,
    closed: bool,
}

thread_local! {
    /// The inboxes of the pool this thread works for (null off the pool),
    /// so a fan-out from inside one of its own jobs runs inline.
    static WORKER_OF: Cell<*const Inbox> = const { Cell::new(std::ptr::null()) };
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new(1)
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .field("spawned", &self.workers.handles.get().map_or(0, Vec::len))
            .finish()
    }
}

impl WorkerPool {
    /// A pool that runs jobs on `threads` workers (clamped to ≥ 1).
    /// `threads == 1` runs every job inline on the calling thread and
    /// never spawns. No thread starts here: the first fan-out over more
    /// than one job spawns all of them.
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            workers: Arc::new(Workers {
                inboxes: (0..threads.max(1)).map(|_| Inbox::default()).collect(),
                handles: OnceLock::new(),
            }),
        }
    }

    /// Worker width.
    pub fn threads(&self) -> usize {
        self.workers.inboxes.len()
    }

    /// The one fan-out loop: run `f` over `jobs` in up to `threads`
    /// round-robin buckets, bucket `k` on worker `k`, returning one slot
    /// per job in job order regardless of which worker ran which job. The
    /// caller blocks until every bucket is done; it never runs a bucket
    /// itself. Jobs run inline, on the calling thread, when one bucket
    /// suffices, when the caller is itself one of this pool's workers,
    /// or when no worker thread could be spawned. Every job runs under
    /// `catch_unwind`, on the inline path too, and the calling thread's
    /// tracing collector is installed on the worker for each bucket. A
    /// slot is `None` iff its job panicked (or its bucket failed outside
    /// the per-job boundary); callers must treat that as a failure, never
    /// unwrap it.
    pub fn run_slots<T, R, F>(&self, jobs: Vec<T>, f: F) -> Vec<Option<R>>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = jobs.len();
        let f = &f;
        let caught = move |job: T| catch_unwind(AssertUnwindSafe(|| f(job))).ok();
        let caught = &caught;
        let wide = self.threads().min(n) > 1 && !self.on_own_worker();
        let buckets_n = if wide {
            self.workers.spawned().min(n)
        } else {
            1
        };
        if buckets_n <= 1 {
            return jobs.into_iter().map(caught).collect();
        }
        let mut buckets: Vec<Vec<(usize, T)>> = (0..buckets_n).map(|_| Vec::new()).collect();
        for (i, job) in jobs.into_iter().enumerate() {
            buckets[i % buckets_n].push((i, job));
        }
        let collector = tracing::current_collector();
        // `finished` is declared before `done`, so it is dropped after it:
        // on every path out of this frame, unwinding included, it waits
        // for the senders the tasks hold and never for one of its own.
        let finished: Finished<Vec<(usize, Option<R>)>>;
        let done;
        (done, finished) = {
            let (done, finished) = mpsc::channel();
            (done, Finished(finished))
        };
        let tasks: Vec<Task> = buckets
            .into_iter()
            .map(|bucket| {
                let done = done.clone();
                let collector = collector.clone();
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    // Dropped last, after every use of a borrow.
                    let sender = done;
                    let _collector = collector.map(tracing::push_collector);
                    let out = bucket.into_iter().map(|(i, job)| (i, caught(job)));
                    let _ = sender.send(out.collect());
                });
                // SAFETY: the task borrows `f` and `caught` from this
                // frame, and its jobs may borrow from the caller's; all of
                // them outlive `finished`. The task's sender is its first
                // local, so it drops last, on unwind too: once every
                // sender is gone, no task will touch a borrow again.
                // `finished` waits for exactly that on every exit from
                // this frame, a panic in the caller included. A task is
                // dropped unrun only in this frame, before it is pushed:
                // an inbox closes only when the last handle drops, and
                // `&self` is a handle. The transmute changes only the
                // trait object's lifetime bound.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(task) }
            })
            .collect();
        drop(done);
        for (inbox, task) in self.workers.inboxes.iter().zip(tasks) {
            inbox.push(task);
        }
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
        for (i, r) in finished.0.iter().flatten() {
            slots[i] = r;
        }
        slots
    }

    /// Is the calling thread one of this pool's workers?
    fn on_own_worker(&self) -> bool {
        WORKER_OF.with(|w| std::ptr::eq(w.get(), self.workers.inboxes.as_ptr()))
    }

    /// Run `f` over `jobs`, returning outputs in job order. `op` labels
    /// the operator in [`ExecError::WorkerPanic`] if a job panics. If
    /// several jobs fail, the lowest-indexed job's error is returned
    /// (deterministic).
    pub fn run<T, R, F>(&self, op: &'static str, jobs: Vec<T>, f: F) -> Result<Vec<R>>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> Result<R> + Sync,
    {
        // `run_caught` keeps the panic message for the typed error, so the
        // slot method's own boundary never fires here.
        self.run_slots(jobs, |job| run_caught(op, &f, job))
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    Err(ExecError::WorkerPanic {
                        op,
                        message: "worker died outside panic isolation".to_string(),
                    })
                })
            })
            .collect()
    }

    /// Like [`WorkerPool::run`], but times each job and reconciles the
    /// durations with the span store: every job reports a
    /// `partition_span` sub-span from its worker, and the parent `span`
    /// records the **max** partition duration — the operator's critical
    /// path — on the calling thread, so per-operator self-times stay
    /// comparable between the sequential and parallel kernels.
    pub fn run_timed<T, R, F>(
        &self,
        op: &'static str,
        span: &'static str,
        partition_span: &'static str,
        jobs: Vec<T>,
        f: F,
    ) -> Result<Vec<R>>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> Result<R> + Sync,
    {
        let timed = self.run(op, jobs, |job| {
            let start = Instant::now();
            let r = f(job)?;
            let elapsed = start.elapsed();
            tracing::record(partition_span, elapsed);
            Ok((r, elapsed))
        })?;
        let critical_path = timed
            .iter()
            .map(|(_, d)| *d)
            .max()
            .unwrap_or(Duration::ZERO);
        tracing::record(span, critical_path);
        Ok(timed.into_iter().map(|(r, _)| r).collect())
    }
}

impl Workers {
    /// How many workers are running, spawning all of them on first use.
    /// A spawn the OS refuses leaves the pool narrower (at worst empty,
    /// and every fan-out inline) instead of failing the call.
    fn spawned(&self) -> usize {
        self.handles
            .get_or_init(|| {
                (0..self.inboxes.len())
                    .map_while(|i| {
                        let inboxes = Arc::clone(&self.inboxes);
                        thread::Builder::new()
                            .name(format!("gpivot-pool-{i}"))
                            .spawn(move || work(&inboxes, i))
                            .ok()
                    })
                    .collect()
            })
            .len()
    }
}

impl Drop for Workers {
    /// The last handle is gone, so no call is in flight: close every inbox
    /// and join every worker. A worker that drops the last handle from
    /// inside a task is left to exit on its own.
    fn drop(&mut self) {
        for inbox in self.inboxes.iter() {
            inbox.close();
        }
        let me = thread::current().id();
        for handle in self.handles.take().into_iter().flatten() {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

/// Worker `i`'s whole life: run the tasks of inbox `i` until it closes.
/// A panic that escapes a task's per-job boundary ends that task, not the
/// worker.
fn work(inboxes: &[Inbox], i: usize) {
    WORKER_OF.with(|w| w.set(inboxes.as_ptr()));
    while let Some(task) = inboxes[i].pop() {
        let _ = catch_unwind(AssertUnwindSafe(task));
    }
}

impl Inbox {
    fn push(&self, task: Task) {
        self.tasks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queued
            .push_back(task);
        self.ready.notify_one();
    }

    /// The next task, or `None` once the inbox is closed. A worker that
    /// finds its inbox empty polls it for up to [`SPIN`], yielding its CPU
    /// between polls, and only then parks on the condvar.
    fn pop(&self) -> Option<Task> {
        let idle_since = Instant::now();
        let mut tasks = self.tasks.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(task) = tasks.queued.pop_front() {
                return Some(task);
            }
            if tasks.closed {
                return None;
            }
            tasks = if idle_since.elapsed() < SPIN {
                drop(tasks);
                thread::yield_now();
                self.tasks.lock().unwrap_or_else(PoisonError::into_inner)
            } else {
                self.ready
                    .wait(tasks)
                    .unwrap_or_else(PoisonError::into_inner)
            };
        }
    }

    fn close(&self) {
        self.tasks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
    }
}

/// The receiving end of a call's results. Each task holds a sender, so
/// the channel disconnects once every task is done with its borrows;
/// dropping this waits for that.
struct Finished<T>(mpsc::Receiver<T>);

impl<T> Drop for Finished<T> {
    fn drop(&mut self) {
        while self.0.recv().is_ok() {}
    }
}

fn run_caught<T, R, F>(op: &'static str, f: &F, job: T) -> Result<R>
where
    F: Fn(T) -> Result<R>,
{
    match catch_unwind(AssertUnwindSafe(|| f(job))) {
        Ok(r) => r,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(ExecError::WorkerPanic { op, message })
        }
    }
}

/// Partition row indices by the hash of the `key_idx` columns. Equal key
/// tuples always land in the same partition, so hash joins, grouping and
/// pivoting are correct per-partition with no cross-partition merge. Uses
/// [`std::collections::hash_map::DefaultHasher`] with its fixed default
/// keys — not a randomly keyed hasher — so the partitioning (and therefore
/// the merged output order) is identical across processes and thread
/// counts.
///
/// With an empty `key_idx` (cross join, global aggregate) every row hashes
/// identically and the whole input degenerates to one partition, which is
/// exactly the sequential kernel.
pub fn partition_by_hash(rows: &[Row], key_idx: &[usize], partitions: usize) -> Vec<Vec<usize>> {
    let partitions = partitions.max(1);
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); partitions];
    for (i, row) in rows.iter().enumerate() {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for &k in key_idx {
            row[k].hash(&mut h);
        }
        parts[(h.finish() % partitions as u64) as usize].push(i);
    }
    parts
}

/// Split `0..n` into contiguous ranges of at most `morsel_rows` rows.
/// Concatenating per-morsel outputs in morsel order reproduces the
/// sequential row order exactly.
pub fn morsels(n: usize, morsel_rows: usize) -> Vec<Range<usize>> {
    let step = morsel_rows.max(1);
    (0..n).step_by(step).map(|s| s..(s + step).min(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_storage::row;
    use std::collections::HashSet;
    use std::sync::{mpsc, Barrier};
    use std::thread::ThreadId;

    #[test]
    fn run_preserves_job_order_across_widths() {
        let jobs: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = jobs.iter().map(|i| i * 2).collect();
        for threads in [1, 2, 8] {
            let out = WorkerPool::new(threads)
                .run("Test", jobs.clone(), |i| Ok(i * 2))
                .unwrap();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn panic_in_job_is_isolated_and_classified() {
        for threads in [1, 4] {
            let err = WorkerPool::new(threads)
                .run("GPivot", vec![0, 1, 2, 3], |i| {
                    if i == 2 {
                        panic!("poisoned partition {i}");
                    }
                    Ok(i)
                })
                .unwrap_err();
            match err {
                ExecError::WorkerPanic { op, message } => {
                    assert_eq!(op, "GPivot");
                    assert!(message.contains("poisoned partition 2"), "{message}");
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn run_slots_leaves_only_the_poisoned_slot_empty() {
        for threads in [1, 4] {
            let slots = WorkerPool::new(threads).run_slots(vec![0, 1, 2, 3, 4], |i| {
                if i == 2 {
                    panic!("poisoned job {i}");
                }
                i * 10
            });
            assert_eq!(
                slots,
                vec![Some(0), Some(10), None, Some(30), Some(40)],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn lowest_indexed_error_wins() {
        let err = WorkerPool::new(4)
            .run("Join", (0..16).collect::<Vec<usize>>(), |i| {
                if i >= 3 {
                    Err(ExecError::WorkerPanic {
                        op: "Join",
                        message: format!("job {i}"),
                    })
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ExecError::WorkerPanic { ref message, .. } if message == "job 3"
        ));
    }

    #[test]
    fn run_timed_records_partition_spans_and_critical_path() {
        let sub = tracing::TimingSubscriber::shared();
        tracing::with_collector(sub.clone(), || {
            WorkerPool::new(2)
                .run_timed("Join", "op.Join", "op.Join.partition", vec![1u64, 2, 3], Ok)
                .unwrap();
        });
        assert_eq!(sub.histogram("op.Join.partition").unwrap().count(), 3);
        let parent = sub.histogram("op.Join").unwrap();
        assert_eq!(parent.count(), 1);
        // The parent self-time is the slowest partition, so it can never
        // exceed the partition family's max.
        assert!(parent.max() <= sub.histogram("op.Join.partition").unwrap().max());
    }

    #[test]
    fn partition_by_hash_is_stable_and_covers_all_rows() {
        let rows = vec![row![1, "a"], row![2, "b"], row![1, "c"], row![3, "d"]];
        let parts = partition_by_hash(&rows, &[0], 4);
        let a = partition_by_hash(&rows, &[0], 4);
        assert_eq!(parts, a, "fixed-key hashing must be reproducible");
        let mut all: Vec<usize> = parts.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        // Equal keys co-locate.
        let parts = partition_by_hash(&rows, &[0], 4);
        let find = |i: usize| parts.iter().position(|p| p.contains(&i)).unwrap();
        assert_eq!(find(0), find(2));
    }

    #[test]
    fn empty_key_degenerates_to_one_partition() {
        let rows = vec![row![1], row![2], row![3]];
        let parts = partition_by_hash(&rows, &[], 8);
        let nonempty: Vec<_> = parts.iter().filter(|p| !p.is_empty()).collect();
        assert_eq!(nonempty.len(), 1);
        assert_eq!(nonempty[0].len(), 3);
    }

    #[test]
    fn morsels_tile_the_range_in_order() {
        assert_eq!(morsels(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(morsels(10, 4), vec![0..4, 4..8, 8..10]);
        let flat: Vec<usize> = morsels(1000, 7).into_iter().flatten().collect();
        assert_eq!(flat, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn run_slots_preserves_order_for_empty_single_and_wide_calls() {
        let pool = WorkerPool::new(4);
        let out = pool.run_slots((0..17).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out, (0..17).map(|x| Some(x * 2)).collect::<Vec<_>>());
        assert_eq!(
            WorkerPool::new(8).run_slots(vec![5], |x: i32| x + 1),
            vec![Some(6)]
        );
        assert!(pool.run_slots(Vec::<i32>::new(), |x| x).is_empty());
    }

    /// Run `case` on its own thread and fail if it has not finished within
    /// `secs` seconds: a deadlocked pool fails the test instead of hanging
    /// the suite.
    fn within(secs: u64, case: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        let _detached = std::thread::spawn(move || {
            case();
            let _ = tx.send(());
        });
        assert!(
            rx.recv_timeout(Duration::from_secs(secs)).is_ok(),
            "case deadlocked or panicked (no completion within {secs} s)"
        );
    }

    /// The threads that ran two jobs forced to overlap: each waits at a
    /// two-party barrier, so they cannot share a worker.
    fn two_overlapping_job_threads(pool: &WorkerPool) -> HashSet<ThreadId> {
        let barrier = Barrier::new(2);
        pool.run_slots(vec![0, 1], |_| {
            barrier.wait();
            std::thread::current().id()
        })
        .into_iter()
        .map(Option::unwrap)
        .collect()
    }

    #[test]
    fn a_job_that_fans_out_on_its_own_pool_completes() {
        within(30, || {
            let pool = WorkerPool::new(2);
            let out = pool.run_slots(vec![0u64, 1], |i| {
                // On one of this pool's workers: runs inline, never queues
                // behind the job that is waiting for it.
                pool.run_slots(vec![i * 10, i * 10 + 1], |j| j + 1)
                    .into_iter()
                    .map(Option::unwrap)
                    .sum::<u64>()
            });
            assert_eq!(out, vec![Some(3), Some(23)]);
        });
    }

    #[test]
    fn workers_survive_a_panic_and_are_never_respawned() {
        within(30, || {
            let pool = WorkerPool::new(2);
            let first = two_overlapping_job_threads(&pool);
            assert_eq!(first.len(), 2);
            let slots = pool.run_slots(vec![0, 1], |i| {
                if i == 1 {
                    panic!("poisoned job");
                }
                i
            });
            assert_eq!(slots, vec![Some(0), None]);
            // Still two distinct workers, and the same two as before.
            for _ in 0..10 {
                let ids = two_overlapping_job_threads(&pool);
                assert_eq!(ids, first, "a fan-out spawned a new worker");
            }
        });
    }

    #[test]
    fn a_calls_buckets_run_on_distinct_workers() {
        let pool = WorkerPool::new(3);
        let mut seen = HashSet::new();
        for _ in 0..20 {
            let ids: HashSet<ThreadId> = pool
                .run_slots(vec![0, 1, 2], |_| std::thread::current().id())
                .into_iter()
                .map(Option::unwrap)
                .collect();
            // However warm one worker is, it never takes a sibling's bucket.
            assert_eq!(ids.len(), 3, "a call's buckets shared a worker");
            seen.extend(ids);
        }
        assert_eq!(seen.len(), 3, "a call ran on a thread outside the pool");
    }

    #[test]
    fn the_last_handle_joins_the_workers() {
        thread_local! {
            static EXIT_SIGNAL: std::cell::RefCell<Option<mpsc::Sender<()>>> =
                const { std::cell::RefCell::new(None) };
        }
        within(30, || {
            let (tx, rx) = mpsc::channel::<()>();
            let pool = WorkerPool::new(2);
            let clone = pool.clone();
            let barrier = Barrier::new(2);
            pool.run_slots(vec![tx.clone(), tx], |tx| {
                // Dropped when the worker thread exits.
                EXIT_SIGNAL.with(|s| *s.borrow_mut() = Some(tx));
                barrier.wait();
            });
            drop(pool);
            assert_eq!(
                rx.try_recv(),
                Err(mpsc::TryRecvError::Empty),
                "a clone is alive, so the workers must be too"
            );
            drop(clone);
            assert_eq!(
                rx.try_recv(),
                Err(mpsc::TryRecvError::Disconnected),
                "the last drop returned before its workers exited"
            );
        });
    }

    #[test]
    fn a_worker_serves_each_caller_with_its_own_collector() {
        let pool = WorkerPool::new(2);
        let (a, b) = (
            tracing::TimingSubscriber::shared(),
            tracing::TimingSubscriber::shared(),
        );
        let fan_out = |pool: &WorkerPool| {
            pool.run("Test", vec![0, 1, 2], |i| {
                tracing::record("op.Test.partition", Duration::from_micros(1));
                Ok(i)
            })
            .unwrap();
        };
        for _ in 0..5 {
            tracing::with_collector(a.clone(), || fan_out(&pool));
            tracing::with_collector(b.clone(), || fan_out(&pool));
        }
        assert_eq!(a.histogram("op.Test.partition").unwrap().count(), 15);
        assert_eq!(b.histogram("op.Test.partition").unwrap().count(), 15);
        // A call with no collector must not reach the last caller's store.
        fan_out(&pool);
        assert_eq!(b.histogram("op.Test.partition").unwrap().count(), 15);
    }

    #[test]
    fn collector_handoff_reaches_worker_threads() {
        let sub = tracing::TimingSubscriber::shared();
        let pool = WorkerPool::new(4);
        tracing::with_collector(sub.clone(), || {
            pool.run("Test", (0..8).collect::<Vec<usize>>(), |i| {
                tracing::record("op.Test.partition", std::time::Duration::from_micros(1));
                Ok(i)
            })
            .unwrap();
        });
        assert_eq!(sub.histogram("op.Test.partition").unwrap().count(), 8);
    }
}
