//! Dependency-free scoped-thread worker pool: the workspace's one fan-out
//! loop (round-robin buckets over `std::thread::scope`, order-preserving
//! result slots — [`WorkerPool::run_slots`]). Operator kernels and the
//! serve layer's epoch fan-out both submit their jobs here:
//!
//! * **Determinism** — results come back in job (partition) index order,
//!   and when several jobs fail the error of the lowest-indexed job wins,
//!   so a query's outcome never depends on thread scheduling.
//! * **Panic isolation** — every job runs under `catch_unwind`, on the
//!   inline path too, so a poisoned partition surfaces as a classified
//!   [`ExecError::WorkerPanic`] instead of hanging the query or killing
//!   the process.
//! * **Collector handoff** — the collector installed on the calling
//!   thread (see `tracing::current_collector`) is re-installed on each
//!   worker, so per-partition spans land in the same timing store as the
//!   rest of the query.
//!
//! [`partition_by_hash`] and [`morsels`] are the two job-shaping helpers
//! the parallel kernels share: hash partitioning keeps equal keys in the
//! same partition (joins, grouping, pivoting), morsels keep row order
//! (selection, projection).

use crate::error::{ExecError, Result};
use gpivot_storage::Row;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A scoped-thread pool of a fixed width. Threads are spawned per
/// [`WorkerPool::run`] call (scoped, so jobs may borrow from the caller)
/// and joined before it returns; the pool itself is just configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool { threads: 1 }
    }
}

impl WorkerPool {
    /// A pool that runs jobs on `threads` workers (clamped to ≥ 1).
    /// `threads == 1` runs every job inline on the calling thread.
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// Worker width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The one fan-out loop: run `f` over `jobs` on up to `threads` scoped
    /// workers (round-robin buckets; inline when one worker suffices),
    /// returning one slot per job in job order regardless of which worker
    /// ran which job. Every job runs under `catch_unwind`, on the inline
    /// path too, and the calling thread's tracing collector is
    /// re-installed on each worker. A slot is `None` iff its job panicked
    /// (or its worker died outside the per-job boundary); callers must
    /// treat that as a failure, never unwrap it.
    pub fn run_slots<T, R, F>(&self, jobs: Vec<T>, f: F) -> Vec<Option<R>>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = jobs.len();
        let workers = self.threads.min(n);
        let f = &f;
        let caught = move |job: T| catch_unwind(AssertUnwindSafe(|| f(job))).ok();
        if workers <= 1 {
            return jobs.into_iter().map(caught).collect();
        }
        let collector = tracing::current_collector();
        let mut buckets: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, job) in jobs.into_iter().enumerate() {
            buckets[i % workers].push((i, job));
        }
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| {
                    let collector = collector.clone();
                    s.spawn(move || {
                        let _guard = collector.map(tracing::push_collector);
                        bucket
                            .into_iter()
                            .map(|(i, job)| (i, caught(job)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                // Jobs are individually caught; a bucket-level join error
                // would mean a panic outside the isolation boundary. Its
                // slots stay empty.
                if let Ok(pairs) = h.join() {
                    for (i, r) in pairs {
                        slots[i] = r;
                    }
                }
            }
        });
        slots
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
/// keys — NOT a `RandomState` — so the partitioning (and therefore the
/// merged output order) is identical across processes and thread counts.
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
    use std::sync::Arc;

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
        let _ = Arc::strong_count(&sub);
    }
}
