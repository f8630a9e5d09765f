//! The serve tier's locks: poison recovery, the token scheduler hook, and
//! (in debug builds) lock-level checks.
//!
//! Every lock in this crate is a [`Mutex`] or [`RwLock`] from this module,
//! built with its [`Level`], and is acquired only through [`lock`],
//! [`read`], [`read_nested`] and [`write`]. CI fails if code outside this
//! file names `std`'s lock types.
//!
//! **Poison recovery.** `std` mutexes poison when a holder panics, and
//! every later `lock()` returns `Err` forever — one panicking worker would
//! wedge the whole service. Every shared structure in this crate is a
//! plain counter map, a queue of owned deltas, or a registry of owned
//! views; all of them are valid at every instruction boundary (no
//! multi-step invariants repaired after the fact), so recovering a
//! poisoned guard with [`PoisonError::into_inner`] is always sound here.
//! `expect`/`unwrap` on lock results is denied crate-wide (see `lib.rs`).
//! Every recovery increments a process-wide counter (surfaced as
//! `gpivot_lock_poisoned_total` in the metrics snapshot) and emits a
//! `lock.poisoned` trace event, so silent panics in lock holders are
//! visible in monitoring rather than papered over.
//!
//! **Lock levels.** A thread may acquire a lock only above every level it
//! already holds, so no two threads can wait on each other in a cycle.
//! Under `cfg(debug_assertions)` each thread keeps the list of guards it
//! holds, with their levels and acquisition sites, and the helpers panic
//! on a violation, naming its code and both sites (the lockdep idea of
//! lock classes, with the class order fixed in [`Level`]):
//!
//! | code  | panics when |
//! |-------|-------------|
//! | GP030 | a lock is acquired at or below a level this thread holds (an inverted pair, or a reacquire of a held lock) |
//! | GP031 | a thread write-locks an `RwLock` it holds for reading (an upgrade: it would wait for itself) |
//! | GP032 | a guard is held at the refresh `catch_unwind` boundary, or a guard outside the fsync allow-list is held where `durable.rs` may fsync |
//! | GP033 | a guard outside the call site's allow-list is held across [`run_slots`], or a job takes a lock at or below one its waiting caller holds |
//! | GP034 | a condvar wait holds any guard besides the one it releases |
//!
//! Release builds compile every check out: the guards then carry nothing
//! but the `std` guard.
//!
//! **Token scheduler.** Under `--features shuttle` the helpers route
//! through the cooperative token scheduler in `compat/shuttle` when a
//! model-checking run is active: acquisition becomes a `try_lock` +
//! `blocked_yield` loop, which lets the scheduler deterministically
//! serialize thread steps and detect deadlocks (a full round of blocked
//! threads with no progress). Outside an active scheduler run — including
//! ordinary tests compiled with the feature — the `std` fast path is taken
//! unchanged.

use gpivot_exec::WorkerPool;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
pub(crate) use std::sync::Condvar;
use std::sync::{PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// The lock order, outermost first: a thread holding a lock of one level
/// may only acquire locks of a later one. One value per lock class; the
/// instances of a class (say, every shard's `state`) share its level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Level {
    /// `ShardedService`'s gate: serializes tier epochs, registrations and
    /// promotions.
    ShardGate,
    /// `ShardedService`'s router: read across an ingest's fan-out, written
    /// by a routing change until its rows have moved.
    ShardRouter,
    /// `ShardedService`'s per-key delta frequencies.
    ShardFreq,
    /// `ViewService`'s gate: serializes epochs and registry changes.
    Gate,
    /// `ViewService`'s catalog and views.
    State,
    /// `ViewService`'s ingest queue (its condvar waits release it).
    Queue,
    /// A durable service's write-ahead log, appended under the queue lock.
    Wal,
    /// `ViewService`'s counters: a leaf.
    Metrics,
}

/// A `std` mutex with a [`Level`]; acquire it with [`lock`].
pub(crate) struct Mutex<T> {
    level: Level,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub(crate) const fn new(level: Level, value: T) -> Self {
        Mutex {
            level,
            inner: std::sync::Mutex::new(value),
        }
    }
}

/// A `std` reader-writer lock with a [`Level`]; acquire it with [`read`],
/// [`read_nested`] or [`write`].
pub(crate) struct RwLock<T> {
    level: Level,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub(crate) const fn new(level: Level, value: T) -> Self {
        RwLock {
            level,
            inner: std::sync::RwLock::new(value),
        }
    }
}

/// A `std` guard plus, in debug builds, its entry in this thread's list of
/// held locks, removed when the guard drops (in any order).
pub(crate) struct Guard<G> {
    inner: G,
    _held: Held,
}

pub(crate) type MutexGuard<'a, T> = Guard<std::sync::MutexGuard<'a, T>>;
pub(crate) type ReadGuard<'a, T> = Guard<std::sync::RwLockReadGuard<'a, T>>;
pub(crate) type WriteGuard<'a, T> = Guard<std::sync::RwLockWriteGuard<'a, T>>;

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

/// Process-wide count of poisoned-guard recoveries (monotonic; never reset).
static POISONED_TOTAL: AtomicU64 = AtomicU64::new(0);

/// How many times a lock helper has recovered a poisoned guard since
/// process start. Exported as `gpivot_lock_poisoned_total`.
pub(crate) fn poisoned_total() -> u64 {
    POISONED_TOTAL.load(Ordering::Relaxed)
}

/// Recover a poisoned guard, counting the recovery and emitting a
/// `lock.poisoned` trace event (a panic in a lock holder is worth an
/// alert even when recovery is sound).
fn recover<G>(e: PoisonError<G>) -> G {
    POISONED_TOTAL.fetch_add(1, Ordering::Relaxed);
    tracing::event("lock.poisoned", "recovered guard after holder panic");
    e.into_inner()
}

/// Acquire through `try_acquire` as one scheduler step when a token
/// scheduler run is active; `None` otherwise.
#[cfg(feature = "shuttle")]
fn scheduled<G>(
    try_acquire: impl Fn() -> std::sync::TryLockResult<G>,
) -> Option<std::sync::LockResult<G>> {
    if !shuttle::sched::active() {
        return None;
    }
    // Every acquisition is a scheduler choice point: without this, the
    // token holder would run to completion (it only yields on a *failed*
    // try-lock) and every seed would collapse to the same sequential
    // schedule.
    shuttle::sched::yield_now();
    loop {
        match try_acquire() {
            Ok(g) => {
                shuttle::sched::progress();
                return Some(Ok(g));
            }
            Err(std::sync::TryLockError::Poisoned(e)) => {
                shuttle::sched::progress();
                return Some(Err(e));
            }
            Err(std::sync::TryLockError::WouldBlock) => shuttle::sched::blocked_yield(),
        }
    }
}

/// Lock a mutex, recovering the guard if a previous holder panicked.
#[track_caller]
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    let held = Held::acquire(m.level, &m.inner, Mode::Exclusive);
    #[cfg(feature = "shuttle")]
    if let Some(r) = scheduled(|| m.inner.try_lock()) {
        return held.guard(r.unwrap_or_else(recover));
    }
    held.guard(m.inner.lock().unwrap_or_else(recover))
}

/// Read-lock an `RwLock`, recovering from poison.
#[track_caller]
pub(crate) fn read<T>(l: &RwLock<T>) -> ReadGuard<'_, T> {
    let held = Held::acquire(l.level, &l.inner, Mode::Read);
    read_with(l, held)
}

/// Read-lock one of several locks of a class that a caller holds together
/// (lockdep's `_nested`): allowed while this thread holds read guards of
/// *other* locks at `l`'s level and nothing above it. The sharded
/// snapshot reads every shard's state this way.
#[track_caller]
pub(crate) fn read_nested<T>(l: &RwLock<T>) -> ReadGuard<'_, T> {
    let held = Held::acquire(l.level, &l.inner, Mode::NestedRead);
    read_with(l, held)
}

fn read_with<T>(l: &RwLock<T>, held: Held) -> ReadGuard<'_, T> {
    #[cfg(feature = "shuttle")]
    if let Some(r) = scheduled(|| l.inner.try_read()) {
        return held.guard(r.unwrap_or_else(recover));
    }
    held.guard(l.inner.read().unwrap_or_else(recover))
}

/// Write-lock an `RwLock`, recovering from poison.
#[track_caller]
pub(crate) fn write<T>(l: &RwLock<T>) -> WriteGuard<'_, T> {
    let held = Held::acquire(l.level, &l.inner, Mode::Write);
    #[cfg(feature = "shuttle")]
    if let Some(r) = scheduled(|| l.inner.try_write()) {
        return held.guard(r.unwrap_or_else(recover));
    }
    held.guard(l.inner.write().unwrap_or_else(recover))
}

/// Wait on a condvar, recovering the re-acquired guard from poison.
///
/// `m` must be the mutex `guard` was taken from (the `std` condvar API
/// does not need it, but the scheduler shim re-locks through it after a
/// cooperative release). Callers already loop on their predicate, so the
/// shim's release → yield → re-lock is indistinguishable from a spurious
/// wakeup. Debug builds panic (GP034) if the thread holds any other guard.
#[track_caller]
pub(crate) fn wait<'a, T>(
    cv: &Condvar,
    m: &'a Mutex<T>,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    guard._held.assert_alone();
    #[cfg(feature = "shuttle")]
    if shuttle::sched::active() {
        drop(guard);
        shuttle::sched::yield_now();
        return lock(m);
    }
    let _ = m;
    let Guard { inner, _held } = guard;
    Guard {
        inner: cv.wait(inner).unwrap_or_else(recover),
        _held,
    }
}

/// Wait on a condvar with a timeout, recovering from poison. As with
/// [`wait`], `m` is the guarded mutex; the scheduler shim reports a
/// timed-out result (callers re-check their deadline either way).
#[track_caller]
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    m: &'a Mutex<T>,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    guard._held.assert_alone();
    let Guard { inner, _held } = guard;
    #[cfg(feature = "shuttle")]
    if shuttle::sched::active() {
        // A zero-length real wait is the only way to mint a
        // `WaitTimeoutResult`; no other runnable thread holds the token,
        // so the re-acquire inside it cannot block.
        let (g, r) = cv
            .wait_timeout(inner, Duration::ZERO)
            .unwrap_or_else(recover);
        drop(Guard { inner: g, _held });
        shuttle::sched::yield_now();
        return (lock(m), r);
    }
    let _ = m;
    let (inner, r) = cv.wait_timeout(inner, dur).unwrap_or_else(recover);
    (Guard { inner, _held }, r)
}

/// [`WorkerPool::run_slots`] with the caller's guards checked: debug
/// builds panic (GP033) if this thread holds a level outside `allowed`,
/// and each job runs with the caller's guards marked inherited, so a job
/// that takes a lock at or below one of them panics instead of waiting on
/// its own caller.
#[track_caller]
pub(crate) fn run_slots<T, R, F>(
    pool: &WorkerPool,
    allowed: &[Level],
    jobs: Vec<T>,
    f: F,
) -> Vec<Option<R>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    #[cfg(debug_assertions)]
    {
        check::assert_within("GP033", "across run_slots", allowed);
        let inherited = check::Inherit::caller();
        pool.run_slots(jobs, |job| {
            let _inherit = check::Inherit::enter(&inherited);
            f(job)
        })
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = allowed;
        pool.run_slots(jobs, f)
    }
}

/// Debug builds panic (GP032) if this thread holds a guard of its own:
/// the caller is about to catch panics, and a panic under a guard poisons
/// its lock. Guards a waiting `run_slots` caller holds are allowed.
#[track_caller]
pub(crate) fn assert_unlocked() {
    #[cfg(debug_assertions)]
    check::assert_within("GP032", "at a catch_unwind boundary", &[]);
}

/// Debug builds panic (GP032) if this thread holds a level outside
/// `allowed` where the caller may fsync: an fsync under a lock makes
/// every waiter on it wait for the disk.
#[track_caller]
pub(crate) fn assert_may_fsync(allowed: &[Level]) {
    #[cfg(debug_assertions)]
    check::assert_within("GP032", "across an fsync", allowed);
    #[cfg(not(debug_assertions))]
    let _ = allowed;
}

/// How a guard holds its lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Exclusive,
    Read,
    /// A read of another lock of a class already read ([`read_nested`]).
    NestedRead,
    Write,
}

/// A guard's entry in its thread's held list, keyed by the lock's address
/// (debug builds only; a thread holds each lock at most once).
struct Held {
    #[cfg(debug_assertions)]
    lock: usize,
}

impl Held {
    /// Check that this thread may acquire `lock` at `level` (panicking if
    /// not), and record it as held. Runs before the acquisition blocks,
    /// so an order violation panics instead of deadlocking.
    #[track_caller]
    fn acquire<L>(level: Level, lock: &L, mode: Mode) -> Held {
        #[cfg(debug_assertions)]
        {
            let lock = lock as *const L as usize;
            check::acquire(level, lock, mode);
            Held { lock }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = (level, lock, mode);
            Held {}
        }
    }

    fn guard<G>(self, inner: G) -> Guard<G> {
        Guard { inner, _held: self }
    }

    /// Debug builds panic (GP034) unless this is the only guard held.
    #[track_caller]
    fn assert_alone(&self) {
        #[cfg(debug_assertions)]
        check::assert_alone(self.lock);
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        // Never panics: a guard dropped as its thread exits may outlive
        // the list.
        let _ = check::HELD.try_with(|held| {
            if let Ok(mut held) = held.try_borrow_mut() {
                held.retain(|e| e.lock != self.lock || e.inherited);
            }
        });
    }
}

/// The per-thread held list behind the level checks.
#[cfg(debug_assertions)]
mod check {
    use super::{Level, Mode};
    use std::cell::RefCell;
    use std::panic::Location;

    #[derive(Clone, Debug)]
    pub(super) struct Entry {
        pub(super) level: Level,
        /// The lock's address: tells a reacquire from a second lock of
        /// the same class.
        pub(super) lock: usize,
        mode: Mode,
        site: &'static Location<'static>,
        /// Held by a `run_slots` caller that waits for this thread's job.
        pub(super) inherited: bool,
    }

    thread_local! {
        pub(super) static HELD: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
    }

    #[track_caller]
    pub(super) fn acquire(level: Level, lock: usize, mode: Mode) {
        let site = Location::caller();
        let refused = HELD.with_borrow_mut(|held| {
            let Some(other) = conflict(held, level, lock, mode) else {
                let inherited = false;
                held.push(Entry { level, lock, mode, site, inherited });
                return None;
            };
            let (code, what) = if other.inherited {
                ("GP033", "a run_slots job locks at or below its waiting caller")
            } else if other.lock != lock {
                ("GP030", "lock order inversion")
            } else if mode == Mode::Write && other.mode != Mode::Write {
                ("GP031", "read→write upgrade")
            } else {
                ("GP030", "reacquire")
            };
            let inherited = if other.inherited { ", inherited" } else { "" };
            Some(format!(
                "{code}: {what}: {level:?} ({mode:?}) acquired at {site} while {:?} ({:?}{inherited}) \
                 is held, acquired at {}",
                other.level, other.mode, other.site,
            ))
        });
        // Panic with the list released: the guards the unwind drops
        // remove their entries from it.
        if let Some(message) = refused {
            panic!("{message}");
        }
    }

    /// The held entry that forbids acquiring `lock` at `level`, if any:
    /// the same lock if it is held, else the highest level at or above
    /// `level` — unless this is a nested read among reads of other locks
    /// of the same class.
    fn conflict(held: &[Entry], level: Level, lock: usize, mode: Mode) -> Option<Entry> {
        if let Some(same) = held.iter().find(|e| e.lock == lock) {
            return Some(same.clone());
        }
        let blocking = || held.iter().filter(|e| e.level >= level);
        let read = |e: &Entry| matches!(e.mode, Mode::Read | Mode::NestedRead);
        let nested = mode == Mode::NestedRead
            && blocking().all(|e| e.level == level && read(e) && !e.inherited);
        if nested {
            return None;
        }
        blocking().max_by_key(|e| e.level).cloned()
    }

    /// Panic with `code` if this thread holds a guard of its own (not
    /// inherited) at a level outside `allowed`.
    #[track_caller]
    pub(super) fn assert_within(code: &str, what: &str, allowed: &[Level]) {
        let site = Location::caller();
        let own = |e: &&Entry| !e.inherited && !allowed.contains(&e.level);
        if let Some(e) = HELD.with_borrow(|held| held.iter().find(own).cloned()) {
            panic!(
                "{code}: {:?} ({:?}) held {what} at {site} (allowed: {allowed:?}), acquired at {}",
                e.level, e.mode, e.site,
            );
        }
    }

    /// Panic (GP034) if this thread holds any guard besides `lock`'s.
    #[track_caller]
    pub(super) fn assert_alone(lock: usize) {
        let site = Location::caller();
        if let Some(e) = HELD.with_borrow(|held| held.iter().find(|e| e.lock != lock).cloned()) {
            panic!(
                "GP034: condvar wait at {site} while {:?} ({:?}) is held, acquired at {}",
                e.level, e.mode, e.site,
            );
        }
    }

    /// A `run_slots` job's view of the held list: its caller's entries,
    /// marked inherited, in place of whatever the thread held; restored
    /// on drop (on unwind too).
    pub(super) struct Inherit(Vec<Entry>);

    impl Inherit {
        /// This thread's held list, every entry marked inherited.
        pub(super) fn caller() -> Vec<Entry> {
            let inherit = |e: &Entry| Entry {
                inherited: true,
                ..e.clone()
            };
            HELD.with_borrow(|held| held.iter().map(inherit).collect())
        }

        pub(super) fn enter(inherited: &[Entry]) -> Inherit {
            Inherit(HELD.replace(inherited.to_vec()))
        }
    }

    impl Drop for Inherit {
        fn drop(&mut self) {
            HELD.set(std::mem::take(&mut self.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_recovers_after_holder_panics() {
        let before = poisoned_total();
        let m = Arc::new(Mutex::new(Level::Metrics, 41));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock(&m2);
            panic!("poison it");
        })
        .join();
        assert!(m.inner.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 42);
        assert!(
            poisoned_total() > before,
            "recovery must bump gpivot_lock_poisoned_total"
        );
    }

    #[test]
    fn rwlock_recovers_after_writer_panics() {
        let l = Arc::new(RwLock::new(Level::State, vec![1, 2, 3]));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = write(&l2);
            panic!("poison it");
        })
        .join();
        assert!(l.inner.is_poisoned());
        assert_eq!(read(&l).len(), 3);
        write(&l).push(4);
        assert_eq!(read(&l).len(), 4);
    }

    /// The level checks exist only in debug builds.
    #[cfg(debug_assertions)]
    mod levels {
        use super::*;

        fn held_levels() -> Vec<Level> {
            check::HELD.with_borrow(|held| held.iter().map(|e| e.level).collect())
        }

        #[test]
        fn guards_in_order_pass_and_out_of_order_drops_empty_the_list() {
            let (gate, state, queue) = (
                Mutex::new(Level::Gate, ()),
                RwLock::new(Level::State, ()),
                Mutex::new(Level::Queue, ()),
            );
            let (a, b, c) = (lock(&gate), read(&state), lock(&queue));
            assert_eq!(held_levels(), [Level::Gate, Level::State, Level::Queue]);
            drop(b);
            drop(a);
            assert_eq!(held_levels(), [Level::Queue]);
            drop(c);
            assert_eq!(held_levels(), []);
            // A level freed out of order can be taken again.
            let _s = write(&state);
            let _q = lock(&queue);
        }

        #[test]
        #[should_panic(expected = "GP030: lock order inversion")]
        fn an_inverted_pair_is_gp030() {
            let (state, gate) = (RwLock::new(Level::State, ()), Mutex::new(Level::Gate, ()));
            let _s = read(&state);
            let _g = lock(&gate);
        }

        #[test]
        #[should_panic(expected = "GP030: reacquire")]
        fn a_mutex_reacquire_is_gp030() {
            let queue = Mutex::new(Level::Queue, ());
            let _a = lock(&queue);
            let _b = lock(&queue);
        }

        #[test]
        #[should_panic(expected = "GP031: read→write upgrade")]
        fn a_read_write_upgrade_is_gp031() {
            let state = RwLock::new(Level::State, ());
            let _r = read(&state);
            let _w = write(&state);
        }

        #[test]
        fn nested_reads_of_distinct_locks_of_one_class_pass() {
            let shards = [RwLock::new(Level::State, 1), RwLock::new(Level::State, 2)];
            let guards: Vec<_> = shards.iter().map(read_nested).collect();
            assert_eq!(guards.iter().map(|g| **g).sum::<i32>(), 3);
        }

        #[test]
        #[should_panic(expected = "GP030: reacquire")]
        fn a_nested_read_of_a_held_lock_is_gp030() {
            let state = RwLock::new(Level::State, ());
            let _a = read_nested(&state);
            let _b = read_nested(&state);
        }

        #[test]
        #[should_panic(expected = "GP033")]
        fn a_job_taking_its_callers_lock_is_gp033() {
            let gate = Mutex::new(Level::Gate, ());
            let pool = WorkerPool::new(1);
            let _g = lock(&gate);
            // The pool catches the job's panic and leaves its slot empty: the
            // message is the job's, re-raised here.
            let slots = run_slots(&pool, &[Level::Gate], vec![()], |()| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(lock(&gate))))
                    .map_err(|p| p.downcast_ref::<String>().cloned().unwrap_or_default())
            });
            match slots.into_iter().next().flatten() {
                Some(Err(message)) => panic!("{message}"),
                other => panic!("the job took its caller's lock: {other:?}"),
            }
        }

        #[test]
        #[should_panic(expected = "GP033")]
        fn a_guard_outside_the_allow_list_across_run_slots_is_gp033() {
            let metrics = Mutex::new(Level::Metrics, ());
            let _m = lock(&metrics);
            run_slots(&WorkerPool::new(1), &[Level::Gate], vec![()], |()| ());
        }

        #[test]
        fn a_job_takes_locks_above_its_callers_and_the_list_is_restored() {
            let (gate, queue) = (Mutex::new(Level::Gate, ()), Mutex::new(Level::Queue, ()));
            let _g = lock(&gate);
            for width in [1, 2] {
                let slots = run_slots(&WorkerPool::new(width), &[Level::Gate], vec![(); 3], |()| {
                    drop(lock(&queue));
                    held_levels()
                });
                for slot in slots {
                    assert_eq!(slot, Some(vec![Level::Gate]), "inherited, not owned");
                }
                assert_eq!(held_levels(), [Level::Gate]);
            }
        }

        #[test]
        #[should_panic(expected = "GP034")]
        fn a_wait_holding_a_second_guard_is_gp034() {
            let (state, queue) = (RwLock::new(Level::State, ()), Mutex::new(Level::Queue, ()));
            let cv = Condvar::new();
            let _s = read(&state);
            let q = lock(&queue);
            let _ = wait_timeout(&cv, &queue, q, Duration::from_millis(1));
        }

        #[test]
        #[should_panic(expected = "GP032")]
        fn a_guard_held_at_catch_unwind_is_gp032() {
            let metrics = Mutex::new(Level::Metrics, ());
            let _m = lock(&metrics);
            assert_unlocked();
        }
    }
}
