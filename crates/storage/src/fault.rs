//! Deterministic, seeded fault injection for chaos-testing the engine.
//!
//! A [`FaultInjector`] is a cheap-to-clone handle (clones share state) that
//! the layers above consult at well-known **sites**: the exec providers
//! check [`FaultSite::Scan`] before handing out a table, the maintenance
//! engine checks [`FaultSite::Propagate`] / [`FaultSite::Apply`] around a
//! view refresh, and the catalog checks [`FaultSite::Commit`] before
//! applying a base-table delta. Each check rolls a seeded xorshift RNG; on a
//! hit the injector either returns [`StorageError::FaultInjected`] (the
//! common case) or panics (to exercise panic isolation in worker pools).
//!
//! The default injector ([`FaultInjector::disabled`], also `Default`) never
//! fires and costs one relaxed atomic load per check, so production paths
//! pay nothing for the hooks.
//!
//! Determinism: given a fixed seed and a single-threaded caller, the fault
//! schedule is exactly reproducible. Work that runs on many threads at once
//! keeps it reproducible with per-job streams: a job that opens
//! [`FaultInjector::stream`] (seeded from the injector's seed, an epoch
//! ordinal and the job's name) draws every one of its checks from that
//! stream, so what fires in it no longer depends on how the jobs
//! interleave. Checks outside a stream draw from the injector's shared RNG.
//! The fault budget and the counters stay shared.

use crate::error::StorageError;
use std::cell::Cell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

thread_local! {
    /// The stream this thread's checks draw from: the owning injector's
    /// address and its xorshift state. Installed by [`FaultInjector::stream`].
    static STREAM: Cell<Option<(usize, u64)>> = const { Cell::new(None) };
}

/// Where in the engine a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A plan `Scan` resolving its table through an exec provider.
    Scan,
    /// The propagate phase of one view's refresh (context = view name).
    Propagate,
    /// The apply phase of one view's refresh (context = view name).
    Apply,
    /// Base-table delta application / staging (context = table name).
    Commit,
    /// A write-ahead-log record append (context = record kind). A kill
    /// point here leaves a *torn* prefix of the record on disk.
    WalAppend,
    /// A write-ahead-log fsync (context = record kind / policy trigger). A
    /// kill point here leaves the record fully written but unacknowledged.
    WalFsync,
    /// A checkpoint snapshot write (context = checkpoint file stem). A kill
    /// point here leaves a partial temp file that recovery must ignore.
    CheckpointWrite,
}

impl FaultSite {
    /// Stable lowercase name (used in error messages and configs).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Scan => "scan",
            FaultSite::Propagate => "propagate",
            FaultSite::Apply => "apply",
            FaultSite::Commit => "commit",
            FaultSite::WalAppend => "wal-append",
            FaultSite::WalFsync => "wal-fsync",
            FaultSite::CheckpointWrite => "checkpoint-write",
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-site injection configuration.
#[derive(Debug, Clone)]
struct SiteConfig {
    /// Probability in `[0, 1]` that a check at this site fires.
    probability: f64,
    /// Of the faults that fire here, the fraction raised as panics instead
    /// of errors (`0.0` = always an error, `1.0` = always a panic).
    panic_fraction: f64,
    /// If set, only checks whose context string equals this fire.
    target: Option<String>,
}

#[derive(Debug)]
struct InjectorState {
    /// xorshift64* state; never zero.
    rng: u64,
    sites: HashMap<FaultSite, SiteConfig>,
    /// One-shot *kill points*: site → the 1-based armed-check ordinal at
    /// which the check aborts with [`StorageError::KillPoint`] (simulated
    /// process death). Consumed when fired.
    kill_points: HashMap<FaultSite, u64>,
    /// Armed checks observed per site (kill-point ordinals index into this).
    site_checks: HashMap<FaultSite, u64>,
    /// Remaining faults allowed (`None` = unlimited).
    budget: Option<u64>,
    checks: u64,
    faults: u64,
    panics: u64,
    kills: u64,
}

#[derive(Debug)]
struct Shared {
    /// Fast-path gate: when false, `check` returns immediately.
    armed: AtomicBool,
    /// The construction seed, which per-job streams derive from.
    seed: u64,
    state: Mutex<InjectorState>,
}

/// A shared, seeded fault-injection schedule. See the module docs.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    shared: Arc<Shared>,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::disabled()
    }
}

/// What one check decided to do (resolved under the state lock, executed
/// after releasing it so an injected panic can never poison the injector).
enum Decision {
    Pass,
    Error,
    Panic,
    Kill,
}

impl FaultInjector {
    /// An injector that never fires (the production default).
    pub fn disabled() -> Self {
        let inj = FaultInjector::seeded(0);
        inj.shared.armed.store(false, Ordering::Release);
        inj
    }

    /// A fresh armed injector with no sites configured yet.
    pub fn seeded(seed: u64) -> Self {
        FaultInjector {
            shared: Arc::new(Shared {
                armed: AtomicBool::new(true),
                seed,
                state: Mutex::new(InjectorState {
                    // xorshift needs a nonzero state; fold the seed in.
                    rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
                    sites: HashMap::new(),
                    kill_points: HashMap::new(),
                    site_checks: HashMap::new(),
                    budget: None,
                    checks: 0,
                    faults: 0,
                    panics: 0,
                    kills: 0,
                }),
            }),
        }
    }

    /// Configure a site to fail with `probability`; `panic_fraction` of the
    /// fired faults panic instead of returning an error.
    pub fn with_site(self, site: FaultSite, probability: f64, panic_fraction: f64) -> Self {
        self.lock().sites.insert(
            site,
            SiteConfig {
                probability: probability.clamp(0.0, 1.0),
                panic_fraction: panic_fraction.clamp(0.0, 1.0),
                target: None,
            },
        );
        self
    }

    /// Like [`FaultInjector::with_site`], but only fires when the check's
    /// context string equals `target` (e.g. one view or table name).
    pub fn with_targeted_site(
        self,
        site: FaultSite,
        probability: f64,
        panic_fraction: f64,
        target: impl Into<String>,
    ) -> Self {
        self.lock().sites.insert(
            site,
            SiteConfig {
                probability: probability.clamp(0.0, 1.0),
                panic_fraction: panic_fraction.clamp(0.0, 1.0),
                target: Some(target.into()),
            },
        );
        self
    }

    /// Cap the total number of faults this injector will ever fire; after
    /// the budget is spent every check passes (lets chaos runs drain clean).
    pub fn with_budget(self, faults: u64) -> Self {
        self.lock().budget = Some(faults);
        self
    }

    /// Arm a one-shot **kill point**: the `nth` armed check at `site`
    /// (1-based, counted per site) aborts with [`StorageError::KillPoint`]
    /// instead of rolling the probabilistic schedule. The durability layer
    /// treats it as simulated process death: a WAL append killed this way
    /// leaves a deliberately torn record on disk, a checkpoint write leaves
    /// a partial temp file. Fires at most once, independent of the fault
    /// budget; `nth == 0` never fires.
    pub fn with_kill_point(self, site: FaultSite, nth: u64) -> Self {
        self.lock().kill_points.insert(site, nth);
        self
    }

    /// Armed checks observed at `site` so far (the ordinal space
    /// [`FaultInjector::with_kill_point`] indexes into). Useful for sizing a
    /// kill-point matrix: dry-run a schedule, read the per-site totals, then
    /// re-run once per ordinal.
    pub fn site_checks(&self, site: FaultSite) -> u64 {
        self.lock().site_checks.get(&site).copied().unwrap_or(0)
    }

    /// Kill points fired so far.
    pub fn kills_fired(&self) -> u64 {
        self.lock().kills
    }

    /// A seeded draw in `[0, 1)` from the injector's own RNG (advances the
    /// shared state). The WAL uses this to pick a deterministic torn-prefix
    /// length when a kill point aborts an append mid-record.
    pub fn roll_unit(&self) -> f64 {
        next_unit(&mut self.lock().rng)
    }

    /// Open a per-job fault stream on this thread: until the returned
    /// guard drops, every check this thread makes against this injector
    /// (or a clone) draws from a stream seeded by (injector seed, `epoch`,
    /// `job`) instead of the shared RNG. A job's faults then depend only
    /// on its own checks, never on what other threads drew in between.
    /// Dropping the guard restores whatever stream it replaced.
    pub fn stream(&self, epoch: u64, job: &str) -> FaultStream<'_> {
        // FNV-1a over the job name, then a splitmix64 finalizer over
        // (seed, epoch, name): nearby epochs and names get unrelated streams.
        let name = job.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        let mut x = self.shared.seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ name;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let rng = (x ^ (x >> 31)) | 1; // xorshift needs a nonzero state
        let prev = STREAM.with(|s| s.replace(Some((self.id(), rng))));
        FaultStream {
            prev,
            _injector: PhantomData,
        }
    }

    /// Identity of the shared state (clones share it).
    fn id(&self) -> usize {
        Arc::as_ptr(&self.shared) as usize
    }

    /// The next `[0, 1)` draw for a check: from this thread's stream when
    /// one is open on this injector, else from the shared RNG.
    fn draw(&self, st: &mut InjectorState) -> f64 {
        STREAM.with(|s| match s.get() {
            Some((owner, mut rng)) if owner == self.id() => {
                let u = next_unit(&mut rng);
                s.set(Some((owner, rng)));
                u
            }
            _ => next_unit(&mut st.rng),
        })
    }

    /// Stop firing (checks become near-free). Reversible via [`FaultInjector::arm`].
    pub fn disarm(&self) {
        self.shared.armed.store(false, Ordering::Release);
    }

    /// Resume firing after a [`FaultInjector::disarm`].
    pub fn arm(&self) {
        self.shared.armed.store(true, Ordering::Release);
    }

    /// True iff the injector can currently fire.
    pub fn is_armed(&self) -> bool {
        self.shared.armed.load(Ordering::Acquire)
    }

    /// Total checks consulted while armed.
    pub fn checks(&self) -> u64 {
        self.lock().checks
    }

    /// Total faults fired (errors + panics).
    pub fn faults_injected(&self) -> u64 {
        self.lock().faults
    }

    /// Faults fired as panics.
    pub fn panics_injected(&self) -> u64 {
        self.lock().panics
    }

    /// Consult the schedule at `site`. `context` names the object being
    /// operated on (table or view name) and is matched against targeted
    /// sites and embedded in the injected error.
    pub fn check(&self, site: FaultSite, context: &str) -> Result<(), StorageError> {
        if !self.shared.armed.load(Ordering::Acquire) {
            return Ok(());
        }
        let decision = {
            let mut st = self.lock();
            st.checks += 1;
            let seen = st.site_checks.entry(site).or_insert(0);
            *seen += 1;
            let seen = *seen;
            // Kill points fire by ordinal, before (and independent of) the
            // probabilistic site schedule and the fault budget.
            if st.kill_points.get(&site) == Some(&seen) {
                st.kill_points.remove(&site);
                st.kills += 1;
                st.faults += 1;
                Decision::Kill
            } else {
                let Some(cfg) = st.sites.get(&site).cloned() else {
                    return Ok(());
                };
                if let Some(t) = &cfg.target {
                    if t != context {
                        return Ok(());
                    }
                }
                if st.budget == Some(0) {
                    return Ok(());
                }
                if self.draw(&mut st) >= cfg.probability {
                    Decision::Pass
                } else {
                    st.faults += 1;
                    if let Some(b) = st.budget.as_mut() {
                        *b -= 1;
                    }
                    if self.draw(&mut st) < cfg.panic_fraction {
                        st.panics += 1;
                        Decision::Panic
                    } else {
                        Decision::Error
                    }
                }
            }
            // state lock dropped here, before the panic below
        };
        match decision {
            Decision::Pass => Ok(()),
            Decision::Error => Err(StorageError::FaultInjected {
                site: site.name().to_string(),
                op: context.to_string(),
            }),
            Decision::Kill => Err(StorageError::KillPoint {
                site: site.name().to_string(),
                op: context.to_string(),
            }),
            Decision::Panic => panic!("injected fault: panic at {site} site during `{context}`"),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, InjectorState> {
        // Poison-recovering by construction: an injected panic is raised
        // only after the guard is dropped, but a caller panicking elsewhere
        // must never wedge the injector.
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Guard for a per-job fault stream ([`FaultInjector::stream`]).
#[must_use = "the stream closes when the guard drops"]
pub struct FaultStream<'a> {
    prev: Option<(usize, u64)>,
    /// Borrows the injector; the raw pointer keeps the guard on the thread
    /// whose stream it restores (`!Send`).
    _injector: PhantomData<(&'a FaultInjector, *const ())>,
}

impl Drop for FaultStream<'_> {
    fn drop(&mut self) {
        STREAM.with(|s| s.set(self.prev));
    }
}

/// xorshift64* step mapped to `[0, 1)`.
fn next_unit(state: &mut u64) -> f64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
    bits as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_fires() {
        let inj = FaultInjector::disabled();
        for _ in 0..1000 {
            assert!(inj.check(FaultSite::Scan, "t").is_ok());
        }
        assert_eq!(inj.faults_injected(), 0);
        assert_eq!(inj.checks(), 0); // disarmed checks are not even counted
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let run = |seed| {
            let inj = FaultInjector::seeded(seed).with_site(FaultSite::Scan, 0.3, 0.0);
            (0..200)
                .map(|i| inj.check(FaultSite::Scan, &format!("t{i}")).is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds, different schedules");
        assert!(run(42).iter().any(|&f| f), "probability 0.3 must fire");
        assert!(
            !run(42).iter().all(|&f| f),
            "probability 0.3 must also pass"
        );
    }

    #[test]
    fn budget_caps_faults_then_drains_clean() {
        let inj = FaultInjector::seeded(7)
            .with_site(FaultSite::Commit, 1.0, 0.0)
            .with_budget(3);
        let errs = (0..10)
            .filter(|_| inj.check(FaultSite::Commit, "t").is_err())
            .count();
        assert_eq!(errs, 3);
        assert_eq!(inj.faults_injected(), 3);
        assert!(inj.check(FaultSite::Commit, "t").is_ok());
    }

    #[test]
    fn targeted_site_only_hits_its_context() {
        let inj =
            FaultInjector::seeded(1).with_targeted_site(FaultSite::Propagate, 1.0, 0.0, "flaky");
        assert!(inj.check(FaultSite::Propagate, "stable").is_ok());
        let err = inj.check(FaultSite::Propagate, "flaky").unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected { .. }));
        assert!(err.to_string().contains("flaky"));
    }

    #[test]
    fn panic_fraction_panics_and_counts() {
        let inj = FaultInjector::seeded(5).with_site(FaultSite::Propagate, 1.0, 1.0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = inj.check(FaultSite::Propagate, "v");
        }));
        assert!(caught.is_err());
        assert_eq!(inj.panics_injected(), 1);
        // The injector survives its own panic (no poisoned internal lock).
        inj.disarm();
        assert!(inj.check(FaultSite::Propagate, "v").is_ok());
    }

    #[test]
    fn kill_point_fires_once_at_exact_ordinal() {
        let inj = FaultInjector::seeded(3).with_kill_point(FaultSite::WalAppend, 3);
        assert!(inj.check(FaultSite::WalAppend, "r").is_ok());
        assert!(inj.check(FaultSite::WalAppend, "r").is_ok());
        let err = inj.check(FaultSite::WalAppend, "r").unwrap_err();
        assert!(matches!(err, StorageError::KillPoint { .. }));
        assert!(!err.is_transient(), "a kill simulates death, not a retry");
        assert_eq!(inj.kills_fired(), 1);
        assert_eq!(inj.site_checks(FaultSite::WalAppend), 3);
        // One-shot: never fires again, even at later ordinals.
        for _ in 0..10 {
            assert!(inj.check(FaultSite::WalAppend, "r").is_ok());
        }
        assert_eq!(inj.kills_fired(), 1);
    }

    #[test]
    fn kill_point_ordinals_are_per_site() {
        let inj = FaultInjector::seeded(4).with_kill_point(FaultSite::WalFsync, 1);
        // Checks at other sites do not advance the WalFsync ordinal.
        assert!(inj.check(FaultSite::WalAppend, "r").is_ok());
        assert!(inj.check(FaultSite::CheckpointWrite, "c").is_ok());
        assert!(inj.check(FaultSite::WalFsync, "s").is_err());
    }

    /// One job's checks: which of 40 propagate checks fail.
    fn job(inj: &FaultInjector, epoch: u64, name: &str) -> Vec<bool> {
        let _stream = inj.stream(epoch, name);
        (0..40)
            .map(|_| inj.check(FaultSite::Propagate, name).is_err())
            .collect()
    }

    #[test]
    fn streams_do_not_depend_on_interleaving() {
        let armed = || FaultInjector::seeded(47).with_site(FaultSite::Propagate, 0.3, 0.0);
        // One after the other on one thread...
        let inj = armed();
        let serial = (job(&inj, 3, "view1"), job(&inj, 3, "view3"));
        // ...against both at once, interleaved with shared-RNG draws.
        let inj = armed();
        let on_thread = |name: &'static str| {
            let inj = inj.clone();
            std::thread::spawn(move || job(&inj, 3, name))
        };
        let (a, b) = (on_thread("view1"), on_thread("view3"));
        for _ in 0..50 {
            let _ = inj.check(FaultSite::Propagate, "other");
        }
        let parallel = (a.join().unwrap(), b.join().unwrap());
        assert_eq!(serial, parallel);
        assert!(serial.0.contains(&true) && serial.0.contains(&false));
        assert_ne!(serial.0, serial.1, "jobs get their own streams");
        assert_ne!(job(&inj, 3, "view1"), job(&inj, 4, "view1"), "epochs too");
    }

    #[test]
    fn a_stream_closes_when_its_guard_drops() {
        let shared_only = |inj: &FaultInjector| -> Vec<bool> {
            (0..40)
                .map(|_| inj.check(FaultSite::Propagate, "t").is_err())
                .collect()
        };
        let armed = || FaultInjector::seeded(5).with_site(FaultSite::Propagate, 0.5, 0.0);
        let want = shared_only(&armed());
        let inj = armed();
        let outer = inj.stream(1, "outer");
        {
            // A nested stream is restored from on drop: the outer one
            // resumes where it stood.
            let _inner = inj.stream(1, "inner");
            let _ = inj.check(FaultSite::Propagate, "t");
        }
        let resumed = shared_only(&inj);
        drop(outer);
        assert_eq!(resumed, job(&armed(), 1, "outer"));
        assert_eq!(shared_only(&inj), want, "streams never draw the shared RNG");
    }

    #[test]
    fn clones_share_state() {
        let a = FaultInjector::seeded(9)
            .with_site(FaultSite::Scan, 1.0, 0.0)
            .with_budget(1);
        let b = a.clone();
        assert!(b.check(FaultSite::Scan, "t").is_err());
        assert!(a.check(FaultSite::Scan, "t").is_ok(), "budget is shared");
        assert_eq!(a.faults_injected(), 1);
        a.disarm();
        assert!(!b.is_armed());
    }
}
