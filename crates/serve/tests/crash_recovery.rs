//! Crash-recovery harness: a seeded TPC-H ingest schedule run against a
//! durable [`ViewService`], killed at **every** injected WAL/checkpoint
//! point, reopened, and driven to completion — the recovered state must be
//! bag-identical to an uncrashed oracle.
//!
//! Invariants proved by the kill matrix:
//! * **no committed epoch is lost** — immediately after every recovery the
//!   base tables equal the acked-commit mirror (or mirror + the in-flight
//!   batch, when the killed commit record reached the log before the crash:
//!   standard WAL semantics for unacknowledged writes);
//! * **no partial epoch is visible** — after every recovery `verify_all`
//!   holds: each view equals recomputation over the recovered base;
//! * **resume converges** — re-running the killed operation (ingest appends
//!   are torn, so never durable under `OnCommit`; refresh / checkpoint /
//!   register are idempotent after recovery) ends bag-identical to a run
//!   that never crashed.
//!
//! The matrix is sized by a dry run: an armed injector with no faults
//! counts the checks at each site ([`FaultInjector::site_checks`]), then
//! the schedule re-runs once per (site, ordinal) with a one-shot kill
//! point. Determinism of the schedule makes the ordinal spaces line up.

use gpivot_algebra::Plan;
use gpivot_core::CoreError;
use gpivot_exec::Executor;
use gpivot_serve::{FsyncPolicy, IngestOptions, ServeConfig, ViewService};
use gpivot_storage::checkpoint::{checkpoint_path, list_wal_gens, wal_path};
use gpivot_storage::{Catalog, Delta, FaultInjector, FaultSite, StorageError};
use gpivot_tpch::gen::{generate, TpchConfig};
use gpivot_tpch::views::{view1, view3};
use gpivot_tpch::workload;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// ---- harness ---------------------------------------------------------------

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gpivot-crash-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn parse(sql: &str) -> std::result::Result<Plan, String> {
    gpivot_sql::parse_query(sql).map_err(|e| e.to_string())
}

fn durable_config(policy: FsyncPolicy) -> ServeConfig {
    ServeConfig::builder()
        .workers(2)
        .exec_threads(1)
        .wal_fsync(policy)
        .build()
        .unwrap()
}

fn small_catalog() -> Catalog {
    generate(&TpchConfig {
        empty_order_fraction: 0.25,
        ..TpchConfig::scale(0.01)
    })
}

fn views() -> [(&'static str, Plan); 2] {
    [("view1", view1()), ("view3", view3())]
}

fn is_kill(e: &gpivot_core::CoreError) -> bool {
    e.to_string().contains("kill point")
}

fn disabled_clone(base: &Catalog) -> Catalog {
    let mut c = base.clone();
    c.set_fault_injector(FaultInjector::disabled());
    c
}

/// True iff every base table of the service equals `oracle`'s.
fn base_matches(svc: &ViewService, oracle: &Catalog) -> bool {
    let snap = svc.snapshot();
    let cat = snap.manager().catalog();
    oracle.table_names().into_iter().all(|t| {
        let got = cat.table(t).expect("recovered catalog lost a table");
        got.bag_eq(oracle.table(t).unwrap())
    })
}

fn assert_views_match(svc: &ViewService, oracle: &Catalog, context: &str) {
    let snap = svc.snapshot();
    for (name, plan) in views() {
        let got = snap.query_view(name).unwrap();
        let expected = Executor::new().run(&plan, oracle).unwrap();
        assert!(
            got.bag_eq(&expected),
            "{context}: view {name} diverged ({} rows, want {})",
            got.len(),
            expected.len(),
        );
    }
}

// ---- seeded schedule -------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    /// Register the nth entry of [`views`] (skipped on resume if present).
    Register(usize),
    /// Ingest one (table, delta) item — the unit of ack.
    Ingest(usize),
    Refresh,
    Checkpoint,
}

struct Schedule {
    ops: Vec<Op>,
    items: Vec<(String, Delta)>,
    /// Base tables after every batch: the uncrashed oracle.
    oracle: Catalog,
}

/// A fixed, seeded schedule: register both views, then three workload
/// batches (mixed churn, order churn, lineitem deletes) with refreshes and
/// a mid-run checkpoint. Deletes are generated against a shadow that has
/// already absorbed earlier batches, so they always hit live rows.
fn build_schedule(base: &Catalog) -> Schedule {
    let mut shadow = disabled_clone(base);
    let mut ops = vec![Op::Register(0), Op::Register(1)];
    let mut items: Vec<(String, Delta)> = Vec::new();

    // Each batch is generated against the shadow *after* the previous one
    // applied, so deletes always target rows that still exist.
    for i in 0..3 {
        let batch = match i {
            0 => workload::mixed_batch(&shadow, 0.02, 1101),
            1 => workload::order_churn(&shadow, 0.015, 1102),
            _ => workload::delete_fraction(&shadow, "lineitem", 0.01, 1103),
        };
        for table in batch.tables().map(str::to_string).collect::<Vec<_>>() {
            let delta = batch.delta(&table).unwrap().clone();
            shadow.apply_delta(&table, &delta).unwrap();
            ops.push(Op::Ingest(items.len()));
            items.push((table, delta));
        }
        ops.push(Op::Refresh);
        if i == 1 {
            ops.push(Op::Checkpoint);
        }
    }
    Schedule {
        ops,
        items,
        oracle: shadow,
    }
}

fn apply_items(base: &Catalog, idxs: &[usize], items: &[(String, Delta)]) -> Catalog {
    let mut c = base.clone();
    for &i in idxs {
        let (t, d) = &items[i];
        c.apply_delta(t, d).unwrap();
    }
    c
}

/// Drive `schedule` on a durable service rooted at `dir`, treating every
/// kill-point error as a crash: drop the service, reopen, check the
/// recovery invariants, and resume from the killed operation. Returns the
/// number of kills observed.
fn run_schedule(dir: &Path, base: &Catalog, schedule: &Schedule, injector: FaultInjector) -> u64 {
    let defs = views();
    let cfg = durable_config(FsyncPolicy::OnCommit);
    let mut kills = 0u64;

    // Bootstrap itself is in the kill matrix: retry until open succeeds
    // (kill points are one-shot, so the retry runs fault-free).
    let mut seed = base.clone();
    seed.set_fault_injector(injector);
    let mut svc = loop {
        match ViewService::open(dir, seed.clone(), cfg.clone(), &parse) {
            Ok((svc, _)) => break svc,
            Err(e) => {
                assert!(is_kill(&e), "open failed with a non-kill error: {e}");
                kills += 1;
            }
        }
    };

    // Mirror of acked state: `committed` = base tables as of the last acked
    // refresh; `inflight` = acked ingest items not yet covered by one.
    let mut committed = disabled_clone(base);
    let mut inflight: Vec<usize> = Vec::new();

    let mut cursor = 0usize;
    while cursor < schedule.ops.len() {
        let op = &schedule.ops[cursor];
        let outcome = match op {
            Op::Register(i) => {
                let (name, plan) = &defs[*i];
                if svc.view_names().iter().any(|n| n == name) {
                    Ok(()) // survived the crash via a durable register record
                } else {
                    svc.register_view(*name, plan.clone()).map(|_| ())
                }
            }
            Op::Ingest(i) => {
                let (table, delta) = &schedule.items[*i];
                svc.ingest_with(table, delta.clone(), IngestOptions::blocking())
            }
            Op::Refresh => svc.refresh_epoch().map(|_| ()),
            Op::Checkpoint => svc.checkpoint().map(|_| ()),
        };
        match outcome {
            Ok(()) => {
                match op {
                    Op::Ingest(i) => inflight.push(*i),
                    Op::Refresh => {
                        committed = apply_items(&committed, &inflight, &schedule.items);
                        inflight.clear();
                    }
                    _ => {}
                }
                cursor += 1;
            }
            Err(e) => {
                assert!(
                    is_kill(&e),
                    "op {cursor} ({op:?}) failed with a non-kill error: {e}"
                );
                kills += 1;
                drop(svc); // simulated crash: abandon all live state

                let (recovered, report) =
                    ViewService::open(dir, disabled_clone(base), cfg.clone(), &parse)
                        .expect("recovery after a kill must succeed");
                assert!(report.recovered, "op {cursor}: recovery found no state");
                // No partial epoch visible: every recovered view equals
                // recomputation over the recovered base.
                assert!(
                    recovered.verify_all().unwrap(),
                    "op {cursor} ({op:?}): recovered views inconsistent with base"
                );
                // No committed epoch lost: the base is exactly the acked
                // mirror, or mirror + in-flight batch when the killed
                // commit record reached the log before the crash.
                if !base_matches(&recovered, &committed) {
                    let with_inflight = apply_items(&committed, &inflight, &schedule.items);
                    assert!(
                        base_matches(&recovered, &with_inflight),
                        "op {cursor} ({op:?}): committed epoch lost or partial epoch applied"
                    );
                    committed = with_inflight;
                    inflight.clear();
                }
                svc = recovered;
                // Resume at the killed op: a killed ingest append is torn
                // (never durable under OnCommit) so re-running it is
                // exactly-once; refresh/checkpoint/register are idempotent.
            }
        }
    }

    while svc.pending_rows() > 0 {
        svc.refresh_epoch().unwrap();
    }
    assert_views_match(&svc, &schedule.oracle, "after schedule");
    assert!(base_matches(&svc, &schedule.oracle), "base diverged");
    assert!(svc.verify_all().unwrap());
    kills
}

// ---- the kill matrix -------------------------------------------------------

/// The tentpole proof: dry-run the schedule to count injected points, then
/// kill at every (site, ordinal) and require recovery + resume to land
/// bag-identical to the uncrashed oracle.
#[test]
fn kill_matrix_every_injected_point_recovers() {
    let base = small_catalog();
    let schedule = build_schedule(&base);

    // Dry run: armed injector, no faults configured — counts the ordinal
    // space per site and doubles as the uncrashed control run.
    let probe = FaultInjector::seeded(7);
    let dir = tmp_dir("dry");
    let kills = run_schedule(&dir, &base, &schedule, probe.clone());
    assert_eq!(kills, 0, "dry run must not kill");
    let _ = fs::remove_dir_all(&dir);

    let sites = [
        FaultSite::WalAppend,
        FaultSite::WalFsync,
        FaultSite::CheckpointWrite,
    ];
    let mut matrix = 0u64;
    for site in sites {
        let checks = probe.site_checks(site);
        assert!(checks > 0, "{site:?} never exercised by the schedule");
        for nth in 1..=checks {
            let dir = tmp_dir("kill");
            let injector = FaultInjector::seeded(7).with_kill_point(site, nth);
            let kills = run_schedule(&dir, &base, &schedule, injector);
            assert_eq!(
                kills, 1,
                "{site:?} ordinal {nth}/{checks}: expected exactly one kill"
            );
            matrix += 1;
            let _ = fs::remove_dir_all(&dir);
        }
    }
    assert!(matrix >= 12, "kill matrix too small ({matrix} points)");
}

// ---- targeted recovery properties ------------------------------------------

/// Plain restart: register, ingest, refresh, checkpoint, more epochs,
/// reopen — everything (views, epoch counter, metrics seed) survives.
#[test]
fn restart_roundtrip_preserves_views_and_epoch() {
    let base = small_catalog();
    let dir = tmp_dir("roundtrip");
    let cfg = durable_config(FsyncPolicy::OnCommit);
    let mut oracle = disabled_clone(&base);

    let epoch_before = {
        let (svc, report) = ViewService::open(&dir, base.clone(), cfg.clone(), &parse).unwrap();
        assert!(!report.recovered);
        assert!(svc.is_durable());
        for (name, plan) in views() {
            svc.register_view(name, plan).unwrap();
        }
        for seed in [21, 22] {
            let batch = workload::mixed_batch(&oracle, 0.02, seed);
            for table in batch.tables() {
                let delta = batch.delta(table).unwrap();
                oracle.apply_delta(table, delta).unwrap();
                svc.ingest_with(table, delta.clone(), IngestOptions::blocking())
                    .unwrap();
            }
            svc.refresh_epoch().unwrap();
        }
        svc.checkpoint().unwrap();
        let batch = workload::order_churn(&oracle, 0.015, 23);
        for table in batch.tables() {
            let delta = batch.delta(table).unwrap();
            oracle.apply_delta(table, delta).unwrap();
            svc.ingest_with(table, delta.clone(), IngestOptions::blocking())
                .unwrap();
        }
        svc.refresh_epoch().unwrap();
        svc.epoch()
    };

    let (svc, report) = ViewService::open(&dir, disabled_clone(&base), cfg, &parse).unwrap();
    assert!(report.recovered);
    assert_eq!(report.views_recovered + report.views_recomputed, 2);
    assert_eq!(svc.epoch(), epoch_before, "epoch counter not restored");
    assert_views_match(&svc, &oracle, "after restart");
    assert!(base_matches(&svc, &oracle));
    // The WAL counters count what this process wrote, and it wrote nothing
    // yet: the log tail it reopened belongs to the previous one.
    let m = svc.metrics();
    assert_eq!((m.wal_bytes, m.wal_records), (0, 0), "counted a prior log");

    // The rows those reads projected (never persisted: rebuilt on first
    // read over the checkpointed tables) are patched by the next epoch.
    assert!(report.views_recovered > 0, "no view came from its snapshot");
    let batch = workload::mixed_batch(&oracle, 0.02, 24);
    for table in batch.tables() {
        let delta = batch.delta(table).unwrap();
        oracle.apply_delta(table, delta).unwrap();
        svc.ingest_with(table, delta.clone(), IngestOptions::blocking())
            .unwrap();
    }
    svc.refresh_epoch().unwrap();
    assert_views_match(&svc, &oracle, "one epoch after restart");

    let m = svc.metrics();
    assert!(
        m.wal_bytes > 0 && m.wal_records > 0,
        "the epoch was not counted"
    );
    assert_eq!(m.recoveries, 1);
    assert!(m.report().contains("recovery:"));
    assert!(m.prometheus().contains("gpivot_recovery_runs_total 1"));
    let _ = fs::remove_dir_all(&dir);
}

/// Unrefreshed ingests ride the log: the pending queue survives a restart
/// and the first refresh after reopen applies them.
#[test]
fn pending_queue_survives_restart() {
    let base = small_catalog();
    let dir = tmp_dir("pending");
    let cfg = durable_config(FsyncPolicy::OnCommit);
    let mut oracle = disabled_clone(&base);

    let pending_before = {
        let (svc, _) = ViewService::open(&dir, base.clone(), cfg.clone(), &parse).unwrap();
        for (name, plan) in views() {
            svc.register_view(name, plan).unwrap();
        }
        let batch = workload::insert_new_rows(&oracle, 0.02, 31);
        for table in batch.tables() {
            let delta = batch.delta(table).unwrap();
            oracle.apply_delta(table, delta).unwrap();
            svc.ingest_with(table, delta.clone(), IngestOptions::blocking())
                .unwrap();
        }
        let pending = svc.pending_rows();
        assert!(pending > 0, "workload produced no pending rows");
        pending
        // dropped without refresh: the rows exist only as log records
    };

    let (svc, report) = ViewService::open(&dir, disabled_clone(&base), cfg, &parse).unwrap();
    assert_eq!(svc.pending_rows(), pending_before, "pending rows lost");
    assert_eq!(report.pending_rows, pending_before);
    svc.refresh_epoch().unwrap();
    assert_views_match(&svc, &oracle, "after replayed refresh");
    let _ = fs::remove_dir_all(&dir);
}

/// A torn tail (half-written record at the end of the log) is truncated at
/// the last valid record — recovery proceeds and counts it.
#[test]
fn torn_log_tail_is_truncated_not_fatal() {
    let base = small_catalog();
    let dir = tmp_dir("torn");
    let cfg = durable_config(FsyncPolicy::OnCommit);
    let mut oracle = disabled_clone(&base);

    {
        let (svc, _) = ViewService::open(&dir, base.clone(), cfg.clone(), &parse).unwrap();
        for (name, plan) in views() {
            svc.register_view(name, plan).unwrap();
        }
        let batch = workload::mixed_batch(&oracle, 0.02, 41);
        for table in batch.tables() {
            let delta = batch.delta(table).unwrap();
            oracle.apply_delta(table, delta).unwrap();
            svc.ingest_with(table, delta.clone(), IngestOptions::blocking())
                .unwrap();
        }
        svc.refresh_epoch().unwrap();
    }

    // Simulate a crash mid-append: garbage bytes after the last record.
    let gen = *list_wal_gens(&dir).unwrap().last().unwrap();
    let path = wal_path(&dir, gen);
    let mut bytes = fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0x42, 0x00, 0x00, 0x00, 0xde, 0xad]);
    fs::write(&path, bytes).unwrap();

    let (svc, report) = ViewService::open(&dir, disabled_clone(&base), cfg, &parse).unwrap();
    assert_eq!(report.torn_tails_truncated, 1);
    assert_eq!(svc.metrics().recovery_torn_tails, 1);
    assert_views_match(&svc, &oracle, "after torn-tail recovery");
    let _ = fs::remove_dir_all(&dir);
}

/// A corrupt (or bogus newer) checkpoint file is skipped and recovery
/// falls back to the older valid one plus full log replay.
#[test]
fn corrupt_checkpoint_falls_back_to_older() {
    let base = small_catalog();
    let dir = tmp_dir("ckpt");
    let cfg = durable_config(FsyncPolicy::OnCommit);
    let mut oracle = disabled_clone(&base);

    {
        let (svc, _) = ViewService::open(&dir, base.clone(), cfg.clone(), &parse).unwrap();
        for (name, plan) in views() {
            svc.register_view(name, plan).unwrap();
        }
        let batch = workload::mixed_batch(&oracle, 0.02, 51);
        for table in batch.tables() {
            let delta = batch.delta(table).unwrap();
            oracle.apply_delta(table, delta).unwrap();
            svc.ingest_with(table, delta.clone(), IngestOptions::blocking())
                .unwrap();
        }
        svc.refresh_epoch().unwrap();
    }

    // A newer checkpoint that never finished: load_latest must skip it and
    // use the bootstrap checkpoint + the full gen-1 log.
    fs::write(checkpoint_path(&dir, 9), b"GARBAGE-NOT-A-CHECKPOINT").unwrap();

    let (svc, report) = ViewService::open(&dir, disabled_clone(&base), cfg, &parse).unwrap();
    assert_eq!(report.corrupt_checkpoints_skipped, 1);
    assert_eq!(svc.metrics().recovery_corrupt_checkpoints, 1);
    assert_views_match(&svc, &oracle, "after corrupt-checkpoint fallback");
    let _ = fs::remove_dir_all(&dir);
}

/// Every file in `dir`, by name, with its bytes.
fn dir_image(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

/// Once a checkpoint has pruned the bootstrap generation, a corrupt
/// `checkpoint-N` is the only snapshot there is. Opening must fail typed and
/// leave the directory alone, not bootstrap a fresh, empty service beside
/// the old generation.
#[test]
fn only_checkpoint_corrupt_fails_typed_and_touches_nothing() {
    let base = small_catalog();
    let dir = tmp_dir("only-ckpt");
    let cfg = durable_config(FsyncPolicy::OnCommit);
    let oracle = disabled_clone(&base);
    {
        let (svc, _) = ViewService::open(&dir, base.clone(), cfg.clone(), &parse).unwrap();
        for (name, plan) in views() {
            svc.register_view(name, plan).unwrap();
        }
        let batch = workload::mixed_batch(&oracle, 0.02, 81);
        for table in batch.tables() {
            let delta = batch.delta(table).unwrap();
            svc.ingest_with(table, delta.clone(), IngestOptions::blocking())
                .unwrap();
        }
        svc.refresh_epoch().unwrap();
        svc.checkpoint().unwrap();
    }
    let gen = *list_wal_gens(&dir).unwrap().last().unwrap();
    assert!(gen > 1, "the checkpoint rotated the log");
    assert!(
        !checkpoint_path(&dir, 1).exists(),
        "bootstrap generation pruned"
    );
    let ckpt = checkpoint_path(&dir, gen);
    let mut bytes = fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&ckpt, bytes).unwrap();

    let fails_untouched = |case: &str| {
        let before = dir_image(&dir);
        match ViewService::open(&dir, disabled_clone(&base), cfg.clone(), &parse) {
            Ok(_) => panic!("{case}: the directory opened"),
            Err(e) => assert!(
                matches!(e, CoreError::Storage(StorageError::Corrupt { .. })),
                "{case}: expected a typed corruption error, got {e}"
            ),
        }
        assert!(
            before == dir_image(&dir),
            "{case}: recovery wrote to the directory"
        );
    };
    fails_untouched("only checkpoint corrupt");
    // With the checkpoint gone, the log alone is no fresh start either.
    fs::remove_file(&ckpt).unwrap();
    fails_untouched("log without a checkpoint");
    let _ = fs::remove_dir_all(&dir);
}

/// `FsyncPolicy::Always`: a kill at the ingest fsync leaves the record
/// durable but unacknowledged. Recovery must surface it exactly once — the
/// client checks the pending watermark before deciding to resubmit.
#[test]
fn always_policy_unacked_ingest_is_exactly_once() {
    let base = small_catalog();
    let cfg = durable_config(FsyncPolicy::Always);
    let mut oracle = disabled_clone(&base);
    let batch = workload::insert_new_rows(&oracle, 0.02, 61);
    let items: Vec<(String, Delta)> = batch
        .tables()
        .map(|t| (t.to_string(), batch.delta(t).unwrap().clone()))
        .collect();
    for (t, d) in &items {
        oracle.apply_delta(t, d).unwrap();
    }

    // Dry run counts the fsyncs this schedule performs.
    let probe = FaultInjector::seeded(9);
    {
        let dir = tmp_dir("always-dry");
        let mut seed = base.clone();
        seed.set_fault_injector(probe.clone());
        let (svc, _) = ViewService::open(&dir, seed, cfg.clone(), &parse).unwrap();
        svc.register_view("view3", view3()).unwrap();
        for (t, d) in &items {
            svc.ingest_with(t, d.clone(), IngestOptions::blocking())
                .unwrap();
        }
        svc.refresh_epoch().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    for nth in 1..=probe.site_checks(FaultSite::WalFsync) {
        let dir = tmp_dir("always");
        let injector = FaultInjector::seeded(9).with_kill_point(FaultSite::WalFsync, nth);
        let mut seed = base.clone();
        seed.set_fault_injector(injector);

        let mut acked = 0usize;
        let crashed = 'run: {
            let svc = match ViewService::open(&dir, seed.clone(), cfg.clone(), &parse) {
                Ok((svc, _)) => svc,
                Err(e) => {
                    assert!(is_kill(&e));
                    break 'run true;
                }
            };
            if svc.register_view("view3", view3()).is_err() {
                break 'run true;
            }
            for (t, d) in &items {
                match svc.ingest_with(t, d.clone(), IngestOptions::blocking()) {
                    Ok(()) => acked += 1,
                    Err(e) => {
                        assert!(is_kill(&e));
                        break 'run true;
                    }
                }
            }
            match svc.refresh_epoch() {
                Ok(_) => false,
                Err(e) => {
                    assert!(is_kill(&e));
                    break 'run true;
                }
            }
        };

        let (svc, _) = ViewService::open(&dir, disabled_clone(&base), cfg.clone(), &parse)
            .expect("recovery must succeed");
        if crashed {
            assert!(svc.verify_all().unwrap(), "fsync kill {nth}: partial state");
            if svc.view_names().is_empty() {
                svc.register_view("view3", view3()).unwrap();
            }
            // Resubmit only what recovery did not surface: an unacked item
            // is in the recovered pending queue iff its append + fsync both
            // reached the file before the kill.
            let committed_rows = if svc.epoch() > 0 {
                items.iter().map(|(_, d)| d.total_multiplicity()).sum()
            } else {
                0u64
            };
            let durable_rows = svc.metrics().rows_ingested + committed_rows;
            let mut seen = 0u64;
            for (t, d) in &items {
                if seen + d.total_multiplicity() > durable_rows {
                    svc.ingest_with(t, d.clone(), IngestOptions::blocking())
                        .unwrap();
                }
                seen += d.total_multiplicity();
            }
            let _ = acked;
        }
        while svc.pending_rows() > 0 {
            svc.refresh_epoch().unwrap();
        }
        let snap = svc.snapshot();
        let got = snap.query_view("view3").unwrap();
        let expected = Executor::new().run(&view3(), &oracle).unwrap();
        assert!(
            got.bag_eq(&expected),
            "fsync kill {nth}: not exactly-once ({} rows, want {})",
            got.len(),
            expected.len(),
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// `save_to` exports a non-durable service; `open` on the export serves
/// the same views.
#[test]
fn save_to_then_open_round_trips() {
    let base = small_catalog();
    let mut oracle = disabled_clone(&base);
    let svc = ViewService::new(base.clone(), durable_config(FsyncPolicy::OnCommit));
    assert!(!svc.is_durable());
    for (name, plan) in views() {
        svc.register_view(name, plan).unwrap();
    }
    let batch = workload::mixed_batch(&oracle, 0.02, 71);
    for table in batch.tables() {
        let delta = batch.delta(table).unwrap();
        oracle.apply_delta(table, delta).unwrap();
        svc.ingest_with(table, delta.clone(), IngestOptions::blocking())
            .unwrap();
    }
    svc.refresh_epoch().unwrap();

    let dir = tmp_dir("save");
    svc.save_to(&dir).unwrap();
    let (reopened, report) = ViewService::open(
        &dir,
        disabled_clone(&base),
        durable_config(FsyncPolicy::OnCommit),
        &parse,
    )
    .unwrap();
    assert!(report.recovered);
    assert!(reopened.is_durable());
    assert_eq!(reopened.epoch(), svc.epoch());
    assert_views_match(&reopened, &oracle, "after save_to/open");
    let _ = fs::remove_dir_all(&dir);
}
