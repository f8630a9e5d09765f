//! Per-layer numbers of a traced run (layer = crate name): harness spans
//! around calls into each layer's public functions, plus the counters the
//! service already exposes through `metrics()`. Every declared per-layer
//! metric gets a value on every workload; one the workload does not
//! exercise reads 0.

use crate::gen::Generator;
use crate::run::{
    generator, sql_reads, view_defs, Built, Expected, Measured, Recovery, RunOptions, RunResult,
};
use crate::spec::{Kind, Spec};
use crate::stats::{mean, median, p95, percentile};
use crate::trace::Trace;
use gpivot_analyze::{analyze, shard_safety};
use gpivot_core::{MaterializedView, SourceDeltas, Strategy};
use gpivot_exec::Executor;
use gpivot_serve::{IngestOptions, MetricsSnapshot, ViewService};
use gpivot_sql::{parse_statement, rewrite, Statement};
use gpivot_storage::wal::{Wal, WalRecord};
use gpivot_storage::{checkpoint, Catalog, Chunk, FaultInjector, Table};
use std::hint::black_box;
use std::time::Instant;

pub(crate) struct Inputs<'a> {
    pub spec: &'a Spec,
    pub opts: &'a RunOptions,
    pub built: &'a Built,
    pub gen: &'a mut Generator,
    pub trace: &'a mut Trace,
    pub measured: &'a Measured,
    pub expected: &'a Expected,
    pub recovery: Option<&'a Recovery>,
    /// Service metrics just before and just after the measured phase.
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
    pub generate_s: f64,
    pub out: &'a mut RunResult,
}

/// Batches the core and storage probes maintain with.
const PROBE_BATCHES: usize = 3;
/// Epochs of the sharded schedule replayed on one shard.
const REPLAY_EPOCHS: usize = 24;

/// Total of a phase histogram in ms. Only `total()` and `count()` are
/// exact — the buckets are powers of two — so nothing else is read.
fn phase_ms(m: &MetricsSnapshot, name: &str) -> f64 {
    m.phase_timings
        .get(name)
        .map_or(0.0, |h| h.total().as_secs_f64() * 1e3)
}

/// Summed self time of an operator and its sub-spans (`op.Join`,
/// `op.Join.partition`, …) in ms.
fn operator_ms(m: &MetricsSnapshot, op: &str) -> f64 {
    let prefix = format!("op.{op}");
    m.operator_timings
        .iter()
        .filter(|(name, _)| {
            name.strip_prefix(&prefix)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        })
        .map(|(_, h)| h.total().as_secs_f64() * 1e3)
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn as_source_deltas(calls: Vec<crate::gen::Call>) -> SourceDeltas {
    let mut deltas = SourceDeltas::new();
    for call in calls {
        deltas.absorb_delta(call.table, call.delta);
    }
    deltas
}

/// Metrics only the durable or the sharded workload produces; 0 elsewhere.
const WORKLOAD_SPECIFIC: [&str; 21] = [
    "serve.checkpoint_ms",
    "serve.checkpoint_stall_ms_max",
    "serve.open_ms",
    "serve.recovery_replayed_records",
    "storage.wal_append_us",
    "storage.wal_fsync_us",
    "storage.checkpoint_write_ms",
    "storage.checkpoint_load_ms",
    "storage.checkpoint_bytes_per_row",
    "sql.parse_us",
    "sql.rewrite_us",
    "sql.select_hit_ms",
    "sql.select_miss_ms",
    "sql.rewrite_hit_share",
    "read_ms_p95",
    "recovery_s",
    "wal_bytes_per_row",
    "harness.read_sched_lag_ms_p95",
    "serve.shard_epoch_ms",
    "serve.shard_heavy_keys",
    "serve.shard_speedup_vs_single",
];

pub(crate) fn report(mut inp: Inputs<'_>) {
    for name in WORKLOAD_SPECIFIC {
        inp.out.set(name, 0.0);
    }
    let probed = every_workload(&mut inp);
    match inp.spec.kind {
        Kind::Memory => {}
        Kind::DurableSql {
            checkpoint_every, ..
        } => durable_probes(&mut inp, &probed, checkpoint_every),
        Kind::Sharded { .. } => shard_probes(&mut inp, &probed),
    }
    let share = ratio(inp.out.failed as f64, inp.out.attempted as f64);
    inp.out.set("failed_share", share);
}

/// What the probes every workload runs leave for the tier-specific ones.
struct Probed {
    /// The mirror, advanced past the probe batches.
    mirror: Catalog,
    /// `ingest_with` calls of the probe batches: the WAL probe's records.
    calls: Vec<crate::gen::Call>,
    /// `refresh_epoch` wall time of every committed measured epoch.
    epoch_ms: Vec<f64>,
}

fn every_workload(inp: &mut Inputs<'_>) -> Probed {
    let Inputs {
        spec,
        opts,
        built,
        measured,
        expected,
        before,
        after,
        ..
    } = *inp;
    let (gen, trace, out) = (&mut *inp.gen, &mut *inp.trace, &mut *inp.out);
    let committed = || measured.log.iter().filter(|e| e.service_epoch > 0);
    let epochs = committed().count().max(1) as f64;
    let epoch_ms: Vec<f64> = committed().map(|e| e.refresh_ms).collect();
    let epoch_total_ms: f64 = epoch_ms.iter().sum();

    // ---- serve: spans around the service calls + its own phase totals.
    let phase = |name: &str| phase_ms(after, name) - phase_ms(before, name);
    let phases = [
        "epoch.drain",
        "epoch.propagate",
        "epoch.stage",
        "epoch.commit",
    ];
    out.set("serve.ingest_us_per_batch", mean(&measured.ingest_us));
    out.set("serve.epoch_ms", median(&epoch_ms));
    out.set("serve.drain_ms", phase("epoch.drain") / epochs);
    out.set("serve.propagate_ms", phase("epoch.propagate") / epochs);
    out.set("serve.stage_ms", phase("epoch.stage") / epochs);
    out.set("serve.commit_ms", phase("epoch.commit") / epochs);
    let attributed: f64 = phases.iter().map(|p| phase(p)).sum();
    out.set(
        "serve.epoch_unattributed_share",
        1.0 - ratio(attributed, epoch_total_ms),
    );
    let producer = built.target.producer_metrics();
    out.set(
        "serve.coalesce_ratio",
        producer.coalescing_ratio().unwrap_or(0.0),
    );
    out.set("serve.ingest_waits", producer.ingest_waits as f64);
    out.set(
        "serve.retries",
        after.per_view.values().map(|v| v.retries).sum::<u64>() as f64,
    );
    out.set("serve.epochs_failed", after.epochs_failed as f64);

    // ---- core / exec: the service's own maintain-phase and operator totals.
    out.set("core.propagate_ms", phase("maintain.propagate") / epochs);
    out.set("core.apply_ms", phase("maintain.apply") / epochs);
    out.set(
        "core.applied_per_propagated",
        ratio(
            (after.rows_applied - before.rows_applied) as f64,
            (after.rows_propagated - before.rows_propagated) as f64,
        ),
    );
    out.set("core.compile_ms", phase_ms(before, "compile.normalize"));
    for op in ["Join", "GroupBy", "GPivot", "Project"] {
        out.set(
            format!("exec.op_self_ms.{op}"),
            (operator_ms(after, op) - operator_ms(before, op)) / epochs,
        );
    }

    // ---- core, exec, storage, analyze: probes over the mirror.
    let mut mirror = expected.mirror.clone();
    let exec = Executor::new();
    let defs = view_defs();
    let lineitem = mirror.table("lineitem").expect("mirror has lineitem");
    let (chunk, chunk_ms) = trace.timed("storage.chunk_from_rows", || {
        Chunk::from_rows(lineitem.rows(), lineitem.schema().arity())
    });
    black_box(chunk.len());
    out.set("storage.chunk_build_ms", chunk_ms);

    let mut incremental = Vec::new();
    let mut recompute = Vec::new();
    for (i, (name, plan)) in defs.iter().enumerate() {
        let n = i + 1;
        let (view, create_ms) = trace.timed("core.materialized_view_create", || {
            MaterializedView::create_with(*name, plan.clone(), built.strategies[i], &mirror, &exec)
        });
        out.set(format!("core.materialize_ms.view{n}"), create_ms);
        incremental.push(view.expect("a registered view compiles again"));
        recompute.push(
            MaterializedView::create_with(*name, plan.clone(), Strategy::Recompute, &mirror, &exec)
                .expect("a registered view compiles for recomputation"),
        );
        out.set(format!("exec.run_columnar_ms.view{n}"), expected.run_ms[i]);
        let row_exec = Executor::new().with_columnar(false);
        let (rows, row_ms) = trace.timed("exec.run_row", || row_exec.run(plan, &mirror));
        black_box(rows.map(|t| t.len()).unwrap_or(0));
        out.set(format!("exec.run_row_ms.view{n}"), row_ms);

        let mut analyze_us = Vec::new();
        for _ in 0..opts.effort().micro_reps {
            let (report, t) = trace.timed("analyze.analyze", || analyze(plan, &mirror));
            black_box(report.has_errors());
            analyze_us.push(t * 1e3);
        }
        out.set(format!("analyze.analyze_us.view{n}"), median(&analyze_us));
    }
    let mut shard_us = Vec::new();
    for (_, plan) in &defs {
        let (verdict, t) = trace.timed("analyze.shard_safety", || shard_safety(plan, &mirror));
        black_box(verdict.is_safe());
        shard_us.push(t * 1e3);
    }
    out.set("analyze.shard_safety_us", mean(&shard_us));

    // Maintain each view with its chosen strategy and with recomputation
    // over the same sampled batches — the paper's headline comparison.
    let mut maintain_ms = vec![Vec::new(); 3];
    let mut recompute_ms = vec![Vec::new(); 3];
    let mut stage_ms = Vec::new();
    let mut apply_us_per_row = Vec::new();
    let mut wal_calls = Vec::new();
    for _ in 0..PROBE_BATCHES {
        let calls = gen.next_batch();
        if wal_calls.len() < 64 {
            wal_calls.extend(calls.iter().cloned());
        }
        let deltas = as_source_deltas(calls);
        for i in 0..3 {
            let (r, t) = trace.timed("core.maintain", || {
                incremental[i].maintain_with(&mirror, &deltas, &exec)
            });
            out.op("probe maintain", r.map(drop).map_err(|e| e.to_string()));
            maintain_ms[i].push(t);
            let (r, t) = trace.timed("core.maintain_recompute", || {
                recompute[i].maintain_with(&mirror, &deltas, &exec)
            });
            out.op("probe recompute", r.map(drop).map_err(|e| e.to_string()));
            recompute_ms[i].push(t);
        }
        let tables: Vec<String> = deltas.tables().map(String::from).collect();
        for table in &tables {
            let delta = deltas.delta(table).expect("listed table has a delta");
            let (staged, t) =
                trace.timed("storage.stage_delta", || mirror.stage_delta(table, delta));
            black_box(staged.map(|t| t.len()).unwrap_or(0));
            stage_ms.push(t);
            let (r, t) = trace.timed("storage.apply_delta", || mirror.apply_delta(table, delta));
            out.op("probe apply_delta", r.map_err(|e| e.to_string()));
            apply_us_per_row.push(t * 1e3 / delta.total_multiplicity().max(1) as f64);
        }
    }
    for i in 0..3 {
        let n = i + 1;
        let (inc, rec) = (median(&maintain_ms[i]), median(&recompute_ms[i]));
        out.set(format!("core.maintain_ms.view{n}"), inc);
        out.set(format!("core.recompute_ms.view{n}"), rec);
        out.set(
            format!("core.speedup_vs_recompute.view{n}"),
            ratio(rec, inc),
        );
    }
    out.set("storage.stage_delta_ms", mean(&stage_ms));
    out.set("storage.apply_delta_us_per_row", mean(&apply_us_per_row));
    out.set("tpch.generate_s", inp.generate_s);

    // ---- reads.
    let mut single_read = Vec::new();
    let mut shard_read = Vec::new();
    for (name, _) in &defs {
        let (r, t) = trace.timed("serve.query_view", || built.target.query_view(name));
        black_box(r.map(|t| t.len()).unwrap_or(0));
        match spec.kind {
            Kind::Sharded { .. } => shard_read.push(t),
            _ => single_read.push(t),
        }
    }
    out.set("serve.query_view_ms", mean(&single_read));
    out.set("serve.shard_query_view_ms", mean(&shard_read));

    out.set("storage.wal_bytes", after.wal_bytes as f64);
    out.set("storage.wal_records", after.wal_records as f64);
    out.set("storage.wal_fsyncs", after.wal_fsyncs as f64);

    // ---- harness: is the measurement itself sound?
    let rate = |traced: bool| {
        let side = || measured.log.iter().filter(move |e| e.traced == traced);
        ratio(
            side().map(|e| e.rows as f64).sum(),
            side().map(|e| e.cycle_s).sum(),
        )
    };
    out.set(
        "harness.trace_overhead_share",
        1.0 - ratio(rate(true), rate(false)),
    );
    out.set("harness.schedule_fingerprint", gen.fingerprint() as f64);
    Probed {
        mirror,
        calls: wal_calls,
        epoch_ms,
    }
}

/// The shard tier: the same schedule, from the same seed, replayed on one
/// unsharded service.
fn shard_probes(inp: &mut Inputs<'_>, probed: &Probed) {
    let Inputs {
        spec,
        opts,
        built,
        measured,
        ..
    } = *inp;
    let (trace, out) = (&mut *inp.trace, &mut *inp.out);
    let crate::run::Target::Sharded(svc) = &built.target else {
        return;
    };
    out.set("serve.shard_epoch_ms", median(&probed.epoch_ms));
    out.set("serve.shard_heavy_keys", svc.heavy_keys().len() as f64);
    let single = ViewService::new(built.initial.clone(), built.cfg.clone());
    let mut replay = generator(spec, &built.initial, opts.seed);
    let registered = view_defs()
        .into_iter()
        .try_for_each(|(name, plan)| single.register_view(name, plan).map(drop));
    out.op("replay set-up", registered.map_err(|e| e.to_string()));
    let n = REPLAY_EPOCHS.min(measured.log.len());
    let mut single_ms = 0.0;
    for _ in 0..n {
        let calls = replay.next_batch();
        let start = Instant::now();
        for call in calls {
            let r = single.ingest_with(call.table, call.delta, IngestOptions::non_blocking());
            out.op("replay ingest_with", r.map_err(|e| e.to_string()));
        }
        let r = single.refresh_epoch();
        let end = Instant::now();
        trace.leaf("serve.refresh_epoch (one shard)", start, end);
        out.op(
            "replay refresh_epoch",
            r.map(drop).map_err(|e| e.to_string()),
        );
        single_ms += (end - start).as_secs_f64() * 1e3;
    }
    // Against ingest + refresh of the sharded run's same leading epochs.
    out.set(
        "serve.shard_speedup_vs_single",
        ratio(
            single_ms,
            measured.log.iter().take(n).map(|e| e.cycle_s * 1e3).sum(),
        ),
    );
}

/// The durable tier: WAL, checkpoints, recovery, SQL.
fn durable_probes(inp: &mut Inputs<'_>, probed: &Probed, checkpoint_every: u64) {
    let Inputs {
        opts,
        built,
        measured,
        recovery,
        before,
        after,
        ..
    } = *inp;
    let (trace, out) = (&mut *inp.trace, &mut *inp.out);
    let Probed {
        mirror,
        calls: wal_calls,
        epoch_ms,
    } = probed;
    out.set("read_ms_p95", p95(&measured.read_ms).unwrap_or(0.0));
    out.set(
        "harness.read_sched_lag_ms_p95",
        percentile(&measured.read_lag_ms, 95.0),
    );
    out.set("sql.select_hit_ms", median(&measured.sql_hit_ms));
    out.set("sql.select_miss_ms", median(&measured.sql_miss_ms));
    let hits = (after.sql_rewrite_hits - before.sql_rewrite_hits) as f64;
    let misses = (after.sql_rewrite_misses - before.sql_rewrite_misses) as f64;
    out.set("sql.rewrite_hit_share", ratio(hits, hits + misses));
    out.set(
        "wal_bytes_per_row",
        ratio(
            (after.wal_bytes - before.wal_bytes) as f64,
            measured.rows() as f64,
        ),
    );

    // A checkpointing epoch against the median epoch.
    let stall = measured
        .log
        .iter()
        .filter(|e| e.service_epoch > 0 && e.service_epoch % checkpoint_every == 0)
        .map(|e| e.refresh_ms - median(epoch_ms))
        .fold(0.0, f64::max);
    out.set("serve.checkpoint_stall_ms_max", stall);

    if let Some(rec) = recovery {
        out.set("recovery_s", median(&rec.open_ms) / 1e3);
        out.set("serve.open_ms", mean(&rec.open_ms));
        out.set(
            "serve.recovery_replayed_records",
            rec.replayed_records as f64,
        );
        out.samples
            .insert("recovery_s".into(), rec.open_ms.len() as u64);

        // Checkpoint codec, on the crash image's own checkpoint.
        let (loaded, load_ms) = trace.timed("storage.load_latest", || {
            checkpoint::load_latest(&rec.image)
        });
        out.set("storage.checkpoint_load_ms", load_ms);
        match loaded {
            Ok(Some(ckpt)) => {
                let dir = opts.scratch.join("checkpoint-probe");
                let _ = std::fs::remove_dir_all(&dir);
                let made = std::fs::create_dir_all(&dir).map_err(|e| e.to_string());
                out.op("checkpoint probe dir", made);
                let (written, write_ms) = trace.timed("storage.write_checkpoint", || {
                    checkpoint::write_checkpoint(&dir, &ckpt.data, &FaultInjector::disabled())
                });
                out.op(
                    "probe write_checkpoint",
                    written.map(drop).map_err(|e| e.to_string()),
                );
                out.set("storage.checkpoint_write_ms", write_ms);
            }
            Ok(None) => {
                out.op(
                    "probe load_latest",
                    Err("crash image has no checkpoint".into()),
                );
            }
            Err(e) => {
                out.op("probe load_latest", Err(e.to_string()));
            }
        }
    }

    // WAL append and fsync on a scratch log with the workload's own records.
    let wal_path = opts.scratch.join("probe.wal");
    match Wal::create(&wal_path) {
        Err(e) => {
            out.op("probe wal create", Err(e.to_string()));
        }
        Ok(mut wal) => {
            let mut append_us = Vec::new();
            let mut fsync_us = Vec::new();
            for call in wal_calls {
                let record = WalRecord::IngestDelta {
                    table: call.table.to_string(),
                    delta: call.delta.clone(),
                };
                let (r, t) = trace.timed("storage.wal_append", || wal.append(&record));
                out.op("probe wal append", r.map_err(|e| e.to_string()));
                append_us.push(t * 1e3);
                let (r, t) = trace.timed("storage.wal_sync", || wal.sync("probe"));
                out.op("probe wal sync", r.map_err(|e| e.to_string()));
                fsync_us.push(t * 1e3);
            }
            out.set("storage.wal_append_us", median(&append_us));
            out.set("storage.wal_fsync_us", median(&fsync_us));
        }
    }
    let _ = std::fs::remove_file(&wal_path);

    // An explicit checkpoint of the live service.
    if let crate::run::Target::Sharded(svc) = &built.target {
        let (r, t) = trace.timed("serve.checkpoint", || svc.checkpoint());
        out.op("checkpoint", r.map(drop).map_err(|e| e.to_string()));
        out.set("serve.checkpoint_ms", t);
        let m = svc.metrics();
        let live_rows: usize = ["customer", "orders", "lineitem", "part"]
            .iter()
            .map(|t| mirror.table(t).map_or(0, Table::len))
            .sum::<usize>()
            + view_defs()
                .iter()
                .map(|(name, _)| svc.query_view(name).map_or(0, |t| t.len()))
                .sum::<usize>();
        out.set(
            "storage.checkpoint_bytes_per_row",
            ratio(m.last_checkpoint_bytes as f64, live_rows as f64),
        );
    }

    // SQL front end: parse and rewrite alone, on the reader's statements.
    let views: Vec<(String, gpivot_algebra::Plan)> = view_defs()
        .into_iter()
        .map(|(name, plan)| (name.to_string(), plan))
        .collect();
    let mut parse_us = Vec::new();
    let mut rewrite_us = Vec::new();
    for (sql, want) in sql_reads() {
        for _ in 0..opts.effort().micro_reps {
            let (stmt, t) = trace.timed("sql.parse_statement", || parse_statement(&sql));
            parse_us.push(t * 1e3);
            let Ok(Statement::Select(plan)) = stmt else {
                out.op(
                    "probe parse",
                    Err("reader statement is not a SELECT".into()),
                );
                continue;
            };
            let (hit, t) = trace.timed("sql.rewrite", || rewrite(&plan, &views, mirror));
            rewrite_us.push(t * 1e3);
            let view = hit.as_ref().map(|h| h.view.as_str());
            if view != want {
                out.op(
                    "probe rewrite",
                    Err(format!("rewrote to {view:?}, expected {want:?}")),
                );
            }
        }
    }
    out.set("sql.parse_us", median(&parse_us));
    out.set("sql.rewrite_us", median(&rewrite_us));
}
