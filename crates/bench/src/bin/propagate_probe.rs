//! Propagation probe: how long each paper view takes to plan its refresh
//! on the repo benchmark's delta mix, and where that time goes.
//!
//! ```text
//! propagate-probe [--share F] [--epochs N] [--scale SF]
//!
//!   --share    surviving row-changes per epoch, as a share of lineitem
//!              (default 0.05, the `bulk` workload; 0.001 is `trickle`)
//!   --epochs   measured epochs (default 8)
//!   --scale    TPC-H scale of the generated catalog (default 0.5, the
//!              benchmark's)
//! ```
//!
//! The catalog and the batches come from the benchmark's own generator
//! (`gpivot_benchmark::gen`), so a batch carries the benchmark's mix: new
//! and deleted orders with their lineitems, price updates, re-datings and
//! customer nation moves. Each epoch plans every view by its own strategy
//! (`MaterializedView::plan_refresh`, timed, with its `maintain.*` spans
//! collected), then refreshes the manager so the next epoch starts from
//! the committed state. It prints each view's registration time, its mean
//! `plan_refresh` time and its spans' per-epoch totals, and exits non-zero
//! unless every view still equals recomputation at the end.

use gpivot_benchmark::gen::{Generator, Mix};
use gpivot_core::{SourceDeltas, ViewManager};
use gpivot_exec::Executor;
use gpivot_tpch::views::{view1, view2, view3, VIEW2_THRESHOLD};
use gpivot_tpch::{generate, TpchConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn main() {
    let mut share = 0.05;
    let mut epochs = 8usize;
    let mut scale = 0.5;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--share" => share = parse(&value("a number")),
            "--epochs" => epochs = parse(&value("an integer")),
            "--scale" => scale = parse(&value("a number")),
            "--help" | "-h" => {
                println!("usage: propagate-probe [--share F] [--epochs N] [--scale SF]");
                return;
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }

    let catalog = generate(&TpchConfig {
        seed: 1,
        ..TpchConfig::scale(scale)
    });
    let lineitems = catalog.table("lineitem").map_or(0, |t| t.len()) as f64;
    let mut batches = Generator::new(
        &catalog,
        1,
        Mix::for_rows(lineitems * share, 0.0),
        None,
        None,
    );
    let mut vm = ViewManager::new(catalog);
    let views = [
        ("v1", view1()),
        ("v2", view2(VIEW2_THRESHOLD)),
        ("v3", view3()),
    ];
    println!("scale {scale}, {lineitems} lineitems, share {share}, {epochs} epochs");
    for (name, plan) in views.iter().cloned() {
        let start = Instant::now();
        let strategy = vm
            .register_view(name, plan)
            .unwrap_or_else(|e| die(&format!("register {name}: {e}")));
        println!(
            "register {name} ({strategy}): {:.2} ms",
            ms(start.elapsed())
        );
    }

    let mut planned: BTreeMap<&str, Duration> = BTreeMap::new();
    // Per view: signed rows reaching apply, rows propagated.
    let mut rows: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    let mut spans: BTreeMap<&str, BTreeMap<String, Duration>> = BTreeMap::new();
    let mut delta_rows = 0u64;
    for _ in 0..epochs {
        let mut deltas = SourceDeltas::new();
        for call in batches.next_batch() {
            deltas.absorb_delta(call.table, call.delta);
        }
        let (deltas, _) = deltas.admit(vm.catalog());
        let deltas = deltas.into_owned();
        delta_rows += deltas.total_changes();
        for (name, _) in &views {
            let view = vm.view(name).expect("registered");
            let collector = tracing::TimingSubscriber::shared();
            let start = {
                let _trace = tracing::push_collector(collector.clone());
                let start = Instant::now();
                let (_, outcome) = view
                    .plan_refresh(vm.catalog(), &deltas, &Executor::new())
                    .unwrap_or_else(|e| die(&format!("plan {name}: {e}")));
                let counts = rows.entry(name).or_default();
                counts.0 += outcome.delta_rows;
                counts.1 += outcome.rows_propagated;
                start.elapsed()
            };
            *planned.entry(name).or_default() += start;
            let totals = spans.entry(name).or_default();
            for (span, h) in collector.histograms() {
                if span.starts_with("maintain.") {
                    *totals.entry(span).or_default() += h.total();
                }
            }
        }
        vm.refresh(&deltas)
            .unwrap_or_else(|e| die(&format!("refresh: {e}")));
    }

    let per_epoch = |d: Duration| ms(d) / epochs.max(1) as f64;
    println!(
        "{:.0} delta rows per epoch; per-epoch means:",
        delta_rows as f64 / epochs.max(1) as f64
    );
    for (name, _) in &views {
        let phases: Vec<String> = spans[name]
            .iter()
            .map(|(span, d)| format!("{span} {:.3}", per_epoch(*d)))
            .collect();
        let (delta, propagated) = rows[name];
        let per = |n: usize| n as f64 / epochs.max(1) as f64;
        println!(
            "{name}: plan_refresh {:.3} ms | {} | {:.0} delta rows, {:.0} rows propagated",
            per_epoch(planned[name]),
            phases.join(", "),
            per(delta),
            per(propagated),
        );
    }
    for (name, _) in &views {
        match vm.verify_view(name) {
            Ok(true) => {}
            Ok(false) => die(&format!("{name} diverged from recomputation")),
            Err(e) => die(&format!("verify {name}: {e}")),
        }
    }
    println!("verified ✓");
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("cannot parse `{s}`")))
}

fn die(msg: &str) -> ! {
    eprintln!("propagate-probe: {msg}");
    std::process::exit(2)
}
