//! Runs every workload at smoke scale through the real command line and
//! holds its output to the contract in `BENCHMARK.json`.

use gpivot_benchmark::json::Json;
use gpivot_benchmark::spec::{specs, Contract, MetricDecl};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The last line a run of `workload` prints, parsed.
fn run(workload: &str, trace: bool) -> Json {
    // Tests run on parallel threads: every run gets a scratch directory
    // of its own.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{workload}-{}",
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_gpivot-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--scratch")
        .arg(&scratch)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let _ = std::fs::remove_dir_all(&scratch);
    Json::parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

fn assert_matches_declaration(result: &Json, declared: &[MetricDecl], what: &str) {
    let keys: Vec<&str> = result.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_f64) >= Some(1.0),
        "{what}"
    );
    let metrics = result.get("metrics").expect("metrics").as_obj();
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(
        emitted, wanted,
        "{what}: emitted names differ from BENCHMARK.json"
    );
    for ((name, m), d) in metrics.iter().zip(declared) {
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(d.unit.as_str()),
            "{what}: {name}"
        );
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} = {value:?}"
        );
    }
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let contract = Contract::load().expect("BENCHMARK.json parses");
    let names: Vec<&str> = specs(true).iter().map(|s| s.name).collect();
    assert_eq!(
        contract.workloads, names,
        "workloads differ from BENCHMARK.json"
    );
    assert!((1..=16).contains(&contract.end_to_end.len()));
    assert!((1..=128).contains(&contract.per_layer.len()));
    for d in contract.end_to_end.iter().chain(&contract.per_layer) {
        let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(
            !d.name.is_empty() && d.name.len() <= 64 && d.name.chars().all(legal),
            "illegal metric name `{}`",
            d.name
        );
    }
    assert!(contract
        .end_to_end
        .iter()
        .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    assert!(contract
        .end_to_end
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));

    for workload in names {
        let untraced = run(workload, false);
        assert_matches_declaration(&untraced, &contract.end_to_end, workload);
        for (name, m) in untraced.get("metrics").expect("metrics").as_obj() {
            // An end-to-end metric that reads 0 cannot be held to a bound.
            assert!(
                m.get("value").and_then(Json::as_f64) > Some(0.0),
                "{workload}: {name} is 0"
            );
        }
        let traced = run(workload, true);
        assert_matches_declaration(&traced, &contract.per_layer, workload);
        // 1.0 is what it reads when no traced block ran at all.
        let overhead = traced.get("metrics").and_then(|m| {
            m.get("harness.trace_overhead_share")?
                .get("value")?
                .as_f64()
        });
        assert!(
            overhead < Some(1.0),
            "{workload}: the traced run traced nothing ({overhead:?})"
        );
    }
}

#[test]
fn one_seed_repeats_the_schedule_and_the_log_bytes_exactly() {
    let exact = |run: &Json, name: &str| {
        run.get("metrics")
            .and_then(|m| m.get(name)?.get("value")?.as_f64())
            .unwrap_or_else(|| panic!("{name} is reported"))
    };
    let (a, b) = (run("durable_sql", true), run("durable_sql", true));
    for name in [
        "harness.schedule_fingerprint",
        "wal_bytes_per_row",
        "storage.wal_records",
    ] {
        assert!(exact(&a, name) > 0.0, "{name} is exercised");
        assert_eq!(
            exact(&a, name),
            exact(&b, name),
            "{name} differs between two runs of one seed"
        );
    }
}
