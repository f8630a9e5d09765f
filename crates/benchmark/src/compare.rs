//! `compare A.json B.json`: judge B against base A, one row per workload ×
//! metric, by the bounds `BENCHMARK.json` fixes — and, for the metrics that
//! are end-to-end in meaning but can only be listed per-layer there, by the
//! bounds fixed here.

use crate::json::Json;
use crate::spec::{Contract, MetricDecl};
use crate::stats::{median, spread};
use std::path::Path;

/// Per-layer metrics `compare` holds to a bound all the same. They are what
/// an operator feels, but `BENCHMARK.json` can list them only per-layer
/// (where it allows no bound): three exist on `durable_sql` alone, and an
/// end-to-end metric there must be non-zero on every workload;
/// `visible_ms_p95` is too noisy between seed runs to gate a PR on. A
/// traced `--out` file carries them; 0 means "not measured" and is skipped.
const GATED_PER_LAYER: [(&str, f64); 4] = [
    ("visible_ms_p95", 0.25),
    ("read_ms_p95", 0.25),
    ("recovery_s", 0.25),
    ("wal_bytes_per_row", 0.01),
];

fn runs_of<'a>(doc: &'a Json, workload: &'a str) -> impl Iterator<Item = &'a Json> {
    doc.get("runs")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(move |run| run.get("workload").and_then(Json::as_str) == Some(workload))
}

/// Every value of `metric` over the runs of `workload` in a `--out` file.
pub fn values_of(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs_of(doc, workload)
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Operations failed ÷ attempted over the runs of `workload`, and whether
/// every one of those runs passed its correctness gate. `None` without runs.
fn failures_of(doc: &Json, workload: &str) -> Option<(f64, bool)> {
    let count = |run: &Json, key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let (mut failed, mut attempted, mut correct, mut runs) = (0.0, 0.0, true, 0);
    for run in runs_of(doc, workload) {
        failed += count(run, "failed");
        attempted += count(run, "attempted");
        correct &= run.get("correct") == Some(&Json::Bool(true));
        runs += 1;
    }
    (runs > 0).then(|| (failed / attempted.max(1.0), correct))
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `better` / `same` / `worse` by the metric's bound, or `unresolved` when
/// either side's own run-to-run spread is wider than that bound.
fn verdict(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> &'static str {
    let (a, b) = (median(base), median(new));
    if base.is_empty() || new.is_empty() || a == 0.0 {
        return "missing";
    }
    let widest = spread(base).unwrap_or(0.0).max(spread(new).unwrap_or(0.0));
    if widest > bound {
        return "unresolved";
    }
    let worse_by = if higher_is_better { a - b } else { b - a } / a.abs();
    if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "same"
    }
}

/// Print the comparison; `Ok(false)` when any row is worse, unresolved or
/// missing, when a run of B failed its correctness gate or B's share of
/// failed operations rose, or when one seed gave two schedules.
pub fn compare(contract: &Contract, a: &Path, b: &Path) -> Result<bool, String> {
    Ok(compare_docs(contract, &load(a)?, &load(b)?))
}

fn compare_docs(contract: &Contract, base: &Json, new: &Json) -> bool {
    println!(
        "{:<13} {:<20} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "base median",
        "new median",
        "new/base",
        "bound",
        "spread A",
        "spread B"
    );
    let gated = GATED_PER_LAYER.iter().filter_map(|(name, bound)| {
        let decl = contract.per_layer.iter().find(|d| d.name == *name)?;
        Some((decl, *bound))
    });
    let rows: Vec<(&MetricDecl, f64)> = contract
        .end_to_end
        .iter()
        .map(|d| (d, d.bound.unwrap_or(0.0)))
        .chain(gated)
        .collect();
    let mut ok = true;
    for workload in &contract.workloads {
        for (d, bound) in &rows {
            let (va, vb) = (
                values_of(base, workload, &d.name),
                values_of(new, workload, &d.name),
            );
            // Untraced runs carry no per-layer metrics and traced runs no
            // end-to-end ones; a per-layer metric reads 0 where the
            // workload does not exercise it.
            if va.iter().chain(&vb).all(|v| *v == 0.0) {
                continue;
            }
            let v = verdict(&va, &vb, d.higher_is_better, *bound);
            ok &= matches!(v, "same" | "better");
            println!(
                "{:<13} {:<20} {:>14.4} {:>14.4} {:>9.4} {:>7.2} {:>8.4} {:>8.4}  {v}",
                workload,
                d.name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                bound,
                spread(&va).unwrap_or(f64::NAN),
                spread(&vb).unwrap_or(f64::NAN),
            );
        }
        // `failed_share` may not rise, and no run may fail its gate.
        if let (Some((share_a, _)), Some((share_b, correct_b))) =
            (failures_of(base, workload), failures_of(new, workload))
        {
            let v = match (correct_b, share_b > share_a) {
                (false, _) => "INCORRECT",
                (true, true) => "worse",
                (true, false) => "same",
            };
            ok &= v == "same";
            println!(
                "{:<13} {:<20} {share_a:>14.6} {share_b:>14.6} {:>9} {:>7.2} {:>8} {:>8}  {v}",
                workload, "failed_share", "", 0.0, "", ""
            );
        }
        // One seed, one schedule: identical wherever both files carry it
        // (traced runs of the same seeds).
        let exact = "harness.schedule_fingerprint";
        let (va, vb) = (
            values_of(base, workload, exact),
            values_of(new, workload, exact),
        );
        if !va.is_empty() && !vb.is_empty() {
            let same = va == vb;
            ok &= same;
            println!(
                "{workload:<13} {exact:<34} {}",
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = |m: f64| vec![m * 0.99, m, m, m * 1.01];
        assert_eq!(verdict(&steady(100.0), &steady(104.0), true, 0.1), "same");
        assert_eq!(verdict(&steady(100.0), &steady(80.0), true, 0.1), "worse");
        assert_eq!(verdict(&steady(100.0), &steady(80.0), false, 0.1), "better");
        let noisy = vec![50.0, 100.0, 150.0, 200.0];
        assert_eq!(verdict(&steady(100.0), &noisy, true, 0.1), "unresolved");
        assert_eq!(verdict(&[], &steady(1.0), true, 0.1), "missing");
    }

    fn run(workload: &str, correct: bool, failed: u32, metrics: &[(&str, f64)]) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(100.0)),
            ("failed", Json::Num(f64::from(failed))),
            (
                "metrics",
                Json::obj(
                    metrics
                        .iter()
                        .map(|(k, v)| (*k, Json::obj([("value", Json::Num(*v))]))),
                ),
            ),
        ])
    }

    fn judge(a: Vec<Json>, b: Vec<Json>) -> bool {
        let doc = |runs| Json::obj([("runs", Json::Arr(runs))]);
        compare_docs(&Contract::load().unwrap(), &doc(a), &doc(b))
    }

    #[test]
    fn failed_runs_and_gated_per_layer_metrics_are_judged() {
        let good = || vec![run("trickle", true, 0, &[("visible_rows_per_s", 100.0)]); 4];
        assert!(judge(good(), good()));
        // Same numbers, but one run of B failed its correctness gate.
        let mut failed = good();
        failed[2] = run("trickle", false, 3, &[("visible_rows_per_s", 100.0)]);
        assert!(!judge(good(), failed));

        let wal = |b: f64| vec![run("durable_sql", true, 0, &[("wal_bytes_per_row", b)]); 4];
        // A legitimate encoding change inside the 1 % bound passes …
        assert!(judge(wal(66.0), wal(66.3)));
        // … a fatter log does not.
        assert!(!judge(wal(66.0), wal(68.0)));
        // One seed gave two schedules.
        let print = |f: f64| vec![run("bulk", true, 0, &[("harness.schedule_fingerprint", f)])];
        assert!(!judge(print(1.0), print(2.0)));
    }
}
