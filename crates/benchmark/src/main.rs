//! `gpivot-benchmark` — the repo benchmark.
//!
//! ```text
//! gpivot-benchmark --workload NAME|all --seed N --seconds S --trace 0|1
//!                  [--epochs N] [--smoke] [--repeat N] [--out FILE] [--scratch DIR]
//! gpivot-benchmark compare A.json B.json
//! ```
//!
//! One workload runs in this process and prints, as the last line of its
//! standard output, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics of `BENCHMARK.json` with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `--workload all` and `--repeat N` start one
//! child process per run (peak memory is per process), `--seed` counting
//! up, and print each metric's median and quartiles; `--out` keeps the
//! runs for `compare`. See the crate README.

use gpivot_benchmark::json::Json;
use gpivot_benchmark::run::{run_workload, RunOptions, RunResult};
use gpivot_benchmark::spec::{specs, Contract, MetricDecl};
use gpivot_benchmark::{compare, stats};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

#[derive(Debug)]
struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    epochs: Option<u64>,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
    scratch: Option<PathBuf>,
}

const USAGE: &str = "usage: gpivot-benchmark --workload NAME|all --seed N --seconds S --trace 0|1 \
                     [--epochs N] [--smoke] [--repeat N] [--out FILE] [--scratch DIR]\n       \
                     gpivot-benchmark compare A.json B.json";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        epochs: None,
        smoke: false,
        repeat: 1,
        out: None,
        scratch: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        fn num<T: std::str::FromStr>(arg: &str, v: String) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{arg}: `{v}` is not a valid number"))
        }
        match arg.as_str() {
            "--workload" => cli.workload = value("a name")?,
            "--seed" => cli.seed = num(arg, value("a number")?)?,
            "--seconds" => cli.seconds = num(arg, value("a number")?)?,
            "--trace" => cli.trace = num::<u8>(arg, value("0 or 1")?)? != 0,
            "--epochs" => cli.epochs = Some(num(arg, value("a number")?)?),
            "--smoke" => cli.smoke = true,
            "--repeat" => cli.repeat = num(arg, value("a number")?)?,
            "--out" => cli.out = Some(value("a path")?.into()),
            "--scratch" => cli.scratch = Some(value("a path")?.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if cli.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    if cli.seconds.is_nan() || cli.seconds <= 0.0 || cli.repeat == 0 {
        return Err("--seconds and --repeat must be positive".into());
    }
    if cli.smoke && cli.epochs.is_none() {
        cli.epochs = Some(6);
    }
    Ok(cli)
}

/// Scratch space sits beside the executable, inside the build directory:
/// always within the checkout, and already ignored by git.
fn scratch_root(cli: &Cli) -> Result<PathBuf, String> {
    if let Some(dir) = &cli.scratch {
        return Ok(dir.clone());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let build_dir = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("executable has no build directory above it")?;
    Ok(build_dir.join("gpivot-benchmark-scratch"))
}

fn metrics_json(decls: &[MetricDecl], result: &RunResult) -> Result<Json, String> {
    decls
        .iter()
        .map(|d| {
            let value = result
                .values
                .get(&d.name)
                .ok_or_else(|| format!("metric `{}` is declared but was not measured", d.name))?;
            Ok((
                d.name.clone(),
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(&d.unit))]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()
        .map(Json::Obj)
}

/// Run one workload in this process and print its two lines: the detailed
/// report, then the contract line.
fn run_single(cli: &Cli, contract: &Contract) -> Result<bool, String> {
    let spec = specs(cli.smoke)
        .into_iter()
        .find(|s| s.name == cli.workload)
        .ok_or_else(|| {
            format!(
                "unknown workload `{}` (expected one of {:?} or `all`)",
                cli.workload, contract.workloads
            )
        })?;
    let root = scratch_root(cli)?;
    let work = root.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let opts = RunOptions {
        seed: cli.seed,
        seconds: cli.seconds,
        epochs: cli.epochs,
        trace: cli.trace,
        smoke: cli.smoke,
        scratch: work.clone(),
        trace_out: root.join(format!("trace-{}.json", spec.name)),
    };
    let result = run_workload(&spec, &opts);
    let _ = std::fs::remove_dir_all(&work);
    let result = result?;

    let decls = if cli.trace {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    let metrics = metrics_json(decls, &result)?;
    let correct = result.failed == 0;
    let num = |n: u64| Json::Num(n as f64);
    let mut report = result.config.clone();
    report.extend([
        ("trace".to_string(), Json::Bool(cli.trace)),
        (
            "trace_file".to_string(),
            if cli.trace {
                Json::str(opts.trace_out.display().to_string())
            } else {
                Json::Null
            },
        ),
        (
            "samples".to_string(),
            Json::obj(result.samples.iter().map(|(k, v)| (k.clone(), num(*v)))),
        ),
        (
            "values".to_string(),
            Json::obj(
                result
                    .values
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v))),
            ),
        ),
        (
            "failures".to_string(),
            Json::Arr(result.failures.iter().map(Json::str).collect()),
        ),
        // This benchmark is the baseline later changes are measured
        // against; it claims no gain itself.
        ("claim".to_string(), Json::Null),
    ]);
    println!("{}", Json::Obj(report).render());
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", num(result.attempted.max(1))),
            ("failed", num(result.failed)),
            ("metrics", metrics),
        ])
        .render()
    );
    for failure in &result.failures {
        eprintln!("failed: {failure}");
    }
    Ok(correct)
}

/// Run every requested (workload, seed) pair in a child process of its
/// own, gather the contract lines, and print per-metric medians and
/// quartiles.
fn run_many(cli: &Cli, contract: &Contract) -> Result<bool, String> {
    let workloads: Vec<String> = if cli.workload == "all" {
        contract.workloads.clone()
    } else {
        vec![cli.workload.clone()]
    };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in &workloads {
        for i in 0..cli.repeat {
            let seed = cli.seed + i as u64;
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if cli.trace { "1" } else { "0" }]);
            if let Some(epochs) = cli.epochs {
                cmd.args(["--epochs", &epochs.to_string()]);
            }
            if cli.smoke {
                cmd.arg("--smoke");
            }
            if let Some(scratch) = &cli.scratch {
                cmd.arg("--scratch").arg(scratch);
            }
            eprintln!("{workload}: seed {seed} ({}/{})", i + 1, cli.repeat);
            let output = cmd.output().map_err(|e| format!("start {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let parsed = Json::parse(line).map_err(|e| {
                format!(
                    "{workload} seed {seed} printed no result ({e}); stderr:\n{}",
                    String::from_utf8_lossy(&output.stderr)
                )
            })?;
            all_correct &=
                output.status.success() && parsed.get("correct") == Some(&Json::Bool(true));
            let mut run = vec![
                ("workload".to_string(), Json::str(workload)),
                ("seed".to_string(), Json::Num(seed as f64)),
            ];
            run.extend(parsed.as_obj().iter().cloned());
            runs.push(Json::Obj(run));
        }
    }
    let doc = Json::obj([("runs", Json::Arr(runs)), ("claim", Json::Null)]);
    if let Some(path) = &cli.out {
        std::fs::write(path, doc.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let decls = if cli.trace {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    let mut summary = Vec::new();
    for workload in &workloads {
        println!("{workload}");
        println!(
            "  {:<36} {:>14} {:>14} {:>14} {:>8}  unit",
            "metric", "median", "q1", "q3", "spread"
        );
        for d in decls {
            let values = compare::values_of(&doc, workload, &d.name);
            let (q1, q3) = stats::quartiles(&values).unwrap_or((f64::NAN, f64::NAN));
            let spread = stats::spread(&values).unwrap_or(f64::NAN);
            println!(
                "  {:<36} {:>14.4} {:>14.4} {:>14.4} {:>8.4}  {}",
                d.name,
                stats::median(&values),
                q1,
                q3,
                spread,
                d.unit
            );
            summary.push(Json::obj([
                ("workload", Json::str(workload)),
                ("metric", Json::str(&d.name)),
                ("median", Json::Num(stats::median(&values))),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("spread", Json::Num(spread)),
                ("runs", Json::Num(values.len() as f64)),
            ]));
        }
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(all_correct)),
            ("summary", Json::Arr(summary)),
            ("claim", Json::Null),
        ])
        .render()
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    // The defaults are what is measured: no GPIVOT_* knob of the caller's
    // shell may reach the service. (Single-threaded here, so safe.)
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GPIVOT_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Contract::load().and_then(|contract| {
        if args.first().is_some_and(|a| a == "compare") {
            match &args[1..] {
                [a, b] => compare::compare(&contract, a.as_ref(), b.as_ref()),
                _ => Err(USAGE.to_string()),
            }
        } else {
            let cli = parse_cli(&args)?;
            if cli.workload == "all" || cli.repeat > 1 {
                run_many(&cli, &contract)
            } else {
                run_single(&cli, &contract)
            }
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gpivot-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
