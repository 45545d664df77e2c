//! The command line.
//!
//! * `benchmark --workload W --seed N --seconds S --trace 0|1` — one
//!   workload in this process; the last stdout line is one JSON object
//!   (`correct`, `attempted`, `failed`, `metrics`) holding every
//!   end-to-end metric (`--trace 0`) or every per-layer metric
//!   (`--trace 1`). This is the form the benchmark contract runs.
//! * `benchmark run` — every workload, each in a child process of the
//!   form above (so CPU time and peak memory are per workload), untraced
//!   then traced; prints every metric and writes `out/results.json`.
//! * `benchmark check-repeat A.json B.json [--one-sided]` — compares two
//!   results files against the bounds.
//! * `benchmark --list` — the workloads and why each exists.

use crate::compare;
use crate::contract::{package_dir, Contract, MetricDef};
use crate::harness::{write_expected, Outcome, EXPECTED_SEED};
use crate::stats::{median, spread};
use crate::workloads::{self, Workload};
use crate::{e2e, trace};
use dyncode_engine::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--trace-out FILE]
            [--write-expected]
  benchmark run [--seed 42] [--seconds S] [--repeats 1] [--workload NAME] [--smoke]
            [--out FILE] [--write-expected]
  benchmark check-repeat A.json B.json [--one-sided]
  benchmark --list";

/// Parsed flags: `--name value` pairs, bare `--name` switches and
/// positional words.
struct Args {
    flags: Vec<(String, Option<String>)>,
    words: Vec<String>,
}

const SWITCHES: [&str; 4] = ["--smoke", "--list", "--one-sided", "--write-expected"];

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut flags, mut words) = (Vec::new(), Vec::new());
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if !a.starts_with("--") {
                words.push(a);
            } else if SWITCHES.contains(&a.as_str()) {
                flags.push((a, None));
            } else {
                let v = raw.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.push((a, Some(v)));
            }
        }
        Ok(Args { flags, words })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("{name}: bad number {v:?}"))
            })
            .transpose()
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !allowed.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown option {n}\n{USAGE}")),
            None => Ok(()),
        }
    }
}

fn workload_named(contract: &Contract, name: &str) -> Result<&'static Workload, String> {
    let known = contract.workloads.iter().any(|(n, _)| n == name);
    workloads::find(name).filter(|_| known).ok_or_else(|| {
        let names: Vec<&str> = contract.workloads.iter().map(|(n, _)| n.as_str()).collect();
        format!("unknown workload {name:?}; workloads: {}", names.join(", "))
    })
}

/// The one-line result object; fails if the run did not produce exactly
/// the metrics `BENCHMARK.json` names, or produced a non-number.
fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> Result<String, String> {
    if let Some((extra, _)) = outcome
        .metrics
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(format!("metric {extra} is not in BENCHMARK.json"));
    }
    let mut fields = Vec::new();
    for def in defs {
        let (_, value) = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == def.name)
            .ok_or_else(|| format!("metric {} of BENCHMARK.json was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", def.name));
        }
        fields.push(format!(
            "{:?}: {{\"value\": {value}, \"unit\": {:?}}}",
            def.name, def.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.failed == 0,
        outcome.checks.attempted,
        outcome.checks.failed,
        fields.join(", ")
    ))
}

/// One workload in this process.
fn single(args: &Args) -> Result<ExitCode, String> {
    args.only(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--smoke",
        "--trace-out",
        "--write-expected",
    ])?;
    let contract = Contract::load()?;
    let name = args.value("--workload").ok_or(USAGE)?;
    let workload = workload_named(&contract, name)?;
    let seed: u64 = args.number("--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = args.number("--seconds")?.ok_or("--seconds is required")?;
    let smoke = args.has("--smoke");
    let traced = match args.value("--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let (outcome, defs) = if traced {
        let out = args.value("--trace-out").map(Path::new);
        (
            trace::run(workload, seed, seconds, smoke, out)?,
            &contract.per_layer,
        )
    } else {
        (
            e2e::run(
                workload,
                seed,
                seconds,
                smoke,
                !args.has("--write-expected"),
            )?,
            &contract.end_to_end,
        )
    };
    let line = result_line(&outcome, defs)?;
    if args.has("--write-expected") {
        if seed != EXPECTED_SEED || smoke || outcome.checks.failed != 0 {
            return Err(format!(
                "--write-expected needs a clean full-size run at --seed {EXPECTED_SEED}"
            ));
        }
        write_expected(workload.name, &outcome.rows)?;
    }
    println!("{line}");
    Ok(if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// What a child run reported.
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a child process and parses its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    extra: &[String],
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let doc = Json::parse(line).map_err(|e| {
        format!(
            "{workload}: the child ({}) printed no result: {e}",
            output.status
        )
    })?;
    let bad = || format!("{workload}: malformed result line {line:?}");
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err(bad());
    };
    Ok(ChildResult {
        attempted: doc
            .get("attempted")
            .and_then(Json::as_u64)
            .ok_or_else(bad)?,
        failed: doc.get("failed").and_then(Json::as_u64).ok_or_else(bad)?,
        metrics: metrics
            .iter()
            .map(|(n, m)| {
                Ok((
                    n.clone(),
                    m.get("value").and_then(Json::as_f64).ok_or_else(bad)?,
                ))
            })
            .collect::<Result<_, String>>()?,
    })
}

/// Every workload, each in child processes: `repeats` untraced runs (on
/// consecutive seeds) for the end-to-end metrics, then one traced run.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    args.only(&[
        "--seed",
        "--seconds",
        "--repeats",
        "--workload",
        "--smoke",
        "--out",
        "--write-expected",
    ])?;
    let contract = Contract::load()?;
    let smoke = args.has("--smoke");
    let seed: u64 = args.number("--seed")?.unwrap_or(EXPECTED_SEED);
    let default_seconds = if smoke {
        0.3
    } else {
        contract.run_seconds as f64
    };
    let seconds: f64 = args.number("--seconds")?.unwrap_or(default_seconds);
    let repeats: u64 = args.number("--repeats")?.unwrap_or(1).max(1);
    let selected: Vec<&str> = match args.value("--workload") {
        Some(name) => vec![workload_named(&contract, name)?.name],
        None => contract.workloads.iter().map(|(n, _)| n.as_str()).collect(),
    };
    let out_dir = package_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let results_path = args
        .value("--out")
        .map_or_else(|| out_dir.join("results.json"), PathBuf::from);

    let mut extra: Vec<String> = Vec::new();
    if smoke {
        extra.push("--smoke".into());
    }
    let num = Json::Num;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut workloads_json = Vec::new();
    for name in selected {
        println!("== {name}");
        let mut runs = Vec::new();
        for r in 0..repeats {
            let mut extra = extra.clone();
            if r == 0 && args.has("--write-expected") {
                extra.push("--write-expected".into());
            }
            runs.push(child(name, seed + r, seconds, false, &extra)?);
        }
        let mut extra = extra.clone();
        let trace_path = out_dir.join(format!("trace-{name}.jsonl"));
        extra.extend(["--trace-out".into(), trace_path.display().to_string()]);
        let traced = child(name, seed, seconds, true, &extra)?;

        let mut end_to_end = Vec::new();
        for def in &contract.end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| {
                    r.metrics
                        .iter()
                        .find(|(n, _)| *n == def.name)
                        .map(|(_, v)| *v)
                })
                .collect();
            println!(
                "  {:<34} {:>16.6} {:<10} (n = {}, spread {:.2} %)",
                def.name,
                median(&values),
                def.unit,
                values.len(),
                100.0 * spread(&values)
            );
            end_to_end.push((
                def.name.as_str(),
                Json::obj(vec![
                    ("unit", Json::Str(def.unit.clone())),
                    (
                        "values",
                        Json::Arr(values.iter().map(|&v| num(v)).collect()),
                    ),
                    ("median", num(median(&values))),
                    ("spread", num(spread(&values))),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for def in &contract.per_layer {
            let value = traced
                .metrics
                .iter()
                .find(|(n, _)| *n == def.name)
                .map_or(0.0, |(_, v)| *v);
            println!("  {:<34} {:>16.6} {:<10}", def.name, value, def.unit);
            per_layer.push((
                def.name.as_str(),
                Json::obj(vec![
                    ("unit", Json::Str(def.unit.clone())),
                    ("value", num(value)),
                ]),
            ));
        }
        let w_attempted: u64 = runs.iter().map(|r| r.attempted).sum::<u64>() + traced.attempted;
        let w_failed: u64 = runs.iter().map(|r| r.failed).sum::<u64>() + traced.failed;
        println!("  attempted {w_attempted}, failed {w_failed}");
        attempted += w_attempted;
        failed += w_failed;
        workloads_json.push((
            name,
            Json::obj(vec![
                ("correct", Json::Bool(w_failed == 0)),
                ("attempted", num(w_attempted as f64)),
                ("failed", num(w_failed as f64)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::obj(vec![
        ("schema", Json::Str("dyncode-benchmark-results/v1".into())),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        ("repeats", num(repeats as f64)),
        ("smoke", Json::Bool(smoke)),
        ("available_parallelism", num(threads as f64)),
        ("failed_frac", num(failed as f64 / attempted.max(1) as f64)),
        ("workloads", Json::obj(workloads_json)),
    ]);
    std::fs::write(&results_path, doc.pretty())
        .map_err(|e| format!("{}: {e}", results_path.display()))?;
    println!(
        "failed_frac {failed}/{attempted}; results in {}",
        results_path.display()
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn check_repeat(args: &Args) -> Result<ExitCode, String> {
    args.only(&["--one-sided"])?;
    let [_, a, b] = args.words.as_slice() else {
        return Err(USAGE.into());
    };
    let contract = Contract::load()?;
    let (a, b) = (compare::load(Path::new(a))?, compare::load(Path::new(b))?);
    Ok(
        if compare::report(&contract, &a, &b, args.has("--one-sided")) {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        },
    )
}

fn list() -> Result<ExitCode, String> {
    for (name, why) in Contract::load()?.workloads {
        println!("{name:<22} {why}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Entry point: dispatches on the first word; usage errors exit 2.
pub fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.words.first().map(String::as_str) {
            Some("run") if args.words.len() == 1 => run_all(&args),
            Some("check-repeat") => check_repeat(&args),
            None if args.has("--list") => list(),
            None if args.has("--workload") => single(&args),
            _ => Err(USAGE.into()),
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
