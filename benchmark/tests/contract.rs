//! `BENCHMARK.json` and the harness must describe the same benchmark:
//! the file is within the contract's limits, names exactly the workloads
//! the code defines, and a (smoke-sized) run emits exactly the metrics it
//! lists — through the same command line the benchmark contract uses.

use dyncode_benchmark::contract::{
    package_dir, valid_name, valid_unit, Contract, MAX_END_TO_END, MAX_PER_LAYER, MAX_WORKLOADS,
};
use dyncode_benchmark::workloads::WORKLOADS;
use dyncode_engine::Json;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");

fn scratch(name: &str) -> PathBuf {
    let dir = package_dir().join(format!("out/test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn name_and_unit_validators_follow_the_contract() {
    for good in [
        "wall_s",
        "kernel.compose_s",
        "matrix-spool-cold",
        "9lives",
        &"x".repeat(64),
    ] {
        assert!(valid_name(good), "{good}");
    }
    for bad in [
        "",
        "_wall",
        ".x",
        "-x",
        "wall s",
        "wall/s",
        "wäll",
        &"x".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad}");
    }
    for good in ["s", "ms", "1/s", "rounds/s", "%", "ns/delivery", "MiB"] {
        assert!(valid_unit(good), "{good}");
    }
    for bad in ["", "per second", "µs", &"u".repeat(17)] {
        assert!(!valid_unit(bad), "{bad}");
    }
}

fn doc_with(edit: impl FnOnce(&mut Vec<(String, Json)>)) -> String {
    let text = std::fs::read_to_string(dyncode_benchmark::contract::contract_path()).unwrap();
    let Json::Obj(mut fields) = Json::parse(&text).unwrap() else {
        panic!("BENCHMARK.json is not an object");
    };
    edit(&mut fields);
    Json::Obj(fields).pretty()
}

fn array_mut<'a>(fields: &'a mut [(String, Json)], key: &str) -> &'a mut Vec<Json> {
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some((_, Json::Arr(items))) => items,
        _ => panic!("no array {key}"),
    }
}

#[test]
fn validator_enforces_the_count_limits_and_unique_names() {
    assert!(Contract::parse(&doc_with(|_| {})).is_ok());
    let workload = |i: usize| {
        Json::obj(vec![
            ("name", Json::Str(format!("w{i}"))),
            ("why", Json::Str("x".into())),
        ])
    };
    let metric = |name: String, bounded: bool| {
        let mut f = vec![
            ("name", Json::Str(name)),
            ("unit", Json::Str("s".into())),
            ("better", Json::Str("lower".into())),
        ];
        if bounded {
            f.push(("bound", Json::Num(0.1)));
        }
        Json::obj(f)
    };
    let too_many_workloads = doc_with(|f| {
        let w = array_mut(f, "workloads");
        while w.len() <= MAX_WORKLOADS {
            w.push(workload(w.len()));
        }
    });
    assert!(Contract::parse(&too_many_workloads)
        .unwrap_err()
        .contains("workloads"));
    let too_many_e2e = doc_with(|f| {
        let m = array_mut(f, "end_to_end");
        while m.len() <= MAX_END_TO_END {
            m.push(metric(format!("extra{}", m.len()), true));
        }
    });
    assert!(Contract::parse(&too_many_e2e)
        .unwrap_err()
        .contains("end-to-end"));
    let too_many_layers = doc_with(|f| {
        let m = array_mut(f, "per_layer");
        while m.len() <= MAX_PER_LAYER {
            m.push(metric(format!("extra{}", m.len()), false));
        }
    });
    assert!(Contract::parse(&too_many_layers)
        .unwrap_err()
        .contains("per-layer"));
    let duplicate = doc_with(|f| array_mut(f, "per_layer").push(metric("wall_s".into(), false)));
    assert!(Contract::parse(&duplicate).unwrap_err().contains("twice"));
    let loose_bound = doc_with(|f| {
        let m = array_mut(f, "end_to_end");
        m.push(Json::obj(vec![
            ("name", Json::Str("loose".into())),
            ("unit", Json::Str("s".into())),
            ("better", Json::Str("lower".into())),
            ("bound", Json::Num(0.5)),
        ]));
    });
    assert!(Contract::parse(&loose_bound).unwrap_err().contains("bound"));
    let no_setup = doc_with(|f| {
        array_mut(f, "end_to_end")
            .retain(|m| m.get("name").and_then(Json::as_str) != Some("setup_s"))
    });
    assert!(Contract::parse(&no_setup).unwrap_err().contains("setup_s"));
}

#[test]
fn benchmark_json_names_the_workloads_the_code_defines() {
    let contract = Contract::load().expect("BENCHMARK.json is valid");
    let named: Vec<&str> = contract.workloads.iter().map(|(n, _)| n.as_str()).collect();
    let defined: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(named, defined);
    assert_eq!(contract.paths, ["benchmark"]);
    // The command names nothing of the repository outside `paths`.
    for word in &contract.command {
        assert!(!word.starts_with('/') && !word.contains(".."), "{word}");
        assert!(
            !word.contains('/') || word.starts_with("benchmark/"),
            "{word}"
        );
    }
}

/// Runs the contract command line on one workload; returns the metric
/// names of the result line, in order.
fn emitted(workload: &str, trace: &str) -> Vec<String> {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.05"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    let Json::Obj(fields) = &doc else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    assert!(doc.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object")
    };
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn every_workload_emits_exactly_the_metrics_benchmark_json_names() {
    let contract = Contract::load().unwrap();
    let end_to_end: Vec<&str> = contract
        .end_to_end
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    let per_layer: Vec<&str> = contract.per_layer.iter().map(|m| m.name.as_str()).collect();
    for (workload, _) in &contract.workloads {
        assert_eq!(emitted(workload, "0"), end_to_end, "{workload}");
        assert_eq!(emitted(workload, "1"), per_layer, "{workload}");
    }
}

#[test]
fn run_writes_results_that_check_repeat_accepts_against_themselves() {
    let dir = scratch("run");
    let results = dir.join("a.json");
    let run = Command::new(BIN)
        .args([
            "run",
            "--smoke",
            "--seed",
            "7",
            "--seconds",
            "0.05",
            "--repeats",
            "2",
        ])
        .args(["--workload", "forwarding-topology", "--out"])
        .arg(&results)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(&results).unwrap()).unwrap();
    let w = doc
        .get("workloads")
        .and_then(|w| w.get("forwarding-topology"))
        .unwrap();
    let wall = w.get("end_to_end").and_then(|m| m.get("wall_s")).unwrap();
    assert_eq!(wall.get("values").and_then(Json::as_arr).unwrap().len(), 2);
    assert!(w
        .get("per_layer")
        .and_then(|m| m.get("kernel.view_s"))
        .is_some());

    // A file agrees with itself; only the one workload it holds is there,
    // so the others are reported missing and the exit code says so.
    let check = Command::new(BIN)
        .arg("check-repeat")
        .arg(&results)
        .arg(&results)
        .output()
        .unwrap();
    let table = String::from_utf8(check.stdout).unwrap();
    assert!(table.contains("forwarding-topology    wall_s"), "{table}");
    assert!(table.contains("coded-binary           missing"), "{table}");
    assert_eq!(check.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_two_without_a_result_line() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["frobnicate"],
    ] {
        let out = Command::new(BIN).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
