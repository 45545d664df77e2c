//! Integration tests for the `experiments` CLI: argument hardening (an
//! unknown id must exit nonzero and print the registry), the artifact
//! pipeline (`--json`/`--out`, `schema`), the `compare` regression gate,
//! and thread-count independence of emitted artifacts.

use std::path::PathBuf;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dyncode_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_arguments_prints_usage_and_exits_2() {
    let out = experiments(&[]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("usage:"), "{err}");
    assert!(err.contains("e17"), "registry must be listed:\n{err}");
    assert!(err.contains("e20"), "registry must include e18–e20:\n{err}");
    assert!(err.contains("trace record"), "trace usage listed:\n{err}");
}

#[test]
fn unknown_experiment_id_exits_nonzero_with_registry() {
    for bad in [&["e99"][..], &["e1", "e99"][..], &["exx", "--quick"][..]] {
        let out = experiments(bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        let err = stderr(&out);
        assert!(err.contains("unknown experiment id"), "{err}");
        // The full e1–e20 registry is printed so the user can pick.
        for id in ["e1", "e9", "e18", "e19", "e20"] {
            assert!(err.contains(id), "missing {id} in:\n{err}");
        }
        // Sorted numerically: e2 must come before e10, e9 before e18.
        let pos = |id: &str| err.find(&format!("\n  {id} ")).expect(id);
        assert!(pos("e2") < pos("e10"), "lexicographic sort leaked:\n{err}");
        assert!(pos("e9") < pos("e18"), "lexicographic sort leaked:\n{err}");
    }
    // And nothing must have run.
    let out = experiments(&["e99"]);
    assert!(!stderr(&out).contains("[running"));
}

#[test]
fn list_flag_prints_sorted_registry_with_protocol_column() {
    let out = experiments(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    let ids: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    // e1..e23 in numeric order, then one row per delivery model, then
    // one per adversary spec form.
    let mut expected: Vec<String> = (1..=23).map(|i| format!("e{i}")).collect();
    expected.extend(std::iter::repeat_n("delivery".to_string(), 3));
    expected.extend(std::iter::repeat_n("adversary".to_string(), 9));
    assert_eq!(
        ids, expected,
        "--list must print e1..e23, the delivery registry, the adversary registry"
    );
    assert!(
        text.contains("adversary edge-markov(p_up,p_down)  "),
        "{text}"
    );
    // Every experiment line carries its protocol column in brackets and a
    // termination-predicate column.
    for line in text.lines().filter(|l| l.starts_with('e')) {
        assert!(line.contains('['), "missing protocol column: {line}");
        assert!(
            line.contains("term: "),
            "missing termination column: {line}"
        );
    }
    assert!(
        text.contains("field-broadcast(gf256)"),
        "e21's protocol column names the registry specs:\n{text}"
    );
    // e23 mixes both predicates; the node-level demos have none.
    let line_of = |id: &str| {
        text.lines()
            .find(|l| l.starts_with(&format!("{id} ")))
            .unwrap_or_else(|| panic!("{id} row missing:\n{text}"))
    };
    assert!(
        line_of("e23").contains("term: quorum-threshold, all-tokens-decoded"),
        "{}",
        line_of("e23")
    );
    assert!(line_of("e1").contains("term: all-tokens-decoded"), "{text}");
    assert!(line_of("e5").contains("term: n/a"), "{text}");
    for needle in ["reliable", "radio(p=..[,spont=..])", "lossy(eps=..)"] {
        assert!(
            text.contains(needle),
            "delivery registry row {needle:?} missing:\n{text}"
        );
    }
}

#[test]
fn protocols_subcommand_prints_the_registry_grammar() {
    let out = experiments(&["protocols"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    for needle in [
        "protocol registry",
        "token-forwarding",
        "pipelined-forwarding[(T)]",
        "greedy-forward[(gather=G,bcast=B)]",
        "field-broadcast(gf2|gf256|gf257|m61[,det=S])",
        "patch-indexed",
        "parameters:",
        "quorum-watermark(f=F[,rounds=R])",
        "quorum-decide(f=F,q=Q)",
        "termination: all-tokens-decoded",
        "termination: quorum-threshold",
        "delivery model registry (3 entries)",
        "adversary registry (9 entries)",
        "edge-markov(p_up,p_down)",
        "knowledge-adaptive",
    ] {
        assert!(text.contains(needle), "missing {needle:?}:\n{text}");
    }
}

#[test]
fn trace_record_rejects_unknown_scenarios_with_the_registry() {
    let out = experiments(&["trace", "record", "/nonexistent.dct", "mystery", "8", "4"]);
    assert_eq!(out.status.code(), Some(2), "usage error, not runtime");
    let err = stderr(&out);
    assert!(
        err.contains("unknown adversary") && err.contains("churn(rate,base)"),
        "{err}"
    );
}

#[test]
fn trace_replay_rejects_unknown_protocols_with_the_registry() {
    let out = experiments(&["trace", "replay", "/nonexistent.dct", "mystery-proto", "1"]);
    assert_eq!(out.status.code(), Some(2), "usage error, not runtime");
    let err = stderr(&out);
    assert!(
        err.contains("unknown protocol") && err.contains("valid protocols"),
        "{err}"
    );
}

#[test]
fn trace_replay_rejects_explicit_fast_kernel_on_ineligible_specs() {
    // A usage error (exit 2) before the trace file is even opened: the
    // spec can never run on the fast backend, so `--kernel fast` is a
    // typo regardless of the trace.
    let out = experiments(&[
        "trace",
        "replay",
        "/nonexistent.dct",
        "patch-indexed",
        "1",
        "--kernel",
        "fast",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("no fast kernel") && err.contains("eligible specs"),
        "{err}"
    );
    // `--kernel auto` on the same spec falls back instead of erroring
    // (the nonexistent file is then the failure, exit 1 not 2).
    let out = experiments(&[
        "trace",
        "replay",
        "/nonexistent.dct",
        "patch-indexed",
        "1",
        "--kernel",
        "auto",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));

    // A `det=` advice spec is no longer on that list: it replays on
    // `--kernel fast` and prints the `--kernel reference` result line.
    let dir = temp_dir("trace_det");
    let path = dir.join("t.dct");
    let p = path.to_str().unwrap();
    let out = experiments(&[
        "trace",
        "record",
        p,
        "edge-markov(0.1,0.3)",
        "12",
        "200",
        "5",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let result_line = |kernel: &str| {
        let spec = "field-broadcast(gf2,det=1)";
        let out = experiments(&["trace", "replay", p, spec, "1", "--kernel", kernel]);
        assert_eq!(out.status.code(), Some(0), "{kernel}: {}", stderr(&out));
        let text = stdout(&out);
        text.lines().last().expect("a result line").to_string()
    };
    let fast = result_line("fast");
    assert!(fast.contains("completed true"), "{fast}");
    assert_eq!(fast, result_line("reference"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_record_info_replay_round_trip() {
    let dir = temp_dir("trace");
    let path = dir.join("t.dct");
    let p = path.to_str().unwrap();

    let out = experiments(&[
        "trace",
        "record",
        p,
        "edge-markov(0.1,0.3)",
        "12",
        "60",
        "5",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("60 rounds"), "{}", stdout(&out));

    let out = experiments(&["trace", "info", p]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let info = stdout(&out);
    assert!(info.contains("n           12"), "{info}");
    assert!(info.contains("rounds      60"), "{info}");
    assert!(info.contains("seed        5"), "{info}");

    let out = experiments(&["trace", "replay", p, "token-forwarding", "2"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("completed true"), "{}", stdout(&out));

    // Usage errors: missing args exit 2, bad scenario exits 2, a missing
    // file is a runtime failure (1), distinct from usage.
    assert_eq!(experiments(&["trace"]).status.code(), Some(2));
    assert_eq!(
        experiments(&["trace", "record", p, "mystery(1)", "8", "5"])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        experiments(&["trace", "info", "/nonexistent/trace.dct"])
            .status
            .code(),
        Some(1)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_replay_rejects_malformed_traces_with_exit_1() {
    // Four ways a `.dct` file can be wrong that used to reach a panic or
    // an aborting allocation inside the cell; each must exit 1 with a
    // message instead.
    let dir = temp_dir("trace_malformed");
    let good = dir.join("good.dct");
    let out = experiments(&[
        "trace",
        "record",
        good.to_str().unwrap(),
        "edge-markov(0.1,0.3)",
        "12",
        "20",
        "5",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let bytes = std::fs::read(&good).unwrap();
    assert!(bytes.len() > 40, "the truncation below must cut frames");

    // Header layout: magic, n (u32 LE at 4), rounds (u64 LE at 8), seed.
    let with_n = |n: u32| {
        let mut b = bytes.clone();
        b[4..8].copy_from_slice(&n.to_le_bytes());
        b
    };
    let mut empty_round = bytes[..24].to_vec();
    empty_round[8..16].copy_from_slice(&1u64.to_le_bytes());
    empty_round.push(0); // one frame: zero flips against the empty graph
    let cases = [
        ("n-zero", with_n(0)),
        ("truncated", bytes[..40].to_vec()),
        ("n-huge", with_n(1 << 31)),
        ("empty-round", empty_round),
    ];
    for (name, bad) in cases {
        let path = dir.join(format!("{name}.dct"));
        std::fs::write(&path, bad).unwrap();
        let out = experiments(&["trace", "replay", path.to_str().unwrap()]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(err.contains("error: cannot replay"), "{name}: {err}");
        assert!(!err.contains("panicked"), "{name}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_exits_zero() {
    let out = experiments(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stderr(&out).contains("experiments:"));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = experiments(&["e1", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag"));
}

#[test]
fn flags_outside_a_subcommands_allowlist_are_usage_errors() {
    // A flag its subcommand has no use for fails loudly, never silently
    // ignored — wherever it sits among valid ones.
    for (args, needle) in [
        (
            &["e1", "--kernel", "fast"][..],
            "--kernel is not valid for experiment runs",
        ),
        (
            &["e1", "--tol", "0.5"][..],
            "--tol is not valid for experiment runs",
        ),
        (
            &["compare", "A", "B", "--quick", "--kernel", "fast", "--json"][..],
            "--quick is not valid for compare",
        ),
        (
            &["compare", "A", "B", "--kernel", "fast"][..],
            "--kernel is not valid for compare",
        ),
        (
            &["trace", "info", "t.dct", "--kernel", "fast"][..],
            "--kernel is not valid for trace record/info",
        ),
        // No subcommand knows these at all.
        (&["e1", "--tol-pct", "5"][..], "unknown flag \"--tol-pct\""),
        (
            &["compare", "A", "B", "--max-rss-pct", "75"][..],
            "unknown flag \"--max-rss-pct\"",
        ),
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = stderr(&out);
        assert!(err.contains(needle), "args {args:?}: {err}");
        assert!(!err.contains("[running"), "args {args:?} ran something");
    }
}

#[test]
fn removed_perf_subcommands_are_unknown_experiment_ids() {
    for args in [
        &["perf", "--quick"][..],
        &["perf-compare", "A.json", "B.json"][..],
        &["bench-engine", "--quick"][..],
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = stderr(&out);
        assert!(err.contains("unknown experiment id"), "{err}");
        assert!(err.contains(&format!("{:?}", args[0])), "{err}");
        assert!(err.contains("\n  e23 "), "registry must be printed:\n{err}");
    }
    // `help` lists every subcommand's usage.
    let err = stderr(&experiments(&["help"]));
    for gone in ["perf", "bench-engine"] {
        assert!(!err.contains(gone), "{gone} still in usage:\n{err}");
    }
}

#[test]
fn json_artifacts_are_emitted_schema_valid_and_thread_independent() {
    let dir1 = temp_dir("t1");
    let dir8 = temp_dir("t8");
    let out = experiments(&[
        "e1",
        "--quick",
        "--json",
        "--threads",
        "1",
        "--out",
        dir1.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = experiments(&[
        "e1",
        "--quick",
        "--json",
        "--threads",
        "8",
        "--out",
        dir8.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    let a1 = std::fs::read_to_string(dir1.join("BENCH_e1.json")).expect("artifact written");
    let a8 = std::fs::read_to_string(dir8.join("BENCH_e1.json")).expect("artifact written");
    assert_eq!(a1, a8, "--threads must not change artifact bytes");

    // The schema subcommand accepts it...
    let artifact_path = dir1.join("BENCH_e1.json");
    let out = experiments(&["schema", artifact_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("OK"));

    // ...and rejects garbage.
    let bad = dir1.join("bad.json");
    std::fs::write(&bad, "{\"schema\": \"other/v1\"}").unwrap();
    let out = experiments(&["schema", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("INVALID"));

    // compare: identical artifacts pass...
    let p = artifact_path.to_str().unwrap();
    let out = experiments(&["compare", p, p]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("OK"));

    // ...and an injected regression fails the gate with exit 1.
    let worse_path = dir1.join("BENCH_e1_worse.json");
    let worse = regress_first_mean_rounds(&a1);
    std::fs::write(&worse_path, worse).unwrap();
    let out = experiments(&["compare", p, worse_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("REGRESSION"), "{}", stdout(&out));

    // Missing file is a usage error (2), distinct from a regression (1).
    let out = experiments(&["compare", p, "/nonexistent/artifact.json"]);
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir1).ok();
    std::fs::remove_dir_all(&dir8).ok();
}

/// A tiny 4-cell campaign spec for the store-family subcommand tests.
const MINI_SPEC: &str = "id = mini\n\
                         adversaries = shuffled-path, bottleneck\n\
                         n = 8, 12\n\
                         seeds = 1, 2\n\
                         cap = 50nn\n";

#[test]
fn campaign_rejects_malformed_shard_values() {
    let dir = temp_dir("badshard");
    let spec = dir.join("mini.camp");
    std::fs::write(&spec, MINI_SPEC).unwrap();
    for (bad, needle) in [
        ("0/2", "1 ≤ I ≤ K"),
        ("3/2", "1 ≤ I ≤ K"),
        ("2/0", "K must be ≥ 1"),
        ("x/2", "expected I/K"),
        ("12", "expected I/K"),
    ] {
        let out = experiments(&["campaign", spec.to_str().unwrap(), "--shard", bad]);
        assert_eq!(out.status.code(), Some(2), "--shard {bad}");
        let err = stderr(&out);
        assert!(err.contains(needle), "--shard {bad}: {err}");
    }
    // --shard on plain experiment runs is rejected, pointing at campaign.
    let out = experiments(&["e1", "--quick", "--shard", "1/2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--shard is not valid"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_shard_merge_and_warm_store_reproduce_the_unsharded_bytes() {
    let dir = temp_dir("orch");
    let spec = dir.join("mini.camp");
    std::fs::write(&spec, MINI_SPEC).unwrap();
    let sp = spec.to_str().unwrap();
    let store = dir.join("cache");
    let store_s = store.to_str().unwrap();
    let full_dir = dir.join("full");

    // Unsharded run, populating the store.
    let out = experiments(&[
        "campaign",
        sp,
        "--out",
        full_dir.to_str().unwrap(),
        "--store",
        store_s,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let full = std::fs::read_to_string(full_dir.join("BENCH_mini.json")).unwrap();

    // Both shards (pure store hits now), then merge: byte-identical.
    let shard_dir = dir.join("shards");
    for i in ["1/2", "2/2"] {
        let out = experiments(&[
            "campaign",
            sp,
            "--shard",
            i,
            "--out",
            shard_dir.to_str().unwrap(),
            "--store",
            store_s,
        ]);
        assert_eq!(out.status.code(), Some(0), "shard {i}: {}", stderr(&out));
    }
    let s1 = shard_dir.join("BENCH_mini.shard-1-of-2.json");
    let s2 = shard_dir.join("BENCH_mini.shard-2-of-2.json");
    let merged_dir = dir.join("merged");
    let out = experiments(&[
        "merge",
        s1.to_str().unwrap(),
        s2.to_str().unwrap(),
        "--out",
        merged_dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let merged = std::fs::read_to_string(merged_dir.join("BENCH_mini.json")).unwrap();
    assert_eq!(merged, full, "merge must reproduce the unsharded bytes");

    // Merging an incomplete shard set is a usage error naming the gap.
    let out = experiments(&["merge", s1.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("incomplete shard set"),
        "{}",
        stderr(&out)
    );

    // A warm re-run recomputes nothing: sidecar counters prove it and
    // the artifact bytes cannot tell warm from cold.
    let warm_dir = dir.join("warm");
    let out = experiments(&[
        "campaign",
        sp,
        "--out",
        warm_dir.to_str().unwrap(),
        "--store",
        store_s,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let warm = std::fs::read_to_string(warm_dir.join("BENCH_mini.json")).unwrap();
    assert_eq!(warm, full);
    let sidecar = std::fs::read_to_string(warm_dir.join("BENCH_mini.store.json")).unwrap();
    assert!(sidecar.contains("\"computed\": 0"), "{sidecar}");
    assert!(sidecar.contains("\"store_hits\": 8"), "{sidecar}");

    // Resume against a *different* campaign's artifact: exit 2, the
    // error names the digest mismatch.
    let spec2 = dir.join("mini2.camp");
    std::fs::write(&spec2, MINI_SPEC.replace("seeds = 1, 2", "seeds = 7")).unwrap();
    let out = experiments(&[
        "campaign",
        spec2.to_str().unwrap(),
        "--resume",
        "--out",
        full_dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("digest"), "{}", stderr(&out));

    // Resume with the matching spec succeeds (everything carries over)
    // and still reproduces the same bytes.
    let out = experiments(&[
        "campaign",
        sp,
        "--resume",
        "--out",
        full_dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("resumed 8"), "{}", stdout(&out));
    let resumed = std::fs::read_to_string(full_dir.join("BENCH_mini.json")).unwrap();
    assert_eq!(resumed, full);
    // --resume without --out has nowhere to find the prior artifact.
    let out = experiments(&["campaign", sp, "--resume"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--resume needs --out"),
        "{}",
        stderr(&out)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_usage_errors_exit_2() {
    // No spec file given.
    let out = experiments(&["campaign"]);
    assert_eq!(out.status.code(), Some(2));
    // Spec file missing on disk is an input error, not a crash.
    let out = experiments(&["campaign", "/nonexistent/spec.camp"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
    // Malformed spec text names the offending line.
    let dir = temp_dir("badspec");
    let bad = dir.join("bad.camp");
    std::fs::write(&bad, "this is not a campaign\n").unwrap();
    let out = experiments(&["campaign", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("key = value"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

/// A spec that parses line by line but names a grid that cannot exist is
/// a usage error like any other parse failure: exit 2 with one `error:`
/// line — not a panic (exit 101) out of grid expansion on the main
/// thread.
#[test]
fn campaign_with_an_impossible_grid_exits_2_without_panicking() {
    let dir = temp_dir("hostile");
    for (name, text, names) in [
        ("k0", "id = a\nk = 0\n", "at least one token"),
        (
            "place",
            "id = b\nplacement = all-at-node:99\n",
            "all-at-node:99",
        ),
        ("muld", "id = c\nd = 2d\n", "`d`"),
        ("quick", "id = d\nquick_n = 0\n", "n = 0"),
    ] {
        let spec = dir.join(format!("{name}.camp"));
        std::fs::write(&spec, text).unwrap();
        let out_dir = dir.join("out");
        let args = [
            "campaign",
            spec.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
        ];
        for args in [&args[..], &[&args[..], &["--quick"]].concat()] {
            let out = experiments(args);
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(2), "{name}: {err}");
            assert!(!err.contains("panicked at"), "{name}: {err}");
            let errors: Vec<&str> = err.lines().filter(|l| l.starts_with("error:")).collect();
            assert_eq!(errors.len(), 1, "{name}: {err}");
            assert!(errors[0].contains(names), "{name}: {err}");
        }
        assert!(!out_dir.exists(), "{name}: nothing may have run");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_once_drains_a_spool_and_reports_failures() {
    let dir = temp_dir("serve");
    let spool = dir.join("spool");
    std::fs::create_dir_all(&spool).unwrap();
    std::fs::write(
        spool.join("ok.camp"),
        "id = srv\nn = 8\nseeds = 1\ncap = 50nn\n",
    )
    .unwrap();
    std::fs::write(spool.join("zz-broken.camp"), "garbage\n").unwrap();
    let out_dir = dir.join("out");

    // One failing spec → exit 1, but the good spec still ran.
    let out = experiments(&[
        "serve",
        spool.to_str().unwrap(),
        "--once",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("served"), "{text}");
    assert!(text.contains("FAILED"), "{text}");
    assert!(out_dir.join("BENCH_srv.json").exists());
    assert!(spool.join("done/ok.camp").exists());
    assert!(spool.join("failed/zz-broken.camp").exists());

    // The spool is drained: a second pass does nothing and exits 0.
    let out = experiments(&[
        "serve",
        spool.to_str().unwrap(),
        "--once",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // A nonexistent spool is a usage error.
    let out = experiments(&["serve", "/nonexistent/spool", "--once"]);
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_subcommand_requires_an_explicit_store_and_gcs_to_budget() {
    // No default store directory: gc deletes files.
    let out = experiments(&["store", "stats"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--store"), "{}", stderr(&out));
    let out = experiments(&["store", "gc", "--store", "/tmp/x"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--max-bytes"), "{}", stderr(&out));

    // Populate a store via a campaign run, then stats + gc to zero.
    let dir = temp_dir("storegc");
    let spec = dir.join("mini.camp");
    std::fs::write(&spec, MINI_SPEC).unwrap();
    let store = dir.join("cache");
    let store_s = store.to_str().unwrap();
    let out = experiments(&["campaign", spec.to_str().unwrap(), "--store", store_s]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = experiments(&["store", "stats", "--store", store_s]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("8 object(s)"), "{}", stdout(&out));
    let out = experiments(&["store", "gc", "--max-bytes", "0", "--store", store_s]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("removed 8 object(s)"),
        "{}",
        stdout(&out)
    );
    let out = experiments(&["store", "stats", "--store", store_s]);
    assert!(stdout(&out).contains("0 object(s)"), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_pin_protects_objects_from_gc() {
    let dir = temp_dir("storepin");
    let spec = dir.join("mini.camp");
    std::fs::write(&spec, MINI_SPEC).unwrap();
    let store = dir.join("cache");
    let store_s = store.to_str().unwrap();
    let out = experiments(&["campaign", spec.to_str().unwrap(), "--store", store_s]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // Recover one object's digest from the put log.
    let index = std::fs::read_to_string(store.join("index.log")).unwrap();
    let digest = index
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().next())
        .expect("index has at least one put")
        .to_string();

    // Pin it (idempotently), then gc to zero: the pinned object survives.
    let out = experiments(&["store", "pin", &digest, "--store", store_s]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains(&format!("pinned {digest}")));
    let out = experiments(&["store", "pin", &digest, "--store", store_s]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("already pinned"), "{}", stdout(&out));

    let out = experiments(&["store", "gc", "--max-bytes", "0", "--store", store_s]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("removed 7 object(s)"), "{text}");
    assert!(text.contains("1 pinned kept"), "{text}");
    let out = experiments(&["store", "stats", "--store", store_s]);
    assert!(stdout(&out).contains("1 object(s)"), "{}", stdout(&out));
    assert!(stdout(&out).contains("1 pinned"), "{}", stdout(&out));

    // A malformed digest is rejected before touching the pins file.
    let out = experiments(&["store", "pin", "not-a-digest", "--store", store_s]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("64 lowercase hex"),
        "{}",
        stderr(&out)
    );
    // `pin` with no digests is a usage error.
    let out = experiments(&["store", "pin", "--store", store_s]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("at least one DIGEST"),
        "{}",
        stderr(&out)
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Multiplies the first `"mean_rounds": <x>` in the artifact text by 10 —
/// an injected regression well past any tolerance.
fn regress_first_mean_rounds(text: &str) -> String {
    let key = "\"mean_rounds\": ";
    let at = text.find(key).expect("artifact has mean_rounds") + key.len();
    let end = at + text[at..].find([',', '\n']).expect("number terminates");
    let value: f64 = text[at..end].trim().parse().expect("numeric mean_rounds");
    format!("{}{}{}", &text[..at], value * 10.0, &text[end..])
}
