//! Integration tests for the stored orchestrator — the acceptance
//! contracts of the store subsystem:
//!
//! * unsharded `run_campaign_stored` output is byte-identical to plain
//!   `run_campaign` (modulo the added `campaign_digest` field);
//! * shard 1/2 + shard 2/2 + merge reproduces the unsharded artifact
//!   byte for byte;
//! * a warm re-run against a populated store computes **zero** runs;
//! * resume from a partial artifact executes only the missing cells and
//!   retries prior errors;
//! * resume refuses artifacts from a different campaign (digest check);
//! * the serve loop drains a spool directory into artifacts.

use dyncode_engine::{
    merge_shards, run_campaign, AdversaryKind, Artifact, Campaign, ClassicKind, Engine, Shard,
};
use dyncode_store::{run_campaign_stored, serve_once, RunOptions, Store};
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dyncode_orchestrate_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn campaign() -> Campaign {
    Campaign::builder("orch", "orchestrator contract campaign")
        .ns(&[8, 12])
        .seeds(&[1, 2])
        .adversaries(vec![
            AdversaryKind::Classic(ClassicKind::ShuffledPath),
            AdversaryKind::Classic(ClassicKind::Bottleneck),
        ])
        .build()
        .unwrap()
}

#[test]
fn stored_run_matches_the_plain_engine_run_byte_for_byte() {
    let engine = Engine::new(2);
    let c = campaign();
    let plain = run_campaign(&engine, &c);
    let (stored, stats) =
        run_campaign_stored(&engine, &c, &RunOptions::default()).expect("stored run");
    assert_eq!(stats.cells, 4);
    assert_eq!(stats.seed_runs, 8);
    assert_eq!(stats.computed, 8, "cold run computes everything");
    assert_eq!((stats.store_hits, stats.resumed, stats.retried), (0, 0, 0));
    // Identical except the digest line the orchestrator adds.
    let mut stored_stripped = stored.clone();
    stored_stripped.campaign_digest = None;
    assert_eq!(stored_stripped.to_json_string(), plain.to_json_string());
    assert!(stored.campaign_digest.is_some());
}

#[test]
fn sharded_runs_merge_byte_identically_to_the_unsharded_run() {
    let engine = Engine::new(2);
    let c = campaign();
    let (unsharded, _) =
        run_campaign_stored(&engine, &c, &RunOptions::default()).expect("unsharded");
    let shard_artifacts: Vec<Artifact> = [1, 2]
        .into_iter()
        .map(|i| {
            let opts = RunOptions {
                shard: Some(Shard { index: i, count: 2 }),
                ..RunOptions::default()
            };
            let (a, stats) = run_campaign_stored(&engine, &c, &opts).expect("shard run");
            assert_eq!(a.id, format!("orch.shard-{i}-of-2"));
            assert_eq!(stats.cells, 2, "4 cells split evenly");
            a
        })
        .collect();
    let merged = merge_shards(shard_artifacts).expect("merge");
    assert_eq!(merged.to_json_string(), unsharded.to_json_string());
}

#[test]
fn warm_store_rerun_recomputes_zero_cells() {
    let engine = Engine::new(2);
    let c = campaign();
    let store = Store::open(temp_dir("warm")).expect("open store");
    let opts = RunOptions {
        store: Some(&store),
        ..RunOptions::default()
    };
    let (cold, cold_stats) = run_campaign_stored(&engine, &c, &opts).expect("cold run");
    assert_eq!(cold_stats.computed, 8);
    assert_eq!(store.counters().puts, 8, "every result written back");

    let (warm, warm_stats) = run_campaign_stored(&engine, &c, &opts).expect("warm run");
    assert_eq!(warm_stats.computed, 0, "warm run computes nothing");
    assert_eq!(warm_stats.store_hits, 8);
    assert_eq!(warm.to_json_string(), cold.to_json_string());

    // The cache carries across shards too: a sharded run over the same
    // campaign is pure hits.
    let shard_opts = RunOptions {
        shard: Some(Shard { index: 1, count: 2 }),
        store: Some(&store),
        ..RunOptions::default()
    };
    let (_, shard_stats) = run_campaign_stored(&engine, &c, &shard_opts).expect("shard");
    assert_eq!((shard_stats.computed, shard_stats.store_hits), (0, 4));

    std::fs::remove_dir_all(store.root()).ok();
}

#[test]
fn resume_executes_only_the_missing_cells_and_retries_errors() {
    let engine = Engine::new(2);
    let c = campaign();
    let (full, _) = run_campaign_stored(&engine, &c, &RunOptions::default()).expect("full");

    // Simulate an interrupted run: the last cell never finished, and one
    // seed of the first cell errored.
    let mut partial = full.clone();
    partial.cells.pop();
    let moved = partial.cells[0].runs.pop().expect("has runs");
    partial.cells[0].errors.push(dyncode_engine::RunError {
        seed: moved.seed,
        message: "contained panic".into(),
    });

    let opts = RunOptions {
        prior: Some(&partial),
        ..RunOptions::default()
    };
    let (resumed, stats) = run_campaign_stored(&engine, &c, &opts).expect("resume");
    // 2 seeds of the dropped cell + 1 retried seed = 3 computed runs;
    // the other 5 carry over from the partial artifact.
    assert_eq!(stats.computed, 3);
    assert_eq!(stats.resumed, 5);
    assert_eq!(stats.retried, 1);
    assert_eq!(
        resumed.to_json_string(),
        full.to_json_string(),
        "resume reconstructs the full artifact byte-identically"
    );
}

#[test]
fn resume_rejects_mismatched_campaigns_and_ids() {
    let engine = Engine::new(1);
    let c = campaign();
    let (full, _) = run_campaign_stored(&engine, &c, &RunOptions::default()).expect("full");

    // A different seed list is a different campaign: digest mismatch.
    let mut other = c.clone();
    other.seeds = vec![7];
    let opts = RunOptions {
        prior: Some(&full),
        ..RunOptions::default()
    };
    let err = run_campaign_stored(&engine, &other, &opts).unwrap_err();
    assert!(err.contains("different campaign digest"), "{err}");

    // An artifact without a digest (hand-written or experiment-produced)
    // cannot be verified.
    let mut undigested = full.clone();
    undigested.campaign_digest = None;
    let opts = RunOptions {
        prior: Some(&undigested),
        ..RunOptions::default()
    };
    let err = run_campaign_stored(&engine, &c, &opts).unwrap_err();
    assert!(err.contains("no campaign digest"), "{err}");

    // Right campaign, wrong slice: a shard artifact cannot seed an
    // unsharded resume.
    let shard_opts = RunOptions {
        shard: Some(Shard { index: 1, count: 2 }),
        prior: Some(&full),
        ..RunOptions::default()
    };
    let err = run_campaign_stored(&engine, &c, &shard_opts).unwrap_err();
    assert!(err.contains("does not match"), "{err}");
}

#[test]
fn serve_once_drains_the_spool_into_artifacts() {
    let engine = Engine::new(2);
    let spool = temp_dir("spool");
    let out = temp_dir("spool_out");
    std::fs::write(
        spool.join("a.camp"),
        "id = served\nn = 8\nseeds = 1\ncap = 50nn\n",
    )
    .unwrap();
    std::fs::write(spool.join("broken.camp"), "this is not a campaign\n").unwrap();

    let store = Store::open(temp_dir("spool_store")).expect("open store");
    let outcomes = serve_once(&spool, &out, &engine, Some(&store), false).expect("serve");
    assert_eq!(outcomes.len(), 2);

    // Specs are processed in name order: a.camp first, and it succeeds.
    assert!(outcomes[0].spec.ends_with("a.camp"));
    let artifact_path = outcomes[0].result.as_ref().expect("a.camp runs");
    let artifact = Artifact::parse(&std::fs::read_to_string(artifact_path).unwrap()).unwrap();
    assert_eq!(artifact.id, "served");
    assert!(artifact.campaign_digest.is_some());
    assert!(out.join("BENCH_served.store.json").exists(), "sidecar");
    assert!(spool.join("done/a.camp").exists(), "spec moved to done/");

    // The malformed spec fails, moves to failed/, and leaves a reason.
    assert!(outcomes[1].result.is_err());
    assert!(spool.join("failed/broken.camp").exists());
    let reason = std::fs::read_to_string(spool.join("failed/broken.camp.err")).unwrap();
    assert!(reason.contains("expected `key = value`"), "{reason}");

    // The spool itself is drained: a second pass finds nothing, and
    // nothing is left parked in the claim directory.
    let again = serve_once(&spool, &out, &engine, Some(&store), false).expect("serve");
    assert!(again.is_empty());
    let parked = std::fs::read_dir(spool.join("claimed")).unwrap().count();
    assert_eq!(parked, 0, "claimed/ settles into done//failed/");

    for d in [&spool, &out] {
        std::fs::remove_dir_all(d).ok();
    }
    std::fs::remove_dir_all(store.root()).ok();
}

/// Specs that parse line by line but name a grid that cannot exist fail
/// like any malformed spec — into `failed/` with the reason — instead of
/// panicking the serve loop out of grid expansion, which stranded the
/// spec in `claimed/` and never reached the files after it.
#[test]
fn serve_once_survives_specs_whose_grids_cannot_exist() {
    let engine = Engine::new(2);
    let spool = temp_dir("spool_gate");
    let out = temp_dir("spool_gate_out");
    std::fs::write(spool.join("a.camp"), "id = a\nk = 0\n").unwrap();
    std::fs::write(spool.join("b.camp"), "id = b\nplacement = all-at-node:99\n").unwrap();
    std::fs::write(
        spool.join("c.camp"),
        "id = c\nn = 8\nseeds = 1\ncap = 50nn\n",
    )
    .unwrap();

    let outcomes = serve_once(&spool, &out, &engine, None, false).expect("serve");
    assert_eq!(outcomes.len(), 3, "every spec is reached");
    for (outcome, name, names) in [
        (&outcomes[0], "a.camp", "at least one token"),
        (&outcomes[1], "b.camp", "placement all-at-node:99"),
    ] {
        assert!(outcome.spec.ends_with(name));
        let why = outcome.result.as_ref().expect_err(name);
        assert!(why.contains(names) && why.contains("n = 16"), "{why}");
        assert!(spool.join("failed").join(name).exists(), "{name}");
        let reason =
            std::fs::read_to_string(spool.join("failed").join(format!("{name}.err"))).unwrap();
        assert!(reason.contains(names), "{reason}");
    }
    assert!(outcomes[2].result.is_ok(), "{:?}", outcomes[2].result);
    assert!(spool.join("done/c.camp").exists());
    assert!(out.join("BENCH_c.json").exists());
    let parked = std::fs::read_dir(spool.join("claimed")).unwrap().count();
    assert_eq!(parked, 0, "nothing is stranded in claimed/");

    for d in [&spool, &out] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn serve_claims_specs_before_running_so_workers_never_double_execute() {
    let engine = Engine::new(1);
    let spool = temp_dir("spool_claim");
    let out = temp_dir("spool_claim_out");
    std::fs::write(
        spool.join("race.camp"),
        "id = raced\nn = 8\nseeds = 1\ncap = 50nn\n",
    )
    .unwrap();

    // Simulate the losing worker of a claim race: the spec was listed,
    // but a rival renamed it into claimed/ before this worker could.
    // serve_once must skip it without executing or erroring.
    std::fs::create_dir_all(spool.join("claimed")).unwrap();
    std::fs::rename(spool.join("race.camp"), spool.join("claimed/race.camp")).unwrap();
    std::fs::write(
        spool.join("race.camp.listing"), // decoy: wrong extension, ignored
        "not a camp file\n",
    )
    .unwrap();
    let outcomes = serve_once(&spool, &out, &engine, None, false).expect("serve");
    assert!(outcomes.is_empty(), "a lost claim is skipped, not re-run");
    assert!(
        spool.join("claimed/race.camp").exists(),
        "the rival's claim is untouched"
    );
    assert!(!out.join("BENCH_raced.json").exists());

    // The winning path: the spec sits in claimed/ for the duration of
    // the run (never observable in the spool root), then settles.
    std::fs::rename(spool.join("claimed/race.camp"), spool.join("race.camp")).unwrap();
    let outcomes = serve_once(&spool, &out, &engine, None, false).expect("serve");
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].result.is_ok());
    assert!(spool.join("done/race.camp").exists());
    assert!(!spool.join("claimed/race.camp").exists());

    for d in [&spool, &out] {
        std::fs::remove_dir_all(d).ok();
    }
}
