//! The store-backed campaign subcommands: `campaign` (run a `.camp` spec
//! with optional `--shard I/K`, `--store DIR`, `--resume`), `merge`
//! (reassemble shard artifacts byte-identically), `serve` (a spool
//! loop), and `store` (cache stats and gc).
//!
//! Exit codes follow the binary's convention: 0 success, 1 runtime
//! failure (cell errors, write failures, a failed served spec), 2 usage
//! or input error (bad flags, malformed specs, digest mismatches,
//! incomplete shard sets).

use crate::cli::{parse_or_usage, print_usage, start_obs_session, CAMPAIGN, MERGE, SERVE, STORE};
use dyncode_engine::{merge_shards, Artifact, Campaign, Engine};
use dyncode_obs::{obs_debug, obs_error, obs_info};
use dyncode_store::{run_campaign_stored, serve_once, write_sidecar, RunOptions, Store};
use std::path::PathBuf;

/// `experiments campaign`: run one `.camp` spec through the stored
/// orchestrator. `--out DIR` (or `--json`) writes `BENCH_<id>.json` plus
/// the `BENCH_<id>.store.json` counter sidecar; `--resume` re-opens a
/// partial artifact under `--out` and executes only the missing cells.
pub fn cmd_campaign(args: &[String]) -> i32 {
    let flags = match parse_or_usage(&CAMPAIGN, args) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let [spec_path] = flags.positional.as_slice() else {
        print_usage(&CAMPAIGN);
        return 2;
    };
    if flags.resume && flags.out.is_none() {
        eprintln!("error: --resume needs --out DIR (the directory holding the partial artifact)");
        return 2;
    }
    let _obs = match start_obs_session(&flags) {
        Ok(session) => session,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    let campaign = match std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {spec_path}: {e}"))
        .and_then(|text| Campaign::parse(&text).map_err(|e| format!("{spec_path}: {e}")))
    {
        Ok(c) => c,
        Err(e) => {
            obs_error!("error: {e}");
            return 2;
        }
    };
    let campaign = if flags.quick {
        campaign.quick()
    } else {
        campaign
    };

    let store = match flags.store.as_ref().map(Store::open).transpose() {
        Ok(s) => s,
        Err(e) => {
            obs_error!("error: cannot open store: {e}");
            return 1;
        }
    };

    // Resume: re-open the partial artifact this very invocation would
    // write. A missing file is a fresh start, not an error — `--resume`
    // in a retry loop must work on the first attempt too.
    let artifact_id = match flags.shard {
        Some(s) => s.artifact_id(&campaign.id),
        None => campaign.id.clone(),
    };
    let prior = if flags.resume {
        let dir = flags.out.clone().expect("checked above");
        let path = dir.join(format!("BENCH_{artifact_id}.json"));
        match std::fs::read_to_string(&path) {
            Err(_) => {
                obs_info!("[no prior artifact at {}; running fresh]", path.display());
                None
            }
            Ok(text) => match Artifact::parse(&text) {
                Ok(a) => {
                    obs_info!("[resuming from {}]", path.display());
                    Some(a)
                }
                Err(e) => {
                    obs_error!("error: cannot resume from {}: {e}", path.display());
                    return 2;
                }
            },
        }
    } else {
        None
    };

    let engine = Engine::new(flags.threads);
    let opts = RunOptions {
        shard: flags.shard,
        store: store.as_ref(),
        prior: prior.as_ref(),
    };
    let (artifact, stats) = match run_campaign_stored(&engine, &campaign, &opts) {
        Ok(pair) => pair,
        Err(e) => {
            obs_error!("error: {e}");
            return 2;
        }
    };

    println!("campaign {}: {} ({})", campaign.id, campaign.title, {
        match flags.shard {
            Some(s) => format!("shard {}/{}", s.index, s.count),
            None => "unsharded".to_string(),
        }
    });
    println!(
        "  cells {}, seed runs {}: computed {}, store hits {}, resumed {}, retried {}",
        stats.cells,
        stats.seed_runs,
        stats.computed,
        stats.store_hits,
        stats.resumed,
        stats.retried
    );
    if let Some(s) = &store {
        let c = s.counters();
        obs_debug!(
            "[store {}: {} hits, {} misses, {} puts]",
            s.root().display(),
            c.hits,
            c.misses,
            c.puts
        );
    }

    let errors: usize = artifact.cells.iter().map(|c| c.errors.len()).sum();
    if flags.json || flags.out.is_some() {
        let dir = flags.out.clone().unwrap_or_else(|| PathBuf::from("."));
        match artifact.write_to(&dir) {
            Ok(path) => obs_info!("[wrote {}]", path.display()),
            Err(e) => {
                obs_error!("error: cannot write artifact: {e}");
                return 1;
            }
        }
        match write_sidecar(
            &dir,
            &artifact_id,
            artifact.campaign_digest.as_deref().unwrap_or(""),
            &stats,
        ) {
            Ok(path) => obs_info!("[wrote {}]", path.display()),
            Err(e) => {
                obs_error!("error: cannot write sidecar: {e}");
                return 1;
            }
        }
    }
    if errors > 0 {
        obs_error!("{errors} cell run(s) failed (recorded in the artifact)");
        return 1;
    }
    0
}

/// `experiments merge`: reassemble a complete set of shard artifacts
/// into the unsharded `BENCH_<base>.json`, byte-identical to a
/// single-process run of the same campaign.
pub fn cmd_merge(args: &[String]) -> i32 {
    let flags = match parse_or_usage(&MERGE, args) {
        Ok(f) => f,
        Err(code) => return code,
    };
    if flags.positional.is_empty() {
        print_usage(&MERGE);
        return 2;
    }
    let mut shards = Vec::new();
    for path in &flags.positional {
        match std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| Artifact::parse(&text).map_err(|e| format!("{path}: {e}")))
        {
            Ok(a) => shards.push(a),
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        }
    }
    let merged = match merge_shards(shards) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let dir = flags.out.unwrap_or_else(|| PathBuf::from("."));
    match merged.write_to(&dir) {
        Ok(path) => {
            println!(
                "merged {} shard(s) into {} ({} cells)",
                flags.positional.len(),
                path.display(),
                merged.cells.len()
            );
            0
        }
        Err(e) => {
            eprintln!("error: cannot write merged artifact: {e}");
            1
        }
    }
}

/// `experiments serve`: a minimal spool loop. Campaign specs dropped
/// into `<SPOOL>/*.camp` are run (oldest name first) and their artifacts
/// written under `--out`; processed specs move to `<SPOOL>/done/` or
/// `<SPOOL>/failed/` (with a `.err` reason file). `--once` drains the
/// spool a single time and exits 1 if any spec failed.
pub fn cmd_serve(args: &[String]) -> i32 {
    let flags = match parse_or_usage(&SERVE, args) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let [spool] = flags.positional.as_slice() else {
        print_usage(&SERVE);
        return 2;
    };
    let spool = PathBuf::from(spool);
    if !spool.is_dir() {
        eprintln!("error: spool {} is not a directory", spool.display());
        return 2;
    }
    let _obs = match start_obs_session(&flags) {
        Ok(session) => session,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let out = flags.out.clone().unwrap_or_else(|| PathBuf::from("."));
    let store = match flags.store.as_ref().map(Store::open).transpose() {
        Ok(s) => s,
        Err(e) => {
            obs_error!("error: cannot open store: {e}");
            return 1;
        }
    };
    let engine = Engine::new(flags.threads);
    obs_info!(
        "[serving {} -> {}{}{}]",
        spool.display(),
        out.display(),
        if flags.once { ", once" } else { "" },
        match &store {
            Some(s) => format!(", store {}", s.root().display()),
            None => String::new(),
        }
    );
    let mut any_failed = false;
    let mut served_total: u64 = 0;
    loop {
        let outcomes = match serve_once(&spool, &out, &engine, store.as_ref(), flags.quick) {
            Ok(o) => o,
            Err(e) => {
                obs_error!("error: serve pass failed: {e}");
                return 1;
            }
        };
        for o in &outcomes {
            match &o.result {
                Ok(path) => println!("served {} -> {}", o.spec.display(), path.display()),
                Err(e) => {
                    any_failed = true;
                    println!("FAILED {}: {e}", o.spec.display());
                }
            }
        }
        served_total += outcomes.len() as u64;
        // One heartbeat per spool pass: how many specs this loop has
        // handled so far, visible both as a mark in the event stream and
        // as a gauge in the metrics snapshot.
        dyncode_obs::metrics::gauge("serve.served_total").set(served_total);
        if dyncode_obs::enabled() {
            dyncode_obs::emit(&dyncode_obs::Event::mark(
                "serve.heartbeat",
                vec![(
                    "served_total".to_string(),
                    dyncode_obs::Value::from(served_total),
                )],
            ));
        }
        obs_debug!(
            "[serve pass: {} spec(s), {served_total} total]",
            outcomes.len()
        );
        if flags.once {
            return if any_failed { 1 } else { 0 };
        }
        std::thread::sleep(std::time::Duration::from_millis(500));
    }
}

/// `experiments store`: cache hygiene. `stats` prints object count,
/// bytes, and pin count; `gc --max-bytes N` evicts coldest-first
/// (ascending hit count, then age) down to the budget, never touching
/// pinned objects; `pin DIGEST...` marks digests that gc must keep.
/// `--store DIR` is required explicitly — gc deletes files, so there is
/// deliberately no default directory.
pub fn cmd_store(args: &[String]) -> i32 {
    let flags = match parse_or_usage(&STORE, args) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let Some(root) = flags.store.clone() else {
        eprintln!("error: store needs an explicit --store DIR");
        print_usage(&STORE);
        return 2;
    };
    let store = match Store::open(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot open store {}: {e}", root.display());
            return 1;
        }
    };
    match flags.positional.as_slice() {
        [action] if action == "stats" => {
            if flags.max_bytes.is_some() {
                eprintln!("error: --max-bytes is only valid for store gc");
                return 2;
            }
            match store.stats() {
                Ok(s) => {
                    println!(
                        "store {}: {} object(s), {} bytes, {} pinned",
                        root.display(),
                        s.objects,
                        s.bytes,
                        s.pinned
                    );
                    0
                }
                Err(e) => {
                    eprintln!("error: cannot stat store: {e}");
                    1
                }
            }
        }
        [action] if action == "gc" => {
            let Some(max_bytes) = flags.max_bytes else {
                eprintln!("error: store gc needs --max-bytes N");
                return 2;
            };
            match store.gc(max_bytes) {
                Ok(r) => {
                    println!(
                        "gc {}: removed {} object(s) ({} bytes), {} bytes remain \
                         (budget {}), {} pinned kept",
                        root.display(),
                        r.removed_objects,
                        r.removed_bytes,
                        r.remaining_bytes,
                        max_bytes,
                        r.pinned_kept
                    );
                    0
                }
                Err(e) => {
                    eprintln!("error: gc failed: {e}");
                    1
                }
            }
        }
        [action, digests @ ..] if action == "pin" => {
            if flags.max_bytes.is_some() {
                eprintln!("error: --max-bytes is only valid for store gc");
                return 2;
            }
            if digests.is_empty() {
                eprintln!("error: store pin needs at least one DIGEST");
                print_usage(&STORE);
                return 2;
            }
            for digest in digests {
                match store.pin(digest) {
                    Ok(true) => println!("pinned {digest}"),
                    Ok(false) => println!("already pinned {digest}"),
                    Err(e) => {
                        eprintln!("error: cannot pin {digest}: {e}");
                        return 1;
                    }
                }
            }
            0
        }
        _ => {
            print_usage(&STORE);
            2
        }
    }
}
