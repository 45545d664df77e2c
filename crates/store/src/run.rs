//! The stored campaign orchestrator: [`run_campaign_stored`] is
//! `dyncode_engine::run_campaign` grown three capabilities —
//!
//! * **Sharding** — `--shard i/k` selects every k-th cell of the expanded
//!   grid (round-robin by cell index); `merge_shards` interleaves the
//!   shard artifacts back into a file **byte-identical** to the unsharded
//!   run.
//! * **Caching** — with a [`Store`] attached, every cell-seed result is
//!   looked up by content address before computing and written back
//!   after, so warm re-runs (and overlapping grids) recompute nothing.
//! * **Resume** — a prior partial artifact seeds the run: cells already
//!   recorded are carried over verbatim, contained errors are retried,
//!   and only the missing work executes. The prior artifact must carry
//!   the same campaign digest (see [`crate::key::campaign_digest`]);
//!   anything else is an input error, not a silent partial reuse.
//!
//! The assembled artifact is bit-for-bit the one `run_campaign` would
//! have produced (same cells, same stats, same bytes) with one addition:
//! its `campaign_digest` field is set, which is what makes the resume
//! and merge validations possible. Hit/miss/compute counters ride in a
//! separate [`RunStats`] (and the CLI's `BENCH_<id>.store.json` sidecar),
//! never in the artifact — counters vary run to run, artifacts must not.

use crate::key::{campaign_digest, CellKey};
use crate::store::Store;
use dyncode_dynet::simulator::RunResult;
use dyncode_engine::artifact::{Artifact, CellRecord};
use dyncode_engine::{Campaign, CellError, CellSpec, Engine, Shard};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Options for [`run_campaign_stored`].
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Run only this shard of the grid (artifact id gains a shard suffix).
    pub shard: Option<Shard>,
    /// Content-addressed cache to read through and write back to.
    pub store: Option<&'a Store>,
    /// A prior (possibly partial) artifact to resume from.
    pub prior: Option<&'a Artifact>,
}

/// Where each assembled run came from — the counters the CLI surfaces
/// and the warm-cache/resume tests assert on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Cells in this run's slice of the grid.
    pub cells: usize,
    /// Cell-seed runs total (`cells × seeds`).
    pub seed_runs: usize,
    /// Runs actually executed this invocation.
    pub computed: usize,
    /// Runs served from the store.
    pub store_hits: usize,
    /// Runs carried over from the prior artifact.
    pub resumed: usize,
    /// Prior contained errors scheduled for re-execution (a subset of
    /// `computed`).
    pub retried: usize,
}

/// Runs `campaign` (or one shard of it) through the cache/resume
/// pipeline. Returns the artifact plus provenance counters.
///
/// Errors are input-contract violations (resume digest/id mismatch);
/// per-run panics stay contained in the artifact's cell errors exactly
/// as in `run_campaign`.
pub fn run_campaign_stored(
    engine: &Engine,
    campaign: &Campaign,
    opts: &RunOptions,
) -> Result<(Artifact, RunStats), String> {
    let digest = campaign_digest(campaign);
    let all_cells = campaign.cells();
    let (artifact_id, cells): (String, Vec<CellSpec>) = match opts.shard {
        Some(shard) => (
            shard.artifact_id(&campaign.id),
            all_cells
                .into_iter()
                .enumerate()
                .filter(|(i, _)| shard.selects(*i))
                .map(|(_, c)| c)
                .collect(),
        ),
        None => (campaign.id.clone(), all_cells),
    };

    // Validate and index the prior artifact before touching any work.
    let mut prior_cells: HashMap<&str, &CellRecord> = HashMap::new();
    if let Some(prior) = opts.prior {
        match &prior.campaign_digest {
            Some(d) if *d == digest => {}
            Some(_) => {
                return Err(format!(
                    "resume: artifact {:?} carries a different campaign digest — it was \
                     produced by a different campaign spec (or profile); re-run without \
                     --resume to start over",
                    prior.id
                ))
            }
            None => {
                return Err(format!(
                    "resume: artifact {:?} has no campaign digest (not produced by the \
                     campaign runner); cannot verify it matches this spec",
                    prior.id
                ))
            }
        }
        if prior.id != artifact_id {
            return Err(format!(
                "resume: artifact id {:?} does not match this run's {:?} (check --shard)",
                prior.id, artifact_id
            ));
        }
        for cell in &prior.cells {
            prior_cells.insert(cell.label.as_str(), cell);
        }
    }

    let mut stats = RunStats {
        cells: cells.len(),
        seed_runs: cells.len() * campaign.seeds.len(),
        ..RunStats::default()
    };

    // Resolve every cell-seed slot: prior artifact first, then the
    // store, leaving the rest as compute jobs. Prior *errors* are
    // deliberately not carried over — resume retries them.
    let mut slots: Vec<Vec<Result<RunResult, CellError>>> = Vec::with_capacity(cells.len());
    let mut jobs: Vec<(usize, usize)> = Vec::new(); // (cell idx, seed idx)
    let mut keys: Vec<Vec<Option<CellKey>>> = Vec::with_capacity(cells.len());
    for (ci, cell) in cells.iter().enumerate() {
        let prior = prior_cells.get(cell.label().as_str()).copied();
        let mut cell_slots = Vec::with_capacity(campaign.seeds.len());
        let mut cell_keys = Vec::with_capacity(campaign.seeds.len());
        for (si, &seed) in campaign.seeds.iter().enumerate() {
            let mut slot = None;
            if let Some(p) = prior {
                if let Some(rec) = p.runs.iter().find(|r| r.seed == seed) {
                    // Exact, so resumed cells aggregate to the same bytes.
                    slot = Some(rec.to_result(cell.adversary.name()));
                    stats.resumed += 1;
                } else if p.errors.iter().any(|e| e.seed == seed) {
                    stats.retried += 1;
                }
            }
            let mut key = None;
            if slot.is_none() {
                if let Some(store) = opts.store {
                    let k = CellKey::new(cell, seed);
                    if let Some(r) = store.get(&k) {
                        slot = Some(r);
                        stats.store_hits += 1;
                    }
                    key = Some(k);
                }
            }
            if slot.is_none() {
                jobs.push((ci, si));
            }
            cell_slots.push(slot.ok_or_else(|| CellError {
                message: "run did not execute".into(),
            }));
            cell_keys.push(key);
        }
        slots.push(cell_slots);
        keys.push(cell_keys);
    }

    // Execute only the unresolved slots, instances generated once per
    // cell that still has work.
    let instances: Vec<Option<dyncode_core::params::Instance>> = cells
        .iter()
        .enumerate()
        .map(|(ci, cell)| {
            jobs.iter()
                .any(|&(jci, _)| jci == ci)
                .then(|| cell.instance())
        })
        .collect();
    let closures: Vec<_> = jobs
        .iter()
        .map(|&(ci, si)| {
            let cell = &cells[ci];
            let inst = instances[ci].as_ref().expect("instance generated");
            let seed = campaign.seeds[si];
            move || cell.run_on(inst, seed)
        })
        .collect();
    let outcomes = engine.map(closures);
    stats.computed = outcomes.len();

    // Fold the computed results back in (write-through to the store) and
    // assemble the artifact exactly as `run_campaign` does.
    for (&(ci, si), outcome) in jobs.iter().zip(outcomes) {
        if let (Ok(r), Some(store)) = (&outcome, opts.store) {
            let key = keys[ci][si]
                .take()
                .unwrap_or_else(|| CellKey::new(&cells[ci], campaign.seeds[si]));
            // A failed write-back is not fatal: the result is in hand,
            // only the next run's cache warmth suffers.
            let _ = store.put(&key, r);
        }
        slots[ci][si] = outcome;
    }

    let mut artifact = Artifact::new(artifact_id, campaign.title.clone());
    artifact.campaign_digest = Some(digest);
    for (cell, cell_slots) in cells.iter().zip(&slots) {
        artifact.cells.push(CellRecord::from_outcomes(
            cell.label(),
            cell.meta(),
            campaign.seeds.iter().copied().zip(cell_slots),
        ));
    }
    Ok((artifact, stats))
}

/// Writes the `BENCH_<id>.store.json` sidecar: the run's provenance
/// counters plus the store's hit/miss/put totals. Kept **next to** the
/// artifact, never inside it — counters vary between cold, warm, and
/// resumed runs while the artifact bytes must not. Returns the path.
///
/// The `"store"` block is rendered from the process-global obs counters
/// (`store.hits/misses/puts`), which every [`Store`] mirrors its
/// operations to — the same registry `--events` snapshots and
/// `obs summarize` reports, so sidecar and summary reconcile exactly.
pub fn write_sidecar(
    dir: &Path,
    artifact_id: &str,
    digest: &str,
    stats: &RunStats,
) -> std::io::Result<PathBuf> {
    use dyncode_engine::Json;
    let counter = |name: &str| dyncode_obs::metrics::counter_value(name) as f64;
    let text = Json::obj(vec![
        ("schema", Json::Str("dyncode-store-meta/v1".into())),
        ("id", Json::Str(artifact_id.into())),
        ("campaign_digest", Json::Str(digest.into())),
        ("cells", Json::Num(stats.cells as f64)),
        ("seed_runs", Json::Num(stats.seed_runs as f64)),
        ("computed", Json::Num(stats.computed as f64)),
        ("store_hits", Json::Num(stats.store_hits as f64)),
        ("resumed", Json::Num(stats.resumed as f64)),
        ("retried", Json::Num(stats.retried as f64)),
        (
            "store",
            Json::obj(vec![
                ("hits", Json::Num(counter("store.hits"))),
                ("misses", Json::Num(counter("store.misses"))),
                ("puts", Json::Num(counter("store.puts"))),
            ]),
        ),
    ])
    .pretty();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{artifact_id}.store.json"));
    std::fs::write(&path, text)?;
    Ok(path)
}
