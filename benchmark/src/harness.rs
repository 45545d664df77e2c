//! What the untraced and the traced driver share: input preparation
//! (the set-up the `setup_s` metric times), the scratch directory, the
//! check counter behind `attempted`/`failed`, the simulated statistics of
//! a run ([`Row`]) and the committed expectation for `--seed 42`.

use crate::contract::package_dir;
use dyncode_core::params::Instance;
use dyncode_dynet::simulator::RunResult;
use dyncode_engine::{Artifact, Campaign, CellSpec, Json};
use dyncode_store::Store;
use std::path::PathBuf;
use std::time::Instant;

/// Counts runs and checks (`attempted`) and the ones that went wrong
/// (`failed`); every failure is explained on stderr.
#[derive(Debug, Default)]
pub struct Checks {
    /// Runs executed plus checks evaluated.
    pub attempted: u64,
    /// Cell errors, incomplete runs and verification mismatches.
    pub failed: u64,
}

impl Checks {
    /// Records one attempted check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// The simulated statistics of one run — everything a host-time
/// optimisation must leave identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// The cell's artifact label.
    pub label: String,
    /// Run seed.
    pub seed: u64,
    /// Simulated rounds.
    pub rounds: u64,
    /// Did every node terminate within the cap?
    pub completed: bool,
    /// Total broadcast bits.
    pub total_bits: u64,
    /// Largest single message, in bits.
    pub max_message_bits: u64,
}

impl Row {
    /// The row of a run result.
    pub fn of(label: &str, seed: u64, r: &RunResult) -> Row {
        Row {
            label: label.to_string(),
            seed,
            rounds: r.rounds as u64,
            completed: r.completed,
            total_bits: r.total_bits,
            max_message_bits: r.max_message_bits,
        }
    }

    /// Every run recorded in a campaign artifact, in artifact order;
    /// contained cell errors are counted as failures on `checks`.
    pub fn of_artifact(text: &str, checks: &mut Checks) -> Vec<Row> {
        let artifact = match Artifact::parse(text) {
            Ok(a) => a,
            Err(e) => {
                checks.check(false, || format!("artifact does not parse: {e}"));
                return Vec::new();
            }
        };
        let mut rows = Vec::new();
        for cell in &artifact.cells {
            for e in &cell.errors {
                checks.check(false, || {
                    format!("{} seed {}: {}", cell.label, e.seed, e.message)
                });
            }
            rows.extend(cell.runs.iter().map(|r| Row {
                label: cell.label.clone(),
                seed: r.seed,
                rounds: r.rounds as u64,
                completed: r.completed,
                total_bits: r.total_bits,
                max_message_bits: r.max_message_bits,
            }));
        }
        rows
    }

    fn to_json_line(&self) -> String {
        format!(
            "[{:?}, {}, {}, {}, {}, {}]",
            self.label,
            self.seed,
            self.rounds,
            self.completed,
            self.total_bits,
            self.max_message_bits
        )
    }

    fn from_json(j: &Json) -> Option<Row> {
        let a = j.as_arr()?;
        Some(Row {
            label: a.first()?.as_str()?.to_string(),
            seed: a.get(1)?.as_u64()?,
            rounds: a.get(2)?.as_u64()?,
            completed: a.get(3)?.as_bool()?,
            total_bits: a.get(4)?.as_u64()?,
            max_message_bits: a.get(5)?.as_u64()?,
        })
    }
}

/// Counts each run as attempted, an incomplete one as failed, and sums
/// the simulated rounds.
pub fn account_runs(rows: &[Row], checks: &mut Checks) -> u64 {
    for r in rows {
        checks.check(r.completed, || {
            format!("{} seed {} hit the round cap", r.label, r.seed)
        });
    }
    rows.iter().map(|r| r.rounds).sum()
}

/// The seed whose simulated statistics are committed under `expected/`.
pub const EXPECTED_SEED: u64 = 42;

fn expected_path() -> PathBuf {
    package_dir().join(format!("expected/seed-{EXPECTED_SEED}.json"))
}

/// The committed rows per workload, in file order.
fn load_expected() -> Result<Vec<(String, Vec<Row>)>, String> {
    let path = expected_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!("{}: no `workloads` object", path.display()));
    };
    workloads
        .iter()
        .map(|(name, rows)| {
            let rows = rows
                .as_arr()
                .and_then(|a| a.iter().map(Row::from_json).collect::<Option<Vec<Row>>>())
                .ok_or_else(|| format!("{}: malformed rows for {name}", path.display()))?;
            Ok((name.clone(), rows))
        })
        .collect()
}

/// At `--seed 42`, every run must match the committed statistics
/// exactly: a change that makes the simulator faster must leave what it
/// simulates identical. Other seeds have no committed file and pass.
pub fn check_expected(workload: &str, seed: u64, rows: &[Row], checks: &mut Checks) {
    if seed != EXPECTED_SEED {
        return;
    }
    let want = match load_expected() {
        Ok(all) => all.into_iter().find(|(n, _)| n == workload).map(|(_, r)| r),
        Err(e) => {
            checks.check(false, || e);
            return;
        }
    };
    let Some(want) = want else {
        checks.check(false, || format!("no committed rows for {workload}"));
        return;
    };
    checks.check(want.len() == rows.len(), || {
        format!("{} runs, {} committed", rows.len(), want.len())
    });
    for (got, want) in rows.iter().zip(&want) {
        checks.check(got == want, || format!("got {got:?}, committed {want:?}"));
    }
}

/// Replaces `workload`'s rows in the committed file (`--write-expected`,
/// for the issue that re-baselines the benchmark).
pub fn write_expected(workload: &str, rows: &[Row]) -> Result<(), String> {
    let mut all = load_expected().unwrap_or_default();
    all.retain(|(n, _)| n != workload);
    all.push((workload.to_string(), rows.to_vec()));
    all.sort_by_key(|(n, _)| crate::workloads::WORKLOADS.iter().position(|w| w.name == n));
    let mut out = format!(
        "{{\n  \"schema\": \"dyncode-benchmark-expected/v1\",\n  \"seed\": {EXPECTED_SEED},\n  \
         \"columns\": [\"label\", \"seed\", \"rounds\", \"completed\", \"total_bits\", \
         \"max_message_bits\"],\n  \"workloads\": {{\n"
    );
    for (i, (name, rows)) in all.iter().enumerate() {
        out.push_str(&format!("    {name:?}: [\n"));
        let lines: Vec<String> = rows
            .iter()
            .map(|r| format!("      {}", r.to_json_line()))
            .collect();
        out.push_str(&lines.join(",\n"));
        out.push_str(if i + 1 == all.len() {
            "\n    ]\n"
        } else {
            "\n    ],\n"
        });
    }
    out.push_str("  }\n}\n");
    let path = expected_path();
    std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))
        .and_then(|()| std::fs::write(&path, out))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// One expanded cell with its instance and the seeds to run it from.
pub struct PreparedCell {
    /// The grid point.
    pub spec: CellSpec,
    /// Its problem instance (shared by its seeds).
    pub inst: Instance,
    /// Run seeds.
    pub seeds: Vec<u64>,
    /// `spec.label()`, computed once.
    pub label: String,
}

/// Parses every campaign text, expands the grids and generates the
/// instances: the set-up of a single-cell workload.
pub fn prepare_cells(texts: &[(String, String)]) -> Result<Vec<PreparedCell>, String> {
    let mut out = Vec::new();
    for (stem, text) in texts {
        let campaign = Campaign::parse(text).map_err(|e| format!("{stem}: {e}"))?;
        for spec in campaign.cells() {
            out.push(PreparedCell {
                inst: spec.instance(),
                label: spec.label(),
                seeds: campaign.seeds.clone(),
                spec,
            });
        }
    }
    Ok(out)
}

/// Runs `setup` at least `min_reps` times and until `budget_s` seconds
/// have gone by (a set-up of microseconds needs many repetitions for a
/// steady first decile); returns the last product and every duration. `clear`
/// runs, untimed, before each repetition: undoing the previous set-up is
/// not part of setting up.
pub fn repeat_setup<T>(
    min_reps: usize,
    budget_s: f64,
    mut clear: impl FnMut(),
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        clear();
        let t = Instant::now();
        let product = setup()?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= min_reps
            && (started.elapsed().as_secs_f64() >= budget_s || times.len() >= 400)
        {
            return Ok((product, times));
        }
    }
}

/// The per-process scratch directory `benchmark/out/tmp-<pid>/` of a
/// spool workload: the spool, the artifact directory and the result store.
pub struct Spool {
    root: PathBuf,
    /// Where the `.camp` files are dropped.
    pub dir: PathBuf,
    /// Where `serve_once` writes artifacts.
    pub out: PathBuf,
    /// Root of the result store.
    pub store_dir: PathBuf,
}

impl Spool {
    /// Creates the (empty) scratch directory.
    pub fn create() -> Result<Spool, String> {
        let root = package_dir().join(format!("out/tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Spool {
            dir: root.join("spool"),
            out: root.join("artifacts"),
            store_dir: root.join("store"),
            root,
        })
    }

    /// A path inside the scratch directory, beside spool and store.
    pub fn join(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Removes the whole scratch directory (after a successful run).
    pub fn remove(self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }

    /// Removes spool, artifacts and store.
    pub fn clear(&self) {
        for d in [&self.dir, &self.out, &self.store_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    /// Drops the campaign files into the spool and opens the store.
    pub fn open(&self, files: &[(String, String)]) -> Result<Store, String> {
        self.refill(files)?;
        Store::open(&self.store_dir).map_err(|e| format!("{}: {e}", self.store_dir.display()))
    }

    /// [`Spool::clear`] then [`Spool::open`]: an empty store to drain into.
    pub fn reset(&self, files: &[(String, String)]) -> Result<Store, String> {
        self.clear();
        self.open(files)
    }

    /// Drops the campaign files into the spool again (a drain moves them
    /// to `done/`), leaving the store as it is.
    pub fn refill(&self, files: &[(String, String)]) -> Result<(), String> {
        std::fs::create_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))?;
        for (stem, text) in files {
            let path = self.dir.join(format!("{stem}.camp"));
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// The artifact texts of the last drain, in spool order.
    pub fn artifacts(&self, files: &[(String, String)]) -> Result<Vec<String>, String> {
        files
            .iter()
            .map(|(stem, _)| {
                let path = self.out.join(format!("BENCH_{stem}.json"));
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect()
    }
}

/// What one benchmark run reports.
pub struct Outcome {
    /// `(metric name, value)`, in reporting order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Runs and checks.
    pub checks: Checks,
    /// The simulated statistics of one pass.
    pub rows: Vec<Row>,
}
