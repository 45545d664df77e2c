//! The machine-readable result artifact (`BENCH_<id>.json`): schema,
//! serialization, parsing and validation.
//!
//! An artifact is the complete machine-readable record of one experiment
//! or campaign: per-cell statistics and per-seed raw [`RunResult`]s
//! (including the per-round history when recorded), fitted constants, free
//! scalar metrics, and the rendered report tables. Everything in it is a
//! pure function of the campaign spec — no timestamps, no wall-clock, no
//! thread counts — so two runs of the same spec produce **byte-identical**
//! files regardless of `--threads` (the determinism contract that
//! `tests/engine_determinism.rs` locks and `compare` relies on).

use crate::aggregate::SeedStats;
use crate::executor::CellError;
use crate::json::Json;
use dyncode_dynet::simulator::RunResult;
use std::path::{Path, PathBuf};

/// The artifact schema identifier; bump on any incompatible change.
pub const SCHEMA: &str = "dyncode-artifact/v1";

/// One raw run inside a cell: a [`RunResult`] plus the seed it came from.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// The simulator seed of this run.
    pub seed: u64,
    /// Rounds executed.
    pub rounds: usize,
    /// Whether every node terminated within the cap.
    pub completed: bool,
    /// Total broadcast bits.
    pub total_bits: u64,
    /// Largest single message, in bits.
    pub max_message_bits: u64,
    /// Per-round history (empty unless the campaign recorded it).
    pub history: Vec<HistoryRow>,
}

/// One row of a recorded per-round history: the simulator's own row type,
/// under the name the artifact schema calls it.
pub use dyncode_dynet::simulator::RoundRecord as HistoryRow;

impl RunRecord {
    /// Captures a [`RunResult`] under its seed.
    pub fn from_run(seed: u64, r: &RunResult) -> RunRecord {
        RunRecord {
            seed,
            rounds: r.rounds,
            completed: r.completed,
            total_bits: r.total_bits,
            max_message_bits: r.max_message_bits,
            history: r.history.clone(),
        }
    }

    /// The [`RunResult`] this record was captured from — exact, because
    /// every recorded field is integral; `adversary` is the one field a
    /// record does not carry.
    pub fn to_result(&self, adversary: String) -> RunResult {
        RunResult {
            rounds: self.rounds,
            completed: self.completed,
            total_bits: self.total_bits,
            max_message_bits: self.max_message_bits,
            adversary,
            history: self.history.clone(),
        }
    }
}

/// A contained per-seed failure inside a cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunError {
    /// The seed whose run panicked.
    pub seed: u64,
    /// The contained panic message.
    pub message: String,
}

/// One cell of an artifact: a labelled sweep point with its aggregate
/// statistics, raw runs and contained errors.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// Unique-within-artifact label (`compare` matches cells by it).
    pub label: String,
    /// Free-form metadata (`n`, `k`, `adversary`, …) as ordered pairs.
    pub meta: Vec<(String, String)>,
    /// Aggregate statistics over the cell's seeds.
    pub stats: SeedStats,
    /// The raw per-seed runs.
    pub runs: Vec<RunRecord>,
    /// Contained panics, one per errored seed.
    pub errors: Vec<RunError>,
}

impl CellRecord {
    /// Folds one cell's per-seed outcomes — the run, or the panic the
    /// executor contained in its place — into its record, statistics
    /// included. Every campaign runner assembles its cells here, so an
    /// artifact does not depend on which of them produced it.
    pub fn from_outcomes<'a>(
        label: String,
        meta: Vec<(String, String)>,
        outcomes: impl IntoIterator<Item = (u64, &'a Result<RunResult, CellError>)>,
    ) -> CellRecord {
        let (mut runs, mut results, mut errors) = (Vec::new(), Vec::new(), Vec::new());
        for (seed, outcome) in outcomes {
            match outcome {
                Ok(r) => {
                    runs.push(RunRecord::from_run(seed, r));
                    results.push(r);
                }
                Err(e) => errors.push(RunError {
                    seed,
                    message: e.message.clone(),
                }),
            }
        }
        CellRecord {
            label,
            meta,
            stats: SeedStats::from_runs(results, errors.len()),
            runs,
            errors,
        }
    }
}

/// A fitted leading constant (`measured ≈ c · predicted`) with its ratio
/// spread across the sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Fit {
    /// Label (`compare` matches fits by it).
    pub label: String,
    /// The fitted constant (geometric mean of measured/predicted).
    pub constant: f64,
    /// max/min ratio across the sweep (1.0 = perfect shape).
    pub spread: f64,
}

/// A named scalar metric (log-log slopes, two-term fit coefficients, …).
#[derive(Clone, Debug, PartialEq)]
pub struct Scalar {
    /// Metric name.
    pub name: String,
    /// Metric value.
    pub value: f64,
}

/// A rendered report table, kept in the artifact so the human-readable
/// view survives alongside the machine-readable cells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableData {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells, each matching the header arity.
    pub rows: Vec<Vec<String>>,
}

/// A complete result artifact for one experiment or campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifact {
    /// Experiment/campaign id (`e1`, `tf-sweep`, …); names the file.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The campaign digest (`dyncode-store`), when produced by the
    /// stored orchestrator: names the exact effective campaign so
    /// shard merges and `--resume` can verify artifacts belong to the
    /// same grid. `None` (and absent from the JSON) for experiment
    /// artifacts — committed baselines keep their historical bytes.
    pub campaign_digest: Option<String>,
    /// Sweep cells.
    pub cells: Vec<CellRecord>,
    /// Fitted constants.
    pub fits: Vec<Fit>,
    /// Free scalar metrics.
    pub scalars: Vec<Scalar>,
    /// Rendered tables.
    pub tables: Vec<TableData>,
}

impl Artifact {
    /// An empty artifact for `id`.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Artifact {
        Artifact {
            id: id.into(),
            title: title.into(),
            campaign_digest: None,
            cells: Vec::new(),
            fits: Vec::new(),
            scalars: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// The canonical file name, `BENCH_<id>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.id)
    }

    /// Serializes to the canonical byte-stable JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Writes `BENCH_<id>.json` under `dir` (created if missing); returns
    /// the path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json_string())?;
        Ok(path)
    }

    /// The JSON form.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::Str(SCHEMA.into())),
            ("id", Json::Str(self.id.clone())),
            ("title", Json::Str(self.title.clone())),
        ];
        // Optional, so artifacts without one (every experiment artifact,
        // every committed baseline) keep their historical bytes.
        if let Some(digest) = &self.campaign_digest {
            fields.push(("campaign_digest", Json::Str(digest.clone())));
        }
        fields.extend(vec![
            (
                "cells",
                Json::Arr(self.cells.iter().map(cell_to_json).collect()),
            ),
            (
                "fits",
                Json::Arr(
                    self.fits
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("label", Json::Str(f.label.clone())),
                                ("constant", Json::Num(f.constant)),
                                ("spread", Json::Num(f.spread)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "scalars",
                Json::Arr(
                    self.scalars
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::Str(s.name.clone())),
                                ("value", Json::Num(s.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "tables",
                Json::Arr(
                    self.tables
                        .iter()
                        .map(|t| {
                            Json::obj(vec![
                                ("title", Json::Str(t.title.clone())),
                                (
                                    "headers",
                                    Json::Arr(
                                        t.headers.iter().map(|h| Json::Str(h.clone())).collect(),
                                    ),
                                ),
                                (
                                    "rows",
                                    Json::Arr(
                                        t.rows
                                            .iter()
                                            .map(|r| {
                                                Json::Arr(
                                                    r.iter()
                                                        .map(|c| Json::Str(c.clone()))
                                                        .collect(),
                                                )
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        Json::obj(fields)
    }

    /// Parses and schema-validates an artifact from JSON text.
    pub fn parse(text: &str) -> Result<Artifact, String> {
        let json = Json::parse(text)?;
        Artifact::from_json(&json)
    }

    /// Decodes from a parsed JSON value, validating the schema as it goes
    /// (missing/mistyped fields are errors naming the field).
    pub fn from_json(json: &Json) -> Result<Artifact, String> {
        let schema = json.req("schema", Json::as_str)?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?}, expected {SCHEMA:?}"
            ));
        }
        Ok(Artifact {
            cells: req_each(json, "cells", cell_from_json)?,
            fits: req_each(json, "fits", |f| {
                Ok(Fit {
                    label: f.req("label", Json::as_str)?.into(),
                    constant: f.req("constant", Json::as_f64)?,
                    spread: f.req("spread", Json::as_f64)?,
                })
            })?,
            scalars: req_each(json, "scalars", |s| {
                Ok(Scalar {
                    name: s.req("name", Json::as_str)?.into(),
                    value: s.req("value", Json::as_f64)?,
                })
            })?,
            tables: req_each(json, "tables", table_from_json)?,
            id: json.req("id", Json::as_str)?.into(),
            title: json.req("title", Json::as_str)?.into(),
            campaign_digest: json
                .get("campaign_digest")
                .and_then(Json::as_str)
                .map(String::from),
        })
    }
}

/// Decodes every element of the required array field `key`; an element's
/// error is prefixed with its position, `key[i]: …`.
fn req_each<T>(
    json: &Json,
    key: &str,
    decode: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    json.req(key, Json::as_arr)?
        .iter()
        .enumerate()
        .map(|(i, item)| decode(item).map_err(|e| format!("{key}[{i}]: {e}")))
        .collect()
}

/// A per-round history in its wire form, one 7-column row per round:
/// `[round, edges, bits, min_dim, max_dim, total_tokens, done]`. Artifact
/// runs and store objects both carry their `history` field in it.
pub fn history_to_json(history: &[HistoryRow]) -> Json {
    let row = |h: &HistoryRow| {
        let cols = [
            h.round as f64,
            h.edges as f64,
            h.bits as f64,
            h.min_dim as f64,
            h.max_dim as f64,
            h.total_tokens as f64,
            h.done as f64,
        ];
        Json::Arr(cols.into_iter().map(Json::Num).collect())
    };
    Json::Arr(history.iter().map(row).collect())
}

/// Decodes the required `history` field of `run` (see
/// [`history_to_json`]).
pub fn history_from_json(run: &Json) -> Result<Vec<HistoryRow>, String> {
    run.req("history", Json::as_arr)?
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let cols = row
                .as_arr()
                .filter(|a| a.len() == 7)
                .ok_or(format!("history[{i}] is not a 7-column row"))?;
            let col = |j: usize| -> Result<usize, String> {
                cols[j]
                    .as_usize()
                    .ok_or(format!("history[{i}][{j}] is not an integer"))
            };
            Ok(HistoryRow {
                round: col(0)?,
                edges: col(1)?,
                bits: cols[2].as_u64().ok_or(format!("history[{i}][2] bad"))?,
                min_dim: col(3)?,
                max_dim: col(4)?,
                total_tokens: col(5)?,
                done: col(6)?,
            })
        })
        .collect()
}

fn cell_to_json(c: &CellRecord) -> Json {
    Json::obj(vec![
        ("label", Json::Str(c.label.clone())),
        (
            "meta",
            Json::Obj(
                c.meta
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
        (
            "stats",
            Json::obj(vec![
                ("runs", Json::Num(c.stats.runs as f64)),
                ("failures", Json::Num(c.stats.failures as f64)),
                ("errors", Json::Num(c.stats.errors as f64)),
                ("mean_rounds", Json::Num(c.stats.mean_rounds)),
                ("min_rounds", Json::Num(c.stats.min_rounds as f64)),
                ("max_rounds", Json::Num(c.stats.max_rounds as f64)),
                ("std_rounds", Json::Num(c.stats.std_rounds)),
                ("ci95_rounds", Json::Num(c.stats.ci95_rounds)),
                ("mean_bits", Json::Num(c.stats.mean_bits)),
            ]),
        ),
        (
            "runs",
            Json::Arr(
                c.runs
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("seed", Json::Num(r.seed as f64)),
                            ("rounds", Json::Num(r.rounds as f64)),
                            ("completed", Json::Bool(r.completed)),
                            ("total_bits", Json::Num(r.total_bits as f64)),
                            ("max_message_bits", Json::Num(r.max_message_bits as f64)),
                            ("history", history_to_json(&r.history)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "errors",
            Json::Arr(
                c.errors
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("seed", Json::Num(e.seed as f64)),
                            ("message", Json::Str(e.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn cell_from_json(json: &Json) -> Result<CellRecord, String> {
    let stats = json.get("stats").ok_or("missing field \"stats\"")?;
    let stats = SeedStats {
        runs: stats.req("runs", Json::as_usize)?,
        failures: stats.req("failures", Json::as_usize)?,
        errors: stats.req("errors", Json::as_usize)?,
        mean_rounds: stats.req("mean_rounds", Json::as_f64)?,
        min_rounds: stats.req("min_rounds", Json::as_usize)?,
        max_rounds: stats.req("max_rounds", Json::as_usize)?,
        std_rounds: stats.req("std_rounds", Json::as_f64)?,
        ci95_rounds: stats.req("ci95_rounds", Json::as_f64)?,
        mean_bits: stats.req("mean_bits", Json::as_f64)?,
    };
    let meta = match json.get("meta") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or(format!("meta.{k} is not a string"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => return Err("field \"meta\" is not an object".into()),
        None => return Err("missing field \"meta\"".into()),
    };
    Ok(CellRecord {
        meta,
        stats,
        runs: req_each(json, "runs", run_from_json)?,
        errors: req_each(json, "errors", |e| {
            Ok(RunError {
                seed: e.req("seed", Json::as_u64)?,
                message: e.req("message", Json::as_str)?.into(),
            })
        })?,
        label: json.req("label", Json::as_str)?.into(),
    })
}

fn run_from_json(json: &Json) -> Result<RunRecord, String> {
    Ok(RunRecord {
        history: history_from_json(json)?,
        seed: json.req("seed", Json::as_u64)?,
        rounds: json.req("rounds", Json::as_usize)?,
        completed: json.req("completed", Json::as_bool)?,
        total_bits: json.req("total_bits", Json::as_u64)?,
        max_message_bits: json.req("max_message_bits", Json::as_u64)?,
    })
}

fn table_from_json(json: &Json) -> Result<TableData, String> {
    let headers = json
        .req("headers", Json::as_arr)?
        .iter()
        .map(|h| h.as_str().map(String::from).ok_or("non-string header"))
        .collect::<Result<Vec<_>, _>>()?;
    let rows = json
        .req("rows", Json::as_arr)?
        .iter()
        .map(|r| {
            r.as_arr()
                .ok_or("non-array row")?
                .iter()
                .map(|c| c.as_str().map(String::from).ok_or("non-string table cell"))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    for (i, r) in rows.iter().enumerate() {
        if r.len() != headers.len() {
            return Err(format!(
                "rows[{i}] arity {} != headers {}",
                r.len(),
                headers.len()
            ));
        }
    }
    Ok(TableData {
        title: json.req("title", Json::as_str)?.into(),
        headers,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        let mut a = Artifact::new("e1", "Theorem 2.1 sweep");
        a.cells.push(CellRecord {
            label: "n=16 adv=shuffled-path".into(),
            meta: vec![
                ("n".into(), "16".into()),
                ("adversary".into(), "shuffled-path".into()),
            ],
            stats: SeedStats {
                runs: 3,
                failures: 0,
                errors: 1,
                mean_rounds: 120.5,
                min_rounds: 110,
                max_rounds: 131,
                std_rounds: 10.5,
                ci95_rounds: 11.88,
                mean_bits: 1234.0,
            },
            runs: vec![RunRecord {
                seed: 1,
                rounds: 110,
                completed: true,
                total_bits: 1200,
                max_message_bits: 16,
                history: vec![HistoryRow {
                    round: 0,
                    edges: 15,
                    bits: 160,
                    min_dim: 0,
                    max_dim: 1,
                    total_tokens: 16,
                    done: 0,
                }],
            }],
            errors: vec![RunError {
                seed: 3,
                message: "run failed to complete".into(),
            }],
        });
        a.fits.push(Fit {
            label: "E1a".into(),
            constant: 0.92,
            spread: 1.07,
        });
        a.scalars.push(Scalar {
            name: "E1b loglog slope".into(),
            value: -1.02,
        });
        a.tables.push(TableData {
            title: "E1a: n sweep".into(),
            headers: vec!["n".into(), "rounds".into()],
            rows: vec![vec!["16".into(), "120.5".into()]],
        });
        a
    }

    #[test]
    fn artifact_round_trips_byte_identically() {
        let a = sample();
        let text = a.to_json_string();
        let back = Artifact::parse(&text).expect("parse");
        assert_eq!(back, a);
        assert_eq!(back.to_json_string(), text);
    }

    /// Pins the writer and the decoder to ~3 400 lines of real output.
    #[test]
    fn committed_baselines_reprint_byte_identically() {
        for text in [
            include_str!("../../../baselines/BENCH_seed.json"),
            include_str!("../../../baselines/BENCH_scenarios.json"),
            include_str!("../../../baselines/BENCH_protocols.json"),
            include_str!("../../../baselines/BENCH_delivery.json"),
            include_str!("../../../baselines/BENCH_quorum.json"),
        ] {
            let a = Artifact::parse(text).expect("baseline parses");
            assert!(a.to_json_string() == text, "{} re-prints differently", a.id);
        }
    }

    #[test]
    fn from_outcomes_folds_runs_errors_and_stats() {
        let run = |rounds, completed| RunResult {
            rounds,
            completed,
            total_bits: 10 * rounds as u64,
            max_message_bits: 8,
            adversary: "a".into(),
            history: vec![],
        };
        let (fast, slow, capped) = (run(10, true), run(20, true), run(99, false));
        let boom = CellError {
            message: "boom".into(),
        };
        let outcomes = [
            Ok(fast.clone()),
            Err(boom),
            Ok(slow.clone()),
            Ok(capped.clone()),
        ];
        let cell = CellRecord::from_outcomes(
            "c".into(),
            vec![("n".into(), "8".into())],
            (1..).zip(&outcomes),
        );
        assert_eq!(
            cell.runs,
            [
                RunRecord::from_run(1, &fast),
                RunRecord::from_run(3, &slow),
                RunRecord::from_run(4, &capped),
            ]
        );
        let boom = RunError {
            seed: 2,
            message: "boom".into(),
        };
        assert_eq!(cell.errors, [boom]);
        assert_eq!(cell.stats, SeedStats::from_runs([&fast, &slow, &capped], 1));
        assert_eq!((cell.stats.runs, cell.stats.failures), (4, 1));
        assert_eq!(cell.runs[0].to_result("a".into()), fast);
    }

    #[test]
    fn nan_stats_survive_round_trip() {
        let mut a = Artifact::new("x", "all failed");
        a.cells.push(CellRecord {
            label: "c".into(),
            meta: vec![],
            stats: SeedStats::from_runs(
                &[RunResult {
                    rounds: 9,
                    completed: false,
                    total_bits: 0,
                    max_message_bits: 0,
                    adversary: "a".into(),
                    history: vec![],
                }],
                0,
            ),
            runs: vec![],
            errors: vec![],
        });
        let back = Artifact::parse(&a.to_json_string()).unwrap();
        assert!(back.cells[0].stats.mean_rounds.is_nan());
        assert_eq!(back.cells[0].stats.failures, 1);
    }

    #[test]
    fn schema_violations_are_named() {
        let bad = r#"{"schema": "other/v9", "id": "x"}"#;
        let err = Artifact::parse(bad).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");

        let mut json = sample().to_json();
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| k != "cells");
        }
        let err = Artifact::from_json(&json).unwrap_err();
        assert!(err.contains("cells"), "{err}");

        let err = Artifact::parse("{not json").unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn campaign_digest_is_optional_and_round_trips() {
        // Absent: serialized text has no key, parses back to None (old
        // baselines stay valid and byte-stable).
        let plain = sample();
        assert!(plain.campaign_digest.is_none());
        assert!(!plain.to_json_string().contains("campaign_digest"));

        // Present: round-trips byte-identically.
        let mut stored = sample();
        stored.campaign_digest = Some("ab".repeat(32));
        let text = stored.to_json_string();
        assert!(text.contains("campaign_digest"));
        let back = Artifact::parse(&text).expect("parse");
        assert_eq!(back, stored);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn file_name_follows_id() {
        assert_eq!(sample().file_name(), "BENCH_e1.json");
    }

    #[test]
    fn write_to_creates_dir_and_file() {
        let dir = std::env::temp_dir().join("dyncode_artifact_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = sample().write_to(&dir).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(Artifact::parse(&text).unwrap(), sample());
        std::fs::remove_dir_all(&dir).ok();
    }
}
