//! `BENCHMARK.json`: the file that names the workloads, the end-to-end
//! metrics with their bounds and the per-layer metrics. The harness reads
//! it (never a second copy of the lists), validates it against the limits
//! the benchmark contract sets, and `check-repeat` takes its bounds from
//! it.

use dyncode_engine::Json;
use std::path::{Path, PathBuf};

/// Most workloads a benchmark may define.
pub const MAX_WORKLOADS: usize = 8;
/// Most end-to-end metrics.
pub const MAX_END_TO_END: usize = 16;
/// Most per-layer metrics.
pub const MAX_PER_LAYER: usize = 128;
/// Largest bound an end-to-end metric may carry.
pub const MAX_BOUND: f64 = 0.25;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, hit ratios).
    Higher,
}

/// One metric definition.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Clone, Debug, PartialEq)]
pub struct Contract {
    /// Program and arguments the driver runs.
    pub command: Vec<String>,
    /// Directories that hold the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricDef>,
}

/// The benchmark package's directory (`benchmark/` of the checkout this
/// binary was built in).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where `BENCHMARK.json` lives: the root of the checkout.
pub fn contract_path() -> PathBuf {
    package_dir()
        .parent()
        .expect("the benchmark package sits one level below the repository root")
        .join("BENCHMARK.json")
}

/// A name starts with a letter or digit and is made of at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit is made of 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn str_field(obj: &Json, key: &str, ctx: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{ctx}: missing string `{key}`"))
}

fn keys_are(obj: &Json, want: &[&str], ctx: &str) -> Result<(), String> {
    let Json::Obj(fields) = obj else {
        return Err(format!("{ctx}: expected an object"));
    };
    let mut got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let mut want = want.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got == want {
        Ok(())
    } else {
        Err(format!("{ctx}: keys {got:?}, expected exactly {want:?}"))
    }
}

fn metric(obj: &Json, bounded: bool, ctx: &str) -> Result<MetricDef, String> {
    let keys: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    keys_are(obj, keys, ctx)?;
    let name = str_field(obj, "name", ctx)?;
    let better = match str_field(obj, "better", ctx)?.as_str() {
        "lower" => Better::Lower,
        "higher" => Better::Higher,
        other => {
            return Err(format!(
                "{ctx} {name}: `better` is {other:?}, not lower|higher"
            ))
        }
    };
    let bound = if bounded {
        Some(
            obj.get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{ctx} {name}: `bound` is not a number"))?,
        )
    } else {
        None
    };
    Ok(MetricDef {
        name,
        unit: str_field(obj, "unit", ctx)?,
        better,
        bound,
    })
}

fn array<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not an array"))
}

impl Contract {
    /// Parses and validates the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        keys_are(
            &doc,
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
            "BENCHMARK.json",
        )?;
        let strings = |key: &str| -> Result<Vec<String>, String> {
            array(&doc, key)?
                .iter()
                .map(|j| {
                    j.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("BENCHMARK.json: `{key}` holds a non-string"))
                })
                .collect()
        };
        let contract = Contract {
            command: strings("command")?,
            paths: strings("paths")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: `run_seconds` is not a whole number")?,
            workloads: array(&doc, "workloads")?
                .iter()
                .map(|w| {
                    keys_are(w, &["name", "why"], "workload")?;
                    Ok((
                        str_field(w, "name", "workload")?,
                        str_field(w, "why", "workload")?,
                    ))
                })
                .collect::<Result<_, String>>()?,
            end_to_end: array(&doc, "end_to_end")?
                .iter()
                .map(|m| metric(m, true, "end_to_end"))
                .collect::<Result<_, _>>()?,
            per_layer: array(&doc, "per_layer")?
                .iter()
                .map(|m| metric(m, false, "per_layer"))
                .collect::<Result<_, _>>()?,
        };
        contract.validate()?;
        Ok(contract)
    }

    /// Loads the checkout's `BENCHMARK.json`.
    pub fn load() -> Result<Contract, String> {
        let path = contract_path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Contract::parse(&text)
    }

    /// Checks the limits the benchmark contract sets on the file.
    pub fn validate(&self) -> Result<(), String> {
        let count = |what: &str, n: usize, lo: usize, hi: usize| {
            if (lo..=hi).contains(&n) {
                Ok(())
            } else {
                Err(format!("{n} {what}, allowed {lo} to {hi}"))
            }
        };
        count("workloads", self.workloads.len(), 2, MAX_WORKLOADS)?;
        count(
            "end-to-end metrics",
            self.end_to_end.len(),
            1,
            MAX_END_TO_END,
        )?;
        count("per-layer metrics", self.per_layer.len(), 1, MAX_PER_LAYER)?;
        count("paths", self.paths.len(), 1, 16)?;
        count("command words", self.command.len(), 1, 32)?;
        if !(1..=60).contains(&self.run_seconds) {
            return Err(format!(
                "run_seconds {} is outside 1..=60",
                self.run_seconds
            ));
        }
        // One namespace: a name is used once across the whole file.
        let mut names: Vec<&str> = self.workloads.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(
            self.end_to_end
                .iter()
                .chain(&self.per_layer)
                .map(|m| m.name.as_str()),
        );
        if let Some(bad) = names.iter().find(|n| !valid_name(n)) {
            return Err(format!("invalid name {bad:?}"));
        }
        names.sort_unstable();
        if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("name {:?} is used twice", dup[0]));
        }
        for (n, why) in &self.workloads {
            if why.is_empty() || why.len() > 200 || why.contains('\n') {
                return Err(format!(
                    "workload {n}: `why` must be one line of at most 200 characters"
                ));
            }
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            if !valid_unit(&m.unit) {
                return Err(format!("metric {}: invalid unit {:?}", m.name, m.unit));
            }
        }
        for m in &self.end_to_end {
            let b = m.bound.expect("end-to-end metrics parse with a bound");
            if !(b > 0.0 && b <= MAX_BOUND) {
                return Err(format!(
                    "metric {}: bound {b} is outside (0, {MAX_BOUND}]",
                    m.name
                ));
            }
        }
        match self.end_to_end.iter().find(|m| m.name == "setup_s") {
            Some(m) if m.unit == "s" && m.better == Better::Lower => Ok(()),
            _ => Err("end_to_end must hold `setup_s` with unit `s`, better `lower`".into()),
        }
    }
}
