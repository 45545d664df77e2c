//! `check-repeat`: compares two `results.json` files (written by `run`)
//! against the bounds in `BENCHMARK.json`, one row per end-to-end metric
//! × workload. Two runs of one commit must agree two-sidedly; a change
//! against its parent (`--one-sided`) may only not be *worse* by more
//! than the bound. A pair whose own run-to-run spread exceeds the bound
//! cannot carry either verdict and is reported as unresolved.

use crate::contract::{Better, Contract, MetricDef};
use crate::stats::{median, spread};
use dyncode_engine::Json;
use std::path::Path;

/// What a pair of measurements says about one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Within,
    /// Outside the bound: a regression (one-sided) or a disagreement
    /// between repeats (two-sided).
    Outside,
    /// The repeat spread of either side exceeds the bound.
    Unresolved,
}

/// `workload → metric → values` of one results file's end-to-end block.
pub type EndToEnd = Vec<(String, Vec<(String, Vec<f64>)>)>;

/// Reads the end-to-end values of a `results.json`.
pub fn load(path: &Path) -> Result<EndToEnd, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = |what: &str| format!("{}: {what}", path.display());
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err(bad("no `workloads` object"));
    };
    workloads
        .iter()
        .map(|(name, w)| {
            let Some(Json::Obj(metrics)) = w.get("end_to_end") else {
                return Err(bad("a workload without `end_to_end`"));
            };
            let metrics = metrics
                .iter()
                .map(|(m, v)| {
                    let values = v
                        .get("values")
                        .and_then(Json::as_arr)
                        .and_then(|a| a.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>())
                        .filter(|v| !v.is_empty())
                        .ok_or_else(|| bad("a metric without `values`"))?;
                    Ok((m.clone(), values))
                })
                .collect::<Result<_, String>>()?;
            Ok((name.clone(), metrics))
        })
        .collect()
}

/// By how much `b` is worse than `a`, as a share of `a`'s median
/// (negative = better).
pub fn worsening(def: &MetricDef, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (median(a), median(b));
    match def.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    }
}

/// Judges one metric on one workload.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64], one_sided: bool) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let worse = worsening(def, a, b);
    if spread(a).max(spread(b)) > bound {
        // Too noisy to call — unless every run of the change beats every
        // run of the parent, which no spread can explain away.
        let all_better = match def.better {
            Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
            Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
        };
        return if one_sided && all_better {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    }
    let outside = if one_sided {
        worse > bound
    } else {
        worse.abs() > bound
    };
    if outside {
        Verdict::Outside
    } else {
        Verdict::Within
    }
}

/// Prints the comparison table; returns whether every row is within its
/// bound.
pub fn report(contract: &Contract, a: &EndToEnd, b: &EndToEnd, one_sided: bool) -> bool {
    println!(
        "{:<22} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    let mut ok = true;
    for (workload, _) in &contract.workloads {
        let side = |r: &'_ EndToEnd| {
            r.iter()
                .find(|(n, _)| n == workload)
                .map(|(_, m)| m.clone())
        };
        let (Some(ma), Some(mb)) = (side(a), side(b)) else {
            println!("{workload:<22} missing from one of the files");
            ok = false;
            continue;
        };
        for def in &contract.end_to_end {
            let values = |m: &[(String, Vec<f64>)]| {
                m.iter()
                    .find(|(n, _)| *n == def.name)
                    .map(|(_, v)| v.clone())
            };
            let (Some(va), Some(vb)) = (values(&ma), values(&mb)) else {
                println!(
                    "{workload:<22} {:<14} missing from one of the files",
                    def.name
                );
                ok = false;
                continue;
            };
            let verdict = judge(def, &va, &vb, one_sided);
            ok &= verdict == Verdict::Within;
            println!(
                "{workload:<22} {:<14} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%  {}",
                def.name,
                median(&va),
                median(&vb),
                100.0 * worsening(def, &va, &vb),
                100.0 * def.bound.expect("end-to-end metrics carry a bound"),
                match verdict {
                    Verdict::Within => "within bound",
                    Verdict::Outside if one_sided => "REGRESSION",
                    Verdict::Outside => "REPEATS DISAGREE",
                    Verdict::Unresolved => "UNRESOLVED (spread exceeds bound)",
                }
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricDef {
        MetricDef {
            name: "wall_s".into(),
            unit: "s".into(),
            better: Better::Lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn repeat_check_is_two_sided_and_parent_check_one_sided() {
        let def = lower(0.10);
        assert_eq!(judge(&def, &[1.0], &[1.05], false), Verdict::Within);
        assert_eq!(judge(&def, &[1.0], &[1.2], false), Verdict::Outside);
        assert_eq!(judge(&def, &[1.0], &[0.8], false), Verdict::Outside);
        assert_eq!(judge(&def, &[1.0], &[0.8], true), Verdict::Within);
        assert_eq!(judge(&def, &[1.0], &[1.2], true), Verdict::Outside);
        let higher = MetricDef {
            better: Better::Higher,
            ..lower(0.10)
        };
        assert_eq!(judge(&higher, &[100.0], &[80.0], true), Verdict::Outside);
        assert_eq!(judge(&higher, &[100.0], &[130.0], true), Verdict::Within);
    }

    #[test]
    fn a_spread_beyond_the_bound_is_unresolved() {
        let def = lower(0.10);
        let noisy = [1.0, 1.3, 0.8, 1.2, 0.9];
        assert_eq!(judge(&def, &noisy, &[1.0, 1.0], false), Verdict::Unresolved);
        assert_eq!(judge(&def, &noisy, &[1.0, 1.01], true), Verdict::Unresolved);
        // ... unless every run of the change beats every run of the parent.
        assert_eq!(judge(&def, &noisy, &[0.5, 0.6], true), Verdict::Within);
    }
}
