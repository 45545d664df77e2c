//! Seed-sweep aggregation: per-cell statistics over the [`RunResult`]s of
//! one `(Params, Placement, adversary)` cell across its seeds.

use dyncode_dynet::simulator::RunResult;

/// Summary statistics for one cell of a campaign, aggregated over seeds.
///
/// Rounds statistics are over *completed* runs only (a run that hits the
/// round cap reports `failures` instead of polluting the mean); `errors`
/// counts contained panics, which produce no `RunResult` at all.
#[derive(Clone, Debug, PartialEq)]
pub struct SeedStats {
    /// Total runs attempted (completed + failed + errored).
    pub runs: usize,
    /// Runs that hit the round cap without completing.
    pub failures: usize,
    /// Runs that panicked (contained by the executor).
    pub errors: usize,
    /// Mean rounds over completed runs (NaN if none completed).
    pub mean_rounds: f64,
    /// Minimum rounds over completed runs (0 if none completed).
    pub min_rounds: usize,
    /// Maximum rounds over completed runs (0 if none completed).
    pub max_rounds: usize,
    /// Sample standard deviation of rounds (0 with < 2 completions).
    pub std_rounds: f64,
    /// Half-width of the normal-approximation 95% confidence interval on
    /// `mean_rounds` (1.96·σ/√m; 0 with < 2 completions).
    pub ci95_rounds: f64,
    /// Mean total broadcast bits over completed runs (NaN if none).
    pub mean_bits: f64,
}

impl SeedStats {
    /// Aggregates the completed/failed runs of a cell plus `errors`
    /// contained panics. The runs are only read, so anything that yields
    /// `&RunResult` will do (`&Vec<RunResult>`, a `Vec<&RunResult>`, …).
    pub fn from_runs<'a>(
        results: impl IntoIterator<Item = &'a RunResult>,
        errors: usize,
    ) -> SeedStats {
        let results: Vec<&RunResult> = results.into_iter().collect();
        let completed: Vec<&RunResult> = results.iter().copied().filter(|r| r.completed).collect();
        let failures = results.len() - completed.len();
        let m = completed.len();
        let mean = |f: &dyn Fn(&RunResult) -> f64| -> f64 {
            if m == 0 {
                f64::NAN
            } else {
                completed.iter().map(|r| f(r)).sum::<f64>() / m as f64
            }
        };
        let mean_rounds = mean(&|r| r.rounds as f64);
        let std_rounds = if m < 2 {
            0.0
        } else {
            let var = completed
                .iter()
                .map(|r| (r.rounds as f64 - mean_rounds).powi(2))
                .sum::<f64>()
                / (m - 1) as f64;
            var.sqrt()
        };
        let ci95_rounds = if m < 2 {
            0.0
        } else {
            1.96 * std_rounds / (m as f64).sqrt()
        };
        SeedStats {
            runs: results.len() + errors,
            failures,
            errors,
            mean_rounds,
            min_rounds: completed.iter().map(|r| r.rounds).min().unwrap_or(0),
            max_rounds: completed.iter().map(|r| r.rounds).max().unwrap_or(0),
            std_rounds,
            ci95_rounds,
            mean_bits: mean(&|r| r.total_bits as f64),
        }
    }

    /// True when every attempted run completed (no cap hits, no panics).
    pub fn all_completed(&self) -> bool {
        self.failures == 0 && self.errors == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rr(rounds: usize, completed: bool, bits: u64) -> RunResult {
        RunResult {
            rounds,
            completed,
            total_bits: bits,
            max_message_bits: 8,
            adversary: "test".into(),
            history: Vec::new(),
        }
    }

    #[test]
    fn stats_over_mixed_outcomes() {
        let runs = vec![rr(10, true, 100), rr(20, true, 200), rr(99, false, 1)];
        let s = SeedStats::from_runs(&runs, 1);
        assert_eq!(s.runs, 4);
        assert_eq!(s.failures, 1);
        assert_eq!(s.errors, 1);
        assert!(!s.all_completed());
        assert_eq!(s.mean_rounds, 15.0);
        assert_eq!(s.min_rounds, 10);
        assert_eq!(s.max_rounds, 20);
        assert!((s.std_rounds - (50.0f64).sqrt()).abs() < 1e-12);
        assert!((s.ci95_rounds - 1.96 * (50.0f64).sqrt() / (2.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.mean_bits, 150.0);
    }

    #[test]
    fn degenerate_counts() {
        let s = SeedStats::from_runs(&[rr(5, true, 10)], 0);
        assert!(s.all_completed());
        assert_eq!(s.std_rounds, 0.0);
        assert_eq!(s.ci95_rounds, 0.0);

        let none = SeedStats::from_runs(&[rr(7, false, 0)], 0);
        assert!(none.mean_rounds.is_nan());
        assert_eq!(none.min_rounds, 0);
        assert_eq!(none.failures, 1);

        // No runs at all is a value, not a panic.
        let empty = SeedStats::from_runs(&[], 2);
        assert_eq!((empty.runs, empty.failures, empty.errors), (2, 0, 2));
        assert!(empty.mean_rounds.is_nan() && empty.mean_bits.is_nan());
        assert_eq!((empty.min_rounds, empty.max_rounds), (0, 0));
    }
}
