//! The experiment context: every e1–e17 sweep runs through here, which is
//! what gives all of them engine parallelism, machine-readable
//! `BENCH_<id>.json` artifacts and regression gating in one place.
//!
//! An [`ExpCtx`] wraps the engine executor plus the artifact being built
//! for the current experiment. Experiments call [`ExpCtx::mean_rounds`] /
//! [`ExpCtx::sweep`] for seed sweeps (sharded across `--threads N`
//! workers), [`ExpCtx::map`] for bespoke parallel cells, and
//! [`ExpCtx::table`] / [`ExpCtx::fit`] / [`ExpCtx::scalar`] to record what
//! they print. Because every cell carries its own seed and results return
//! in submission order, the artifact bytes are independent of the thread
//! count (locked by `tests/engine_determinism.rs`).

use crate::table::{f, Table};
use dyncode_core::params::Instance;
use dyncode_core::runner::{run_one, run_spec};
use dyncode_core::spec::ProtocolSpec;
use dyncode_core::theory;
use dyncode_dynet::adversary::Adversary;
use dyncode_dynet::simulator::{Protocol, RunResult, SimConfig};
use dyncode_engine::{
    run_campaign, Artifact, Campaign, CellRecord, Engine, Fit, Scalar, SeedStats, TableData,
};
use std::path::PathBuf;

/// Shared context threaded through every experiment run.
pub struct ExpCtx {
    /// Quick mode: smoke-test-sized sweeps.
    pub quick: bool,
    engine: Engine,
    out_dir: Option<PathBuf>,
    artifact: Artifact,
}

impl ExpCtx {
    /// A context running on `threads` workers; artifacts are written under
    /// `out_dir` when given (the `--json`/`--out` flags).
    pub fn new(quick: bool, threads: usize, out_dir: Option<PathBuf>) -> ExpCtx {
        ExpCtx {
            quick,
            engine: Engine::new(threads),
            out_dir,
            artifact: Artifact::new("none", "no experiment begun"),
        }
    }

    /// The executor.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// Starts a fresh artifact for experiment `id`.
    pub fn begin(&mut self, id: &str, title: &str) {
        self.artifact = Artifact::new(id, title);
    }

    /// A read-only view of the artifact being built.
    pub fn artifact(&self) -> &Artifact {
        &self.artifact
    }

    /// Finishes the current experiment: writes `BENCH_<id>.json` under the
    /// output directory (when configured) and returns the path, or
    /// `Ok(None)` when no output directory is set. A write failure is an
    /// `Err` for the caller to report — never a panic, so one unwritable
    /// directory cannot abort the remaining experiments.
    pub fn finish(&mut self) -> std::io::Result<Option<PathBuf>> {
        match &self.out_dir {
            None => Ok(None),
            Some(dir) => self.artifact.write_to(dir).map(Some),
        }
    }

    /// Runs bespoke cells in parallel on the engine, returning results in
    /// submission order.
    ///
    /// # Panics
    /// Panics (after all cells have run) if any cell panicked — the
    /// strict mode for experiment internals whose cells must all succeed.
    pub fn map<'env, T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        self.engine.map_strict(jobs)
    }

    /// Runs one labelled seed sweep through the engine and records it as
    /// an artifact cell (stats + raw runs + contained errors). Failures
    /// and panics are recorded, not raised — callers that require full
    /// completion should use [`ExpCtx::mean_rounds`].
    pub fn sweep<P, FB, FA>(
        &mut self,
        label: &str,
        meta: &[(&str, String)],
        seeds: &[u64],
        cap: usize,
        build: FB,
        adv: FA,
    ) -> SeedStats
    where
        P: Protocol,
        FB: Fn() -> P + Sync,
        FA: Fn() -> Box<dyn Adversary> + Sync,
    {
        let config = SimConfig::with_max_rounds(cap);
        let (build, adv, config) = (&build, &adv, &config);
        let jobs: Vec<_> = seeds
            .iter()
            .map(|&s| move || run_one(build, adv, config, s))
            .collect();
        let outcomes = self.engine.map(jobs);
        self.record_cell(label, meta, seeds, outcomes)
    }

    /// [`ExpCtx::sweep`] for a registry spec: the protocol is named by a
    /// [`ProtocolSpec`] string instead of a build closure, and each seed's
    /// cell runs through the erased dispatch path
    /// (`dyncode_core::runner::run_spec`) — bit-identical to the
    /// monomorphized path by the registry's equivalence contract.
    ///
    /// Cells run at stability interval T = 1; protocols with a T of
    /// their own take it as a spec parameter (`pipelined-forwarding(8)`).
    #[allow(clippy::too_many_arguments)] // mirrors `sweep` plus the spec pair
    pub fn sweep_spec<FA>(
        &mut self,
        label: &str,
        meta: &[(&str, String)],
        seeds: &[u64],
        cap: usize,
        spec: &ProtocolSpec,
        inst: &Instance,
        adv: FA,
    ) -> SeedStats
    where
        FA: Fn() -> Box<dyn Adversary> + Sync,
    {
        let config = SimConfig::with_max_rounds(cap);
        let (adv, config) = (&adv, &config);
        let jobs: Vec<_> = seeds
            .iter()
            .map(|&s| move || run_spec(spec, inst, 1, adv, config, s))
            .collect();
        let outcomes = self.engine.map(jobs);
        self.record_cell(label, meta, seeds, outcomes)
    }

    /// Folds one labelled sweep's outcomes into the artifact as a cell.
    fn record_cell(
        &mut self,
        label: &str,
        meta: &[(&str, String)],
        seeds: &[u64],
        outcomes: Vec<Result<RunResult, dyncode_engine::CellError>>,
    ) -> SeedStats {
        let cell = CellRecord::from_outcomes(
            label.to_string(),
            meta.iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            seeds.iter().copied().zip(&outcomes),
        );
        let stats = cell.stats.clone();
        self.artifact.cells.push(cell);
        stats
    }

    /// [`ExpCtx::sweep_spec`] for sweeps that must fully complete:
    /// asserts no failures or contained errors and returns the mean
    /// rounds.
    #[allow(clippy::too_many_arguments)] // mirrors `sweep_spec`
    pub fn mean_rounds_spec<FA>(
        &mut self,
        label: &str,
        meta: &[(&str, String)],
        seeds: &[u64],
        cap: usize,
        spec: &ProtocolSpec,
        inst: &Instance,
        adv: FA,
    ) -> f64
    where
        FA: Fn() -> Box<dyn Adversary> + Sync,
    {
        let stats = self.sweep_spec(label, meta, seeds, cap, spec, inst, adv);
        assert!(
            stats.all_completed(),
            "sweep {label:?}: {} of {} runs did not complete within {cap} rounds",
            stats.failures + stats.errors,
            stats.runs
        );
        stats.mean_rounds
    }

    /// Runs a whole declarative [`Campaign`] on the context's engine and
    /// folds its cells into the current experiment's artifact (labels are
    /// the campaign's `proto=… n=… adv=…` cell labels). Returns the
    /// appended cell records for table building.
    pub fn campaign(&mut self, campaign: &Campaign) -> Vec<CellRecord> {
        let a = run_campaign(&self.engine, campaign);
        self.artifact.cells.extend(a.cells.iter().cloned());
        a.cells
    }

    /// [`ExpCtx::sweep`] for sweeps that must fully complete: asserts no
    /// failures or contained errors (after recording them in the
    /// artifact, so a written artifact still shows what went wrong) and
    /// returns the mean rounds.
    pub fn mean_rounds<P, FB, FA>(
        &mut self,
        label: &str,
        meta: &[(&str, String)],
        seeds: &[u64],
        cap: usize,
        build: FB,
        adv: FA,
    ) -> f64
    where
        P: Protocol,
        FB: Fn() -> P + Sync,
        FA: Fn() -> Box<dyn Adversary> + Sync,
    {
        let stats = self.sweep(label, meta, seeds, cap, build, adv);
        assert!(
            stats.all_completed(),
            "sweep {label:?}: {} of {} runs did not complete within {cap} rounds",
            stats.failures + stats.errors,
            stats.runs
        );
        stats.mean_rounds
    }

    /// Prints a table and records it into the artifact.
    pub fn table(&mut self, t: &Table) {
        t.print();
        self.artifact.tables.push(TableData {
            title: t.title().to_string(),
            headers: t.headers().to_vec(),
            rows: t.rows().to_vec(),
        });
    }

    /// Fits the leading constant (`measured ≈ c·predicted`), prints the
    /// standard shape-fit footer and records the fit; returns
    /// `(constant, spread)`.
    pub fn fit(&mut self, label: &str, measured: &[f64], predicted: &[f64]) -> (f64, f64) {
        let (c, spread) = theory::fit_constant(measured, predicted);
        println!(
            "\nshape fit [{label}]: fitted constant = {}, ratio spread = {}",
            f(c),
            f(spread)
        );
        println!(
            "(spread close to 1.0 means measured rounds track the predicted formula across the sweep)"
        );
        self.artifact.fits.push(Fit {
            label: label.to_string(),
            constant: c,
            spread,
        });
        (c, spread)
    }

    /// Records a named scalar metric into the artifact.
    pub fn scalar(&mut self, name: impl Into<String>, value: f64) {
        self.artifact.scalars.push(Scalar {
            name: name.into(),
            value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncode_core::params::{Instance, Params, Placement};
    use dyncode_core::protocols::TokenForwarding;
    use dyncode_dynet::adversaries::ShuffledPathAdversary;

    fn ctx(threads: usize) -> ExpCtx {
        ExpCtx::new(true, threads, None)
    }

    #[test]
    fn sweep_records_a_cell_and_matches_serial() {
        let p = Params::new(8, 8, 4, 8);
        let inst = Instance::generate(p, Placement::OneTokenPerNode, 1);
        let run = |threads: usize| {
            let mut c = ctx(threads);
            c.begin("t", "test");
            let stats = c.sweep(
                "cell",
                &[("n", "8".into())],
                &[1, 2, 3],
                10_000,
                || TokenForwarding::baseline(&inst),
                || Box::new(ShuffledPathAdversary),
            );
            (stats, c.artifact().to_json_string())
        };
        let (s1, a1) = run(1);
        let (s8, a8) = run(8);
        assert_eq!(s1, s8);
        assert_eq!(a1, a8, "artifact bytes must not depend on threads");
        assert!(s1.all_completed());
        assert_eq!(s1.runs, 3);
    }

    #[test]
    fn sweep_spec_matches_closure_sweep_bit_for_bit() {
        let p = Params::new(8, 8, 4, 8);
        let inst = Instance::generate(p, Placement::OneTokenPerNode, 1);
        let spec = ProtocolSpec::parse("token-forwarding").unwrap();

        let mut c1 = ctx(2);
        c1.begin("t", "test");
        let s1 = c1.sweep(
            "cell",
            &[("n", "8".into())],
            &[1, 2, 3],
            10_000,
            || TokenForwarding::baseline(&inst),
            || Box::new(ShuffledPathAdversary),
        );

        let mut c2 = ctx(2);
        c2.begin("t", "test");
        let s2 = c2.sweep_spec(
            "cell",
            &[("n", "8".into())],
            &[1, 2, 3],
            10_000,
            &spec,
            &inst,
            || Box::new(ShuffledPathAdversary) as Box<dyn Adversary>,
        );
        assert_eq!(s1, s2, "spec sweep must equal the closure sweep");
        assert_eq!(
            c1.artifact().to_json_string(),
            c2.artifact().to_json_string(),
            "artifact bytes must be identical across the two dispatch paths"
        );
    }

    #[test]
    fn campaign_cells_fold_into_the_experiment_artifact() {
        let campaign = Campaign::parse(
            "
            id = fold
            protocol = token-forwarding, indexed-broadcast
            adversaries = shuffled-path
            n = 8
            seeds = 1
            cap = 100nn
        ",
        )
        .unwrap();
        let mut c = ctx(2);
        c.begin("t", "test");
        let cells = c.campaign(&campaign);
        assert_eq!(cells.len(), 2);
        assert_eq!(c.artifact().cells.len(), 2);
        assert!(c.artifact().cells[0]
            .label
            .starts_with("proto=token-forwarding"));
    }

    #[test]
    #[should_panic(expected = "did not complete")]
    fn mean_rounds_asserts_completion() {
        let p = Params::new(8, 8, 4, 8);
        let inst = Instance::generate(p, Placement::OneTokenPerNode, 1);
        let mut c = ctx(2);
        c.begin("t", "test");
        c.mean_rounds(
            "impossible",
            &[],
            &[1, 2],
            1, // a 1-round cap cannot complete
            || TokenForwarding::baseline(&inst),
            || Box::new(ShuffledPathAdversary),
        );
    }

    #[test]
    fn recorded_metrics_land_in_artifact() {
        let mut c = ctx(1);
        c.begin("t", "test");
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into()]);
        c.table(&t);
        c.fit("F", &[2.0, 4.0], &[1.0, 2.0]);
        c.scalar("slope", -1.0);
        let a = c.artifact();
        assert_eq!(a.tables.len(), 1);
        assert_eq!(a.fits.len(), 1);
        assert!((a.fits[0].constant - 2.0).abs() < 1e-12);
        assert_eq!(a.scalars[0].name, "slope");
    }

    #[test]
    fn finish_writes_named_artifact() {
        let dir = std::env::temp_dir().join("dyncode_ctx_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = ExpCtx::new(true, 1, Some(dir.clone()));
        c.begin("e99x", "test artifact");
        let path = c.finish().expect("writable").expect("path");
        assert!(path.ends_with("BENCH_e99x.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(Artifact::parse(&text).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
