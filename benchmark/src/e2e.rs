//! The untraced driver: the end-to-end metrics. It goes through the
//! stable surface only — `Campaign::parse`, `CellSpec::{instance,
//! run_on}`, `Engine`, `serve_once`, `Store`, `Artifact` — the calls
//! `experiments campaign` and `experiments serve` make, so a refactor
//! below that surface never blocks these numbers.
//!
//! The load is a closed loop in one process: a *pass* runs the workload's
//! whole input once, the next pass starts when it returns, and passes
//! repeat for `--seconds`. Every pass has identical inputs, so what
//! differs between them is the host's doing; the reported time is built
//! from the fast tail ([`undisturbed_wall_s`]).

use crate::harness::{
    account_runs, check_expected, prepare_cells, repeat_setup, Checks, Outcome, PreparedCell, Row,
    Spool,
};
use crate::procstat;
use crate::stats::{first_decile, median};
use crate::workloads::{Mode, Workload};
use dyncode_dynet::simulator::RunResult;
use dyncode_engine::{Engine, Json};
use dyncode_store::{serve_once, Store, StoreCounters};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A workload set up and ready to run passes.
pub struct Bench {
    /// The workload.
    pub workload: &'static Workload,
    /// Its campaign texts for this seed.
    pub files: Vec<(String, String)>,
    /// Expanded cells with instances (single-cell workloads).
    pub cells: Vec<PreparedCell>,
    /// Spool, artifact and store directories (spool workloads).
    pub spool: Option<Spool>,
    /// The store the next pass drains into.
    pub store: Option<Store>,
    /// The executor of the spool workloads.
    pub engine: Engine,
    /// Artifacts of the populate drain (warm) or of the first pass
    /// (cold): every later drain must reproduce them byte for byte.
    pub golden: Vec<String>,
    /// The runs recorded in `golden`, parsed once.
    golden_rows: Vec<Row>,
    /// Seconds each set-up repetition took.
    pub setup_times: Vec<f64>,
}

/// One measured pass.
pub struct Pass {
    /// Host-time readings.
    pub timing: Timing,
    /// The simulated statistics the pass produced.
    pub rows: Vec<Row>,
}

/// The host-time readings of a pass, kept once its rows are checked.
#[derive(Clone, Debug)]
pub struct Timing {
    /// Wall seconds of each segment of the pass, in order: one per run on
    /// a single-cell workload, the whole drain on a spool workload.
    pub segments: Vec<f64>,
    /// CPU seconds (user + system, all threads) of the timed region.
    pub cpu_s: f64,
}

impl Timing {
    /// Wall seconds of the whole pass.
    pub fn wall_s(&self) -> f64 {
        self.segments.iter().sum()
    }
}

/// The pass time reported as `wall_s`: per segment the first decile over
/// the passes ([`first_decile`]), summed. The runs of a pass are
/// independent and sequential, so the fastest observation of each is a
/// pass nobody disturbed — on this host slow-downs come in bursts of a
/// second or two, which cover some run of nearly every pass but rarely
/// the same run every time.
pub fn undisturbed_wall_s(passes: &[Timing]) -> f64 {
    let segments = passes.first().map_or(0, |p| p.segments.len());
    (0..segments)
        .map(|i| first_decile(&passes.iter().map(|p| p.segments[i]).collect::<Vec<_>>()))
        .sum()
}

/// CPU seconds so far; 0 where `/proc` is missing, which leaves `cpu_s`
/// at 0 rather than failing the run.
fn cpu_now() -> f64 {
    procstat::cpu_seconds().unwrap_or(0.0)
}

fn serve_failed(e: impl std::fmt::Display) -> String {
    format!("serve_once: {e}")
}

impl Bench {
    /// Sets the workload up (several times; `setup_s` is their first decile):
    /// generate the campaign texts from the seed, parse them, expand the
    /// grids, generate the instances; spool workloads also write the
    /// spool files and open the store, and the warm one populates it.
    pub fn set_up(workload: &'static Workload, seed: u64, smoke: bool) -> Result<Bench, String> {
        let engine = Engine::new(workload.threads());
        let spool = match workload.mode {
            Mode::Cells => None,
            _ => Some(Spool::create()?),
        };
        // A populate drain takes about as long as a cold pass; three of
        // those are enough. Sub-millisecond set-ups repeat for 0.25 s.
        let min_reps = if workload.mode == Mode::SpoolWarm {
            3
        } else {
            5
        };
        let budget_s = if smoke { 0.02 } else { 0.25 };
        // Only a populated store has to be emptied before the next
        // repetition; the cold set-up just writes the spool files over
        // themselves (hundreds of create/delete pairs per second are what
        // this box's ext4 journal answers with stalls).
        let clear = || {
            if let (Some(spool), Mode::SpoolWarm) = (&spool, workload.mode) {
                spool.clear();
            }
        };
        let ((files, cells, store, golden), setup_times) =
            repeat_setup(min_reps, budget_s, clear, || {
                let files = workload.campaigns(seed, smoke);
                let cells = prepare_cells(&files)?;
                let mut golden = Vec::new();
                let store = match &spool {
                    None => None,
                    Some(spool) => {
                        let store = spool.open(&files)?;
                        if workload.mode == Mode::SpoolWarm {
                            serve_once(&spool.dir, &spool.out, &engine, Some(&store), false)
                                .map_err(serve_failed)?;
                            golden = spool.artifacts(&files)?;
                        }
                        Some(store)
                    }
                };
                Ok((files, cells, store, golden))
            })?;
        Ok(Bench {
            workload,
            files,
            // The spool workloads keep the instances only as set-up cost:
            // `serve_once` generates its own.
            cells: if workload.mode == Mode::Cells {
                cells
            } else {
                Vec::new()
            },
            spool,
            store,
            engine,
            golden,
            golden_rows: Vec::new(),
            setup_times,
        })
    }

    /// The scratch directories of a spool workload.
    pub fn spool(&self) -> &Spool {
        self.spool.as_ref().expect("spool workloads have a spool")
    }

    /// Runs one untraced pass, checking what can be checked per pass.
    pub fn pass(&mut self, checks: &mut Checks) -> Result<Pass, String> {
        match self.workload.mode {
            Mode::Cells => Ok(self.cells_pass(checks)),
            Mode::SpoolCold => self.cold_pass(checks),
            Mode::SpoolWarm => self.warm_pass(checks),
        }
    }

    fn cells_pass(&self, checks: &mut Checks) -> Pass {
        let mut results: Vec<Option<RunResult>> = Vec::new();
        let mut segments = Vec::new();
        let cpu0 = cpu_now();
        for cell in &self.cells {
            for &seed in &cell.seeds {
                let t = Instant::now();
                // `run_on` panics on a violated postcondition; that is a
                // failed run, not a crashed benchmark.
                results.push(
                    catch_unwind(AssertUnwindSafe(|| cell.spec.run_on(&cell.inst, seed))).ok(),
                );
                segments.push(t.elapsed().as_secs_f64());
            }
        }
        let cpu_s = cpu_now() - cpu0;
        let mut rows = Vec::new();
        let mut results = results.into_iter();
        for cell in &self.cells {
            for &seed in &cell.seeds {
                match results.next().expect("one result per run") {
                    Some(r) => rows.push(Row::of(&cell.label, seed, &r)),
                    None => checks.check(false, || format!("{} seed {seed} panicked", cell.label)),
                }
            }
        }
        Pass {
            timing: Timing { segments, cpu_s },
            rows,
        }
    }

    fn drain(&self, checks: &mut Checks) -> Result<(Timing, Vec<String>), String> {
        let spool = self.spool();
        let cpu0 = cpu_now();
        let t = Instant::now();
        let outcomes = serve_once(
            &spool.dir,
            &spool.out,
            &self.engine,
            self.store.as_ref(),
            false,
        )
        .map_err(serve_failed)?;
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = cpu_now() - cpu0;
        checks.check(outcomes.len() == self.files.len(), || {
            format!(
                "drained {} of {} spool files",
                outcomes.len(),
                self.files.len()
            )
        });
        for o in &outcomes {
            if let Err(e) = &o.result {
                checks.check(false, || format!("{}: {e}", o.spec.display()));
            }
        }
        let timing = Timing {
            segments: vec![wall_s],
            cpu_s,
        };
        Ok((timing, spool.artifacts(&self.files)?))
    }

    /// The runs a drain recorded. Artifacts equal to the golden bytes
    /// (every drain after the first, unless something is wrong) are not
    /// parsed again: megabytes of JSON per pass would dwarf a warm drain.
    pub fn rows_of(&mut self, artifacts: &[String], checks: &mut Checks) -> Vec<Row> {
        let parse = |artifacts: &[String], checks: &mut Checks| -> Vec<Row> {
            artifacts
                .iter()
                .flat_map(|a| Row::of_artifact(a, checks))
                .collect()
        };
        if artifacts != self.golden {
            return parse(artifacts, checks);
        }
        if self.golden_rows.is_empty() {
            self.golden_rows = parse(artifacts, checks);
        }
        self.golden_rows.clone()
    }

    fn cold_pass(&mut self, checks: &mut Checks) -> Result<Pass, String> {
        let spool = self.spool();
        let store = spool.reset(&self.files)?;
        self.store = Some(store);
        let (timing, artifacts) = self.drain(checks)?;
        let counters = self
            .store
            .as_ref()
            .expect("store was just opened")
            .counters();
        if self.golden.is_empty() {
            self.golden = artifacts.clone();
        }
        checks.check(artifacts == self.golden, || {
            "cold drain artifacts differ from the first pass".into()
        });
        let rows = self.rows_of(&artifacts, checks);
        checks.check(
            counters.hits == 0 && counters.puts == rows.len() as u64,
            || format!("cold drain of {} runs saw {counters:?}", rows.len()),
        );
        Ok(Pass { timing, rows })
    }

    fn warm_pass(&mut self, checks: &mut Checks) -> Result<Pass, String> {
        let spool = self.spool();
        spool.refill(&self.files)?;
        let before = self
            .store
            .as_ref()
            .expect("warm store is populated")
            .counters();
        let (timing, artifacts) = self.drain(checks)?;
        let after = self
            .store
            .as_ref()
            .expect("warm store is populated")
            .counters();
        checks.check(artifacts == self.golden, || {
            "warm artifact bytes differ from the cold drain's".into()
        });
        for (stem, _) in &self.files {
            let path = spool.out.join(format!("BENCH_{stem}.store.json"));
            let computed = std::fs::read_to_string(&path)
                .ok()
                .and_then(|t| Json::parse(&t).ok())
                .and_then(|j| j.get("computed").and_then(Json::as_u64));
            checks.check(computed == Some(0), || {
                format!(
                    "{}: computed = {computed:?} on a warm drain",
                    path.display()
                )
            });
        }
        let rows = self.rows_of(&artifacts, checks);
        let delta = StoreCounters {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            puts: after.puts - before.puts,
        };
        checks.check(
            delta.hits == rows.len() as u64 && delta.misses == 0 && delta.puts == 0,
            || format!("warm drain of {} runs saw {delta:?}", rows.len()),
        );
        Ok(Pass { timing, rows })
    }

    /// Removes the scratch directory (call after a successful run).
    pub fn clean_up(self) {
        if let Some(spool) = self.spool {
            spool.remove();
        }
    }
}

/// Runs passes for `seconds` (at least `min_passes`) after one warm-up
/// pass that lets lazy tables and the allocator settle; every pass must
/// reproduce the warm-up pass's simulated statistics.
fn timed_passes(
    bench: &mut Bench,
    seconds: f64,
    min_passes: usize,
    checks: &mut Checks,
) -> Result<(Vec<Timing>, Vec<Row>), String> {
    let reference = bench.pass(checks)?.rows;
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || started.elapsed().as_secs_f64() < seconds {
        let pass = bench.pass(checks)?;
        checks.check(pass.rows == reference, || {
            format!(
                "pass {} is not a repeat of the warm-up pass",
                passes.len() + 1
            )
        });
        passes.push(pass.timing);
    }
    Ok((passes, reference))
}

/// The `--trace 0` run: every end-to-end metric of one workload. With
/// `expect`, a full-size run at the committed seed is held to the
/// committed statistics.
pub fn run(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    expect: bool,
) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut bench = Bench::set_up(workload, seed, smoke)?;
    let (passes, rows) = timed_passes(&mut bench, seconds, 3, &mut checks)?;
    let sim_rounds = account_runs(&rows, &mut checks);
    if expect && !smoke {
        check_expected(workload.name, seed, &rows, &mut checks);
    }
    let walls: Vec<f64> = passes.iter().map(Timing::wall_s).collect();
    eprintln!(
        "{}: {} runs, {sim_rounds} simulated rounds per pass; {} timed passes, wall {:.4} to \
         {:.4} s, median {:.4} s; {} set-ups",
        workload.name,
        rows.len(),
        passes.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        median(&walls),
        bench.setup_times.len()
    );
    let ms: Vec<String> = walls.iter().map(|w| format!("{:.1}", w * 1e3)).collect();
    eprintln!("{}: pass wall ms: {}", workload.name, ms.join(" "));
    let wall_s = undisturbed_wall_s(&passes);
    // CPU per wall second over all passes (the kernel's CPU clock ticks
    // every 10 ms, which only the sum resolves), applied to the pass time
    // reported.
    let cpu_s = wall_s * passes.iter().map(|p| p.cpu_s).sum::<f64>() / walls.iter().sum::<f64>();
    let metrics = vec![
        ("setup_s", first_decile(&bench.setup_times)),
        ("wall_s", wall_s),
        ("rounds_per_s", sim_rounds as f64 / wall_s),
        ("cpu_s", cpu_s),
        ("peak_rss_mb", procstat::peak_rss_mib().unwrap_or(0.0)),
    ];
    if checks.failed == 0 {
        bench.clean_up();
    }
    Ok(Outcome {
        metrics,
        checks,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undisturbed_wall_takes_each_segment_from_its_fastest_pass() {
        let pass = |segments: &[f64]| Timing {
            segments: segments.to_vec(),
            cpu_s: 0.0,
        };
        // A burst hit the first run of pass 1 and the second run of pass
        // 2; no whole pass was clean, the composite is.
        let passes = [pass(&[3.0, 1.0]), pass(&[1.0, 4.0]), pass(&[1.5, 1.5])];
        assert_eq!(passes[0].wall_s(), 4.0);
        assert_eq!(undisturbed_wall_s(&passes), 2.0);
        // One segment per pass (a spool drain): the first decile of passes.
        assert_eq!(
            undisturbed_wall_s(&[pass(&[2.0]), pass(&[1.2]), pass(&[1.7])]),
            1.2
        );
        assert_eq!(undisturbed_wall_s(&[]), 0.0);
    }
}
