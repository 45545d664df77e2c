//! The traced driver: the per-layer metrics. Kept apart from the
//! untraced driver because it reaches below the stable surface — it owns
//! a copy of the fast round loop and of the stored-campaign flow, written
//! against public calls (`build_fast_cell`, `Adversary::topology`,
//! `Graph::is_connected`, `CsrTopology::load`, `FastCell::*`,
//! `DeliveryModel::plan_round`, `Store::{get,put}`, `Engine::map`,
//! `Artifact::to_json_string`) with a timer between each pair. A refactor
//! of those calls needs a follow-up change here and nowhere else.
//!
//! Every traced result is checked against the untraced one (run results
//! field for field, artifacts byte for byte), so the copy cannot drift
//! from the program silently, and `trace.overhead_frac` says what the
//! timers cost.

use crate::e2e::Bench;
use crate::harness::{account_runs, Checks, Outcome, Row};
use crate::micro;
use crate::span::{self, Span, Tracer};
use crate::stats::{first_decile, percentile};
use crate::workloads::{Mode, Workload};
use dyncode_core::params::Instance;
use dyncode_core::runner::{build_fast_cell, resolve_kernel, Kernel};
use dyncode_dynet::adversary::{Adversary, KnowledgeView};
use dyncode_dynet::graph::Graph;
use dyncode_dynet::simulator::{adversary_rng, run_erased, RoundRecord, RunResult, SimConfig};
use dyncode_engine::artifact::{CellRecord, RunError, RunRecord};
use dyncode_engine::{Artifact, Campaign, CellSpec, SeedStats};
use dyncode_kernel::CsrTopology;
use dyncode_store::{campaign_digest, write_sidecar, CellKey, RunStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Work counters of the traced loop: exact functions of (spec, seed),
/// identical on every pass and every machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    runs: u64,
    rounds: u64,
    fast_rounds: u64,
    messages: u64,
    bits: u64,
    deliveries: u64,
    edges_touched: u64,
    csr_reused: u64,
    dims_gained: u64,
    sent: u64,
    delivered: u64,
    collided: u64,
    dropped: u64,
    puts: u64,
    hits: u64,
    misses: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.runs += o.runs;
        self.rounds += o.rounds;
        self.fast_rounds += o.fast_rounds;
        self.messages += o.messages;
        self.bits += o.bits;
        self.deliveries += o.deliveries;
        self.edges_touched += o.edges_touched;
        self.csr_reused += o.csr_reused;
        self.dims_gained += o.dims_gained;
        self.sent += o.sent;
        self.delivered += o.delivered;
        self.collided += o.collided;
        self.dropped += o.dropped;
        self.puts += o.puts;
        self.hits += o.hits;
        self.misses += o.misses;
    }
}

/// The phases of one fast round, in loop order. `trace.count` is the
/// harness's own bookkeeping (who spoke, how many will hear), kept out of
/// the layers' time.
const PHASES: [&str; 10] = [
    "kernel.view",
    "scenarios.topology",
    "dynet.connectivity",
    "kernel.csr_load",
    "kernel.compose",
    "trace.count",
    "delivery.plan",
    "kernel.deliver",
    "kernel.history",
    "kernel.terminate",
];
const VIEW: usize = 0;
const TOPOLOGY: usize = 1;
const CONNECTIVITY: usize = 2;
const CSR_LOAD: usize = 3;
const COMPOSE: usize = 4;
const COUNT: usize = 5;
const PLAN: usize = 6;
const DELIVER: usize = 7;
const HISTORY: usize = 8;
const TERMINATE: usize = 9;

/// Splits time at phase boundaries: each `lap` returns the nanoseconds
/// since the previous one.
struct Lap(Instant);

impl Lap {
    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = (now - self.0).as_nanos() as u64;
        self.0 = now;
        ns
    }
}

fn total_dims(view: &KnowledgeView) -> u64 {
    view.dims.iter().map(|&d| d as u64).sum()
}

fn verify_postcondition(
    cell: &CellSpec,
    completed: bool,
    view: &KnowledgeView,
    k: usize,
) -> Result<(), String> {
    if !completed {
        return Ok(());
    }
    let term = cell.protocol.termination();
    term.verify(view, k)
        .map_err(|e| format!("{} postcondition: {e}", term.name()))
}

/// The fast round loop (`dyncode_kernel::run_fast`), phase by phase.
fn fast_run(
    tr: &mut Tracer,
    cell: &CellSpec,
    inst: &Instance,
    seed: u64,
    c: &mut Counts,
) -> Result<RunResult, String> {
    let n = inst.params.n;
    let (fc, mut adversary) = tr.time("core.build_cell", |_| {
        (
            build_fast_cell(&cell.protocol, inst, cell.t),
            cell.adversary.build(cell.t),
        )
    });
    let mut fc = fc?;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut adv_rng = adversary_rng(seed);
    let mut csr = CsrTopology::new(n);
    let mut delivery = cell.delivery.model(seed);
    let mut masked = delivery.as_ref().map(|_| CsrTopology::new(n));
    let mut speaks = vec![false; n];
    let (mut total_bits, mut max_message_bits) = (0u64, 0u64);
    let mut history = Vec::new();
    let mut first_dims = None;
    let mut ns = [0u64; PHASES.len()];

    let loop_start = tr.clock();
    let mut lap = Lap(Instant::now());
    let mut round = 0usize;
    let mut completed = fc.all_done();
    ns[TERMINATE] += lap.lap();
    while !completed && round < cell.cap {
        let view = fc.view();
        ns[VIEW] += lap.lap();
        first_dims.get_or_insert_with(|| total_dims(&view));
        let graph: Graph = adversary.topology(round, &view, &mut adv_rng);
        ns[TOPOLOGY] += lap.lap();
        if graph.num_nodes() != n || !graph.is_connected() {
            return Err(format!(
                "adversary {} broke the model at round {round}",
                adversary.name()
            ));
        }
        ns[CONNECTIVITY] += lap.lap();
        csr.load(&graph);
        ns[CSR_LOAD] += lap.lap();
        let (round_bits, round_max) = fc.compose_all(round, &mut rng, None);
        total_bits += round_bits;
        max_message_bits = max_message_bits.max(round_max);
        ns[COMPOSE] += lap.lap();

        // Who spoke, and (reliable delivery) how many neighbours hear
        // each speaker. The masked path needs `speaks` for its plan, so
        // there the walk is the delivery layer's own work.
        let mut heard = 0u64;
        for (u, slot) in speaks.iter_mut().enumerate() {
            *slot = fc.spoke(u);
            if *slot {
                c.messages += 1;
                heard += csr.neighbors(u).len() as u64;
            }
        }
        c.edges_touched += csr.num_edges() as u64;
        match (&mut delivery, &mut masked) {
            (Some(model), Some(plan)) => {
                model.plan_round(&speaks, &csr);
                plan.load_plan(model.offsets(), model.senders());
                c.deliveries += model.senders().len() as u64;
                ns[PLAN] += lap.lap();
                fc.deliver_all(plan, round, &mut rng);
            }
            _ => {
                c.deliveries += heard;
                ns[COUNT] += lap.lap();
                fc.deliver_all(&csr, round, &mut rng);
            }
        }
        fc.round_end(round, &mut rng);
        ns[DELIVER] += lap.lap();
        if cell.record_history {
            let (min_dim, max_dim, total_tokens, done) = fc.history_stats();
            history.push(RoundRecord {
                round,
                edges: graph.num_edges(),
                bits: round_bits,
                min_dim,
                max_dim,
                total_tokens,
                done,
            });
            ns[HISTORY] += lap.lap();
        }

        round += 1;
        completed = fc.all_done();
        ns[TERMINATE] += lap.lap();
    }
    for (name, &dur) in PHASES.iter().zip(&ns) {
        tr.leaf(name, loop_start, dur, round as u64);
    }

    let view = tr.time("core.verify", |_| {
        let view = fc.view();
        verify_postcondition(cell, completed, &view, inst.params.k).map(|()| view)
    })?;
    c.fast_rounds += round as u64;
    c.bits += total_bits;
    c.csr_reused += csr.rounds_reused();
    c.dims_gained += total_dims(&view) - first_dims.unwrap_or_else(|| total_dims(&view));
    if let Some(model) = &delivery {
        let s = model.stats();
        if s.sent != s.delivered + s.collided + s.dropped {
            return Err(format!("delivery identity broken: {s:?}"));
        }
        c.sent += s.sent;
        c.delivered += s.delivered;
        c.collided += s.collided;
        c.dropped += s.dropped;
    }
    Ok(RunResult {
        rounds: round,
        completed,
        total_bits,
        max_message_bits,
        adversary: adversary.name(),
        history,
    })
}

/// Times every `topology` call of the adversary it wraps, so the
/// reference loop's own time is the run minus this.
struct TimedAdversary {
    inner: Box<dyn Adversary>,
    ns: u64,
    calls: u64,
}

impl Adversary for TimedAdversary {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn topology(&mut self, round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        let t = Instant::now();
        let g = self.inner.topology(round, view, rng);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        g
    }
}

/// A reference-kernel cell: `ProtocolSpec::build` + `run_erased`, the
/// route `Kernel::Auto` takes for the derandomized schedules.
fn reference_run(
    tr: &mut Tracer,
    cell: &CellSpec,
    inst: &Instance,
    seed: u64,
) -> Result<RunResult, String> {
    let (mut protocol, mut adversary) = tr.time("core.build_cell", |_| {
        (
            cell.protocol.build(inst, cell.t),
            TimedAdversary {
                inner: cell.adversary.build(cell.t),
                ns: 0,
                calls: 0,
            },
        )
    });
    let mut config = SimConfig::with_max_rounds(cell.cap);
    config.delivery = cell.delivery.clone();
    config.record_history = cell.record_history;
    let start = tr.clock();
    let r = run_erased(&mut protocol, &mut adversary, &config, seed);
    let total = tr.clock() - start;
    tr.leaf("scenarios.topology", start, adversary.ns, adversary.calls);
    tr.leaf(
        "dynet.ref_loop",
        start,
        total.saturating_sub(adversary.ns),
        r.rounds as u64,
    );
    tr.time("core.verify", |_| {
        verify_postcondition(cell, r.completed, &protocol.view(), protocol.num_tokens())
    })?;
    Ok(r)
}

/// One traced run under a `cell.run` span, on the backend `run_on` would
/// pick. A panic inside the program is a failed run, as it is untraced.
fn traced_run(
    tr: &mut Tracer,
    cell: &CellSpec,
    inst: &Instance,
    seed: u64,
    c: &mut Counts,
) -> Result<RunResult, String> {
    let span = tr.enter("cell.run");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if resolve_kernel(&cell.protocol, cell.kernel) == Kernel::Fast {
            fast_run(tr, cell, inst, seed, c)
        } else {
            reference_run(tr, cell, inst, seed)
        }
    }));
    let outcome = match outcome {
        Ok(r) => r,
        // The panic unwound past this run's open spans.
        Err(_) => return Err("the run panicked".into()),
    };
    tr.exit(span);
    if let Ok(r) = &outcome {
        c.runs += 1;
        c.rounds += r.rounds as u64;
    }
    outcome
}

/// What one traced pass produced.
struct TracedPass {
    spans: Vec<Span>,
    counts: Counts,
    /// Single-cell workloads: one row per run. Spool workloads: the rows
    /// of the artifacts.
    rows: Vec<Row>,
    artifacts: Vec<String>,
    put_ns: Vec<u64>,
    get_ns: Vec<u64>,
}

impl TracedPass {
    fn wall_s(&self) -> f64 {
        self.spans
            .first()
            .map_or(0.0, |root| root.dur_ns as f64 / 1e9)
    }
}

/// A traced pass over a single-cell workload: the set-up's steps as
/// spans, then every run through [`traced_run`].
fn cells_pass(bench: &Bench) -> Result<TracedPass, String> {
    let mut tr = Tracer::new(Instant::now());
    let mut counts = Counts::default();
    let mut rows = Vec::new();
    let root = tr.enter("pass");
    for (stem, text) in &bench.files {
        let campaign = tr
            .time("engine.campaign_parse", |_| Campaign::parse(text))
            .map_err(|e| format!("{stem}: {e}"))?;
        let cells = tr.time("engine.cells_expand", |_| campaign.cells());
        for cell in &cells {
            let inst = tr.time("core.instance", |_| cell.instance());
            let label = cell.label();
            for &seed in &campaign.seeds {
                let r = traced_run(&mut tr, cell, &inst, seed, &mut counts)
                    .map_err(|e| format!("traced {label} seed {seed}: {e}"))?;
                rows.push(Row::of(&label, seed, &r));
            }
        }
    }
    tr.exit(root);
    Ok(TracedPass {
        spans: tr.finish(),
        counts,
        rows,
        artifacts: Vec::new(),
        put_ns: Vec::new(),
        get_ns: Vec::new(),
    })
}

/// The stored-campaign flow of `serve_once` → `run_campaign_stored`,
/// step by step: claim, parse, expand, look every run up in the store,
/// compute the misses on the executor, write them back, assemble, encode
/// and write the artifact, settle the spool file.
fn traced_drain(bench: &Bench) -> Result<TracedPass, String> {
    let (spool_dir, out) = (&bench.spool().dir, &bench.spool().out);
    let store = bench.store.as_ref().expect("spool workloads have a store");
    let io = |e: std::io::Error| format!("traced drain: {e}");
    let mut tr = Tracer::new(Instant::now());
    let mut counts = Counts::default();
    let (mut put_ns, mut get_ns) = (Vec::new(), Vec::new());
    let mut artifacts = Vec::new();
    let before = store.counters();

    let root = tr.enter("store.drain");
    let claimed_dir = spool_dir.join("claimed");
    let done_dir = spool_dir.join("done");
    let specs = tr.time("store.spool_io", |_| -> std::io::Result<Vec<_>> {
        let mut specs: Vec<_> = std::fs::read_dir(spool_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_file() && p.extension().and_then(|e| e.to_str()) == Some("camp"))
            .collect();
        specs.sort();
        std::fs::create_dir_all(&claimed_dir)?;
        std::fs::create_dir_all(&done_dir)?;
        Ok(specs)
    });
    for spec in specs.map_err(io)? {
        let name = spec.file_name().expect("spool entries have a file name");
        let claimed = claimed_dir.join(name);
        let text = tr
            .time("store.spool_io", |_| {
                std::fs::rename(&spec, &claimed)?;
                std::fs::read_to_string(&claimed)
            })
            .map_err(io)?;
        let campaign = tr
            .time("engine.campaign_parse", |_| Campaign::parse(&text))
            .map_err(|e| format!("{}: {e}", spec.display()))?;
        let digest = tr.time("store.campaign_digest", |_| campaign_digest(&campaign));
        let cells = tr.time("engine.cells_expand", |_| campaign.cells());

        // Store lookups, one per run; misses become jobs.
        let mut slots: Vec<Vec<Option<RunResult>>> = Vec::new();
        let mut keys: Vec<Vec<CellKey>> = Vec::new();
        let mut jobs: Vec<(usize, usize)> = Vec::new();
        let lookups = tr.clock();
        let (mut key_total, mut get_total) = (0u64, 0u64);
        for (ci, cell) in cells.iter().enumerate() {
            let (mut cell_slots, mut cell_keys) = (Vec::new(), Vec::new());
            for (si, &seed) in campaign.seeds.iter().enumerate() {
                let mut lap = Lap(Instant::now());
                let key = CellKey::new(cell, seed);
                key_total += lap.lap();
                let found = store.get(&key);
                let ns = lap.lap();
                get_total += ns;
                get_ns.push(ns);
                if found.is_none() {
                    jobs.push((ci, si));
                }
                cell_slots.push(found);
                cell_keys.push(key);
            }
            slots.push(cell_slots);
            keys.push(cell_keys);
        }
        let lookup_count = (cells.len() * campaign.seeds.len()) as u64;
        tr.leaf("store.key_digest", lookups, key_total, lookup_count);
        tr.leaf("store.get", lookups, get_total, lookup_count);

        let instances: Vec<Option<Instance>> = tr.time("core.instance", |_| {
            cells
                .iter()
                .enumerate()
                .map(|(ci, cell)| jobs.iter().any(|&(j, _)| j == ci).then(|| cell.instance()))
                .collect()
        });

        // Each job records into a tracer of its own (same epoch).
        let map = tr.enter("engine.executor_map");
        tr.set_lanes(bench.engine.threads() as u32);
        let epoch = tr.epoch();
        let closures: Vec<_> = jobs
            .iter()
            .map(|&(ci, si)| {
                let (cell, seed) = (&cells[ci], campaign.seeds[si]);
                let inst = instances[ci]
                    .as_ref()
                    .expect("instance generated for every job");
                move || {
                    let mut worker = Tracer::new(epoch);
                    let mut c = Counts::default();
                    let r = traced_run(&mut worker, cell, inst, seed, &mut c);
                    // A failed run leaves spans open; drop them.
                    let spans = if r.is_ok() {
                        worker.finish()
                    } else {
                        Vec::new()
                    };
                    (r, spans, c)
                }
            })
            .collect();
        let outcomes = bench.engine.map(closures);
        tr.exit(map);
        // Adopt after the map closed: re-parent the job spans under it.
        let mut errors: Vec<((usize, usize), String)> = Vec::new();
        let mut computed: Vec<((usize, usize), RunResult)> = Vec::new();
        for (&slot, outcome) in jobs.iter().zip(outcomes) {
            match outcome {
                Ok((Ok(r), spans, c)) => {
                    tr.adopt(map, spans);
                    counts.add(&c);
                    computed.push((slot, r));
                }
                Ok((Err(e), _, _)) => errors.push((slot, e)),
                Err(e) => errors.push((slot, e.message)),
            }
        }

        let puts = tr.clock();
        let mut put_total = 0u64;
        for ((ci, si), r) in computed {
            let t = Instant::now();
            store.put(&keys[ci][si], &r).map_err(io)?;
            let ns = t.elapsed().as_nanos() as u64;
            put_total += ns;
            put_ns.push(ns);
            slots[ci][si] = Some(r);
        }
        tr.leaf("store.put", puts, put_total, put_ns.len() as u64);

        let artifact = tr.time("engine.artifact_assemble", |_| {
            let mut artifact = Artifact::new(campaign.id.clone(), campaign.title.clone());
            artifact.campaign_digest = Some(digest.clone());
            for (ci, (cell, cell_slots)) in cells.iter().zip(&slots).enumerate() {
                let (mut runs, mut raw, mut errs) = (Vec::new(), Vec::new(), Vec::new());
                for (si, (&seed, slot)) in campaign.seeds.iter().zip(cell_slots).enumerate() {
                    match slot {
                        Some(r) => {
                            runs.push(RunRecord::from_run(seed, r));
                            raw.push(r.clone());
                        }
                        None => errs.push(RunError {
                            seed,
                            message: errors
                                .iter()
                                .find(|(s, _)| *s == (ci, si))
                                .map_or("run did not execute".into(), |(_, m)| m.clone()),
                        }),
                    }
                }
                artifact.cells.push(CellRecord {
                    label: cell.label(),
                    meta: cell.meta(),
                    stats: SeedStats::from_runs(&raw, errs.len()),
                    runs,
                    errors: errs,
                });
            }
            artifact
        });
        let encoded = tr.time("engine.artifact_encode", |_| artifact.to_json_string());
        tr.time("engine.artifact_write", |_| -> std::io::Result<()> {
            std::fs::create_dir_all(out)?;
            std::fs::write(out.join(artifact.file_name()), &encoded)?;
            let stats = RunStats {
                cells: cells.len(),
                seed_runs: lookup_count as usize,
                computed: jobs.len(),
                store_hits: lookup_count as usize - jobs.len(),
                ..RunStats::default()
            };
            write_sidecar(out, &artifact.id, &digest, &stats).map(|_| ())
        })
        .map_err(io)?;
        tr.time("store.spool_io", |_| {
            std::fs::rename(&claimed, done_dir.join(name))
        })
        .map_err(io)?;
        artifacts.push(encoded);
    }
    tr.exit(root);

    let after = store.counters();
    counts.puts = after.puts - before.puts;
    counts.hits = after.hits - before.hits;
    counts.misses = after.misses - before.misses;
    Ok(TracedPass {
        spans: tr.finish(),
        counts,
        rows: Vec::new(),
        artifacts,
        put_ns,
        get_ns,
    })
}

/// A traced pass over a spool workload, on the untraced passes' spool.
fn spool_pass(bench: &mut Bench, checks: &mut Checks) -> Result<TracedPass, String> {
    if bench.workload.mode == Mode::SpoolCold {
        let store = bench.spool().reset(&bench.files)?;
        bench.store = Some(store);
    } else {
        bench.spool().refill(&bench.files)?;
    }
    let mut pass = traced_drain(bench)?;
    checks.check(pass.artifacts == bench.golden, || {
        "traced drain artifacts differ from serve_once's".into()
    });
    pass.rows = bench.rows_of(&pass.artifacts, checks);
    // The golden bytes are already held once.
    pass.artifacts = Vec::new();
    Ok(pass)
}

/// An untraced cold pass with the program's own telemetry switched on
/// (`JsonlSink` + metrics snapshot): what `--events` costs. The pass's
/// own check holds the artifacts to the golden bytes.
fn obs_pass(bench: &mut Bench, checks: &mut Checks) -> Result<f64, String> {
    let events = bench.spool().join("obs-events.jsonl");
    let metrics = bench.spool().join("obs-metrics.json");
    let session = dyncode_obs::Session::start(Some(&events), Some(&metrics))
        .map_err(|e| format!("{}: {e}", events.display()))?;
    let pass = bench.pass(checks);
    drop(session);
    Ok(pass?.timing.wall_s())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `--trace 1` run: every per-layer metric of one workload. Untraced
/// and traced passes alternate for `seconds`, so both see the same
/// machine state and their ratio is the tracing overhead.
pub fn run(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    trace_out: Option<&Path>,
) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut bench = Bench::set_up(workload, seed, smoke)?;
    let spool = workload.mode != Mode::Cells;
    let with_obs = workload.mode == Mode::SpoolCold;

    // Warm-up: lazy tables, the allocator, and (cold) the golden bytes.
    let reference = bench.pass(&mut checks)?.rows;
    let mut untraced: Vec<f64> = Vec::new();
    let mut obs_on: Vec<f64> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let started = Instant::now();
    while traced.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let u = bench.pass(&mut checks)?;
        checks.check(u.rows == reference, || {
            "an untraced pass is not a repeat".into()
        });
        untraced.push(u.timing.wall_s());
        let t = if spool {
            spool_pass(&mut bench, &mut checks)?
        } else {
            cells_pass(&bench)?
        };
        checks.check(t.rows == reference, || {
            "traced run results differ from CellSpec::run_on's".into()
        });
        checks.check(traced.first().is_none_or(|f| f.counts == t.counts), || {
            format!("work counters changed between passes: {:?}", t.counts)
        });
        traced.push(t);
        if with_obs {
            obs_on.push(obs_pass(&mut bench, &mut checks)?);
        }
    }
    let sim_rounds = account_runs(&reference, &mut checks);
    let c = traced[0].counts;
    // A warm drain computes nothing, so there is nothing to count.
    checks.check(
        workload.mode == Mode::SpoolWarm
            || (c.rounds == sim_rounds && c.runs == reference.len() as u64),
        || {
            format!(
                "traced {} rounds in {} runs, untraced {sim_rounds}",
                c.rounds, c.runs
            )
        },
    );

    // The layers' times all come from one traced pass, so that they add
    // up to its wall time: the pass at the first decile (see
    // `stats::first_decile`), the statistic `wall_s` itself reports.
    let traced_walls: Vec<f64> = traced.iter().map(TracedPass::wall_s).collect();
    let traced_wall = first_decile(&traced_walls);
    let typical = traced
        .iter()
        .find(|p| p.wall_s() == traced_wall)
        .expect("the first decile is one of the passes");
    let sec = |name: &str| span::seconds(&typical.spans, name);
    let untraced_wall = first_decile(&untraced);
    // On the cold spool every `cell.run` is an executor job.
    let busy = ratio(
        if spool { sec("cell.run") } else { 0.0 },
        workload.threads() as f64 * sec("engine.executor_map"),
    );
    let micros =
        |ns: &mut dyn Iterator<Item = &u64>| -> Vec<f64> { ns.map(|&x| x as f64 / 1e3).collect() };
    let put_us = micros(&mut traced.iter().flat_map(|t| &t.put_ns));
    let get_us = micros(&mut traced.iter().flat_map(|t| &t.get_ns));
    let parse_times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for a in &bench.golden {
                std::hint::black_box(Artifact::parse(a).is_ok());
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    let bytes_on_disk = match &bench.store {
        Some(store) => {
            store
                .stats()
                .map_err(|e| format!("store stats: {e}"))?
                .bytes as f64
        }
        None => 0.0,
    };

    let f = |x: u64| x as f64;
    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("core.instance_generate_s", sec("core.instance")),
        ("core.build_cell_s", sec("core.build_cell")),
        ("scenarios.topology_s", sec("scenarios.topology")),
        (
            "scenarios.topology_us_per_round",
            ratio(sec("scenarios.topology") * 1e6, f(c.rounds)),
        ),
        ("dynet.connectivity_s", sec("dynet.connectivity")),
        ("dynet.ref_loop_s", sec("dynet.ref_loop")),
        ("kernel.view_s", sec("kernel.view")),
        ("kernel.csr_load_s", sec("kernel.csr_load")),
        (
            "kernel.csr_reuse_ratio",
            ratio(f(c.csr_reused), f(c.fast_rounds)),
        ),
        ("kernel.edges_touched", f(c.edges_touched)),
        ("kernel.compose_s", sec("kernel.compose")),
        (
            "kernel.compose_ns_per_msg",
            ratio(sec("kernel.compose") * 1e9, f(c.messages)),
        ),
        ("kernel.messages", f(c.messages)),
        ("kernel.bits", f(c.bits)),
        ("kernel.deliver_s", sec("kernel.deliver")),
        (
            "kernel.deliver_ns_per_delivery",
            ratio(sec("kernel.deliver") * 1e9, f(c.deliveries)),
        ),
        ("kernel.deliveries", f(c.deliveries)),
        (
            "kernel.innovative_ratio",
            ratio(f(c.dims_gained), f(c.deliveries)),
        ),
        ("kernel.terminate_s", sec("kernel.terminate")),
        ("kernel.rounds", f(c.fast_rounds)),
        ("delivery.plan_s", sec("delivery.plan")),
        ("delivery.sent", f(c.sent)),
        ("delivery.delivered", f(c.delivered)),
        ("delivery.collided", f(c.collided)),
        ("delivery.dropped", f(c.dropped)),
        ("delivery.heard_ratio", ratio(f(c.delivered), f(c.sent))),
        ("engine.campaign_parse_s", sec("engine.campaign_parse")),
        ("engine.cells_expand_s", sec("engine.cells_expand")),
        ("engine.executor_busy_frac", busy),
        ("engine.artifact_encode_s", sec("engine.artifact_encode")),
        (
            "engine.artifact_parse_s",
            if spool {
                first_decile(&parse_times)
            } else {
                0.0
            },
        ),
        (
            "engine.artifact_bytes",
            bench.golden.iter().map(String::len).sum::<usize>() as f64,
        ),
        ("store.put_us_p50", percentile(&put_us, 0.5)),
        ("store.put_us_p99", percentile(&put_us, 0.99)),
        ("store.puts", f(c.puts)),
        ("store.bytes_on_disk", bytes_on_disk),
        ("store.get_us_p50", percentile(&get_us, 0.5)),
        ("store.get_us_p99", percentile(&get_us, 0.99)),
        ("store.hits", f(c.hits)),
        ("store.misses", f(c.misses)),
        ("store.hit_ratio", ratio(f(c.hits), f(c.hits + c.misses))),
        (
            "store.serve_once_s",
            if spool { untraced_wall } else { 0.0 },
        ),
        (
            "obs.sink_overhead_frac",
            if with_obs {
                first_decile(&obs_on) / untraced_wall - 1.0
            } else {
                0.0
            },
        ),
        ("trace.overhead_frac", traced_wall / untraced_wall - 1.0),
        ("sim.rounds", f(sim_rounds)),
        ("sim.runs", reference.len() as f64),
        ("harness.passes", untraced.len() as f64),
        (
            "harness.wall_min_s",
            untraced.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        (
            "harness.wall_max_s",
            untraced.iter().copied().fold(0.0, f64::max),
        ),
    ];
    let first_cell = Campaign::parse(&bench.files[0].1)?.cells().remove(0);
    let p = first_cell.params;
    metrics.extend(micro::run(p.n, p.k, &first_cell, workload.threads()));

    eprintln!(
        "{}: {} untraced / {} traced passes, {:.4} s / {:.4} s; self time of the \
         typical traced pass:",
        workload.name,
        untraced.len(),
        traced.len(),
        untraced_wall,
        traced_wall
    );
    let root_ns = typical.spans[0].dur_ns.max(1) as f64;
    for (name, ns) in span::self_by_name(&typical.spans).iter().take(12) {
        eprintln!("  {:>6.2} %  {name}", 100.0 * *ns as f64 / root_ns);
    }
    if let Some(path) = trace_out {
        std::fs::write(path, span::to_jsonl(&typical.spans, 0))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if checks.failed == 0 {
        bench.clean_up();
    }
    Ok(Outcome {
        metrics,
        checks,
        rows: reference,
    })
}
