//! The experiments binary: regenerates every theorem/claim of the paper
//! as a measured markdown table, running every sweep through the
//! `dyncode-engine` campaign engine.
//!
//! ```sh
//! cargo run -p dyncode-bench --release -- all
//! cargo run -p dyncode-bench --release -- e2 e7 --threads 8
//! cargo run -p dyncode-bench --release -- e1 e4 --quick --json --out artifacts
//! cargo run -p dyncode-bench --release -- compare baselines/BENCH_seed.json artifacts/BENCH_e1.json
//! cargo run -p dyncode-bench --release -- schema artifacts/BENCH_e1.json
//! ```
//!
//! Exit codes: 0 success, 1 failed experiment or regression, 2 usage
//! error (including unknown experiment ids, which print the registry).

use dyncode_bench::cli::{
    apply_log_level, parse_flags, parse_or_usage, print_protocol_registry, print_registry_listing,
    print_usage, print_usage_and_registry, start_obs_session, COMPARE, EXPERIMENTS, SCHEMA, TRACE,
};
use dyncode_bench::ctx::ExpCtx;
use dyncode_bench::obs_cmd;
use dyncode_bench::orchestrate;
use dyncode_bench::registry;
use dyncode_core::params::{Params, Placement};
use dyncode_core::spec::ProtocolSpec;
use dyncode_engine::{compare, Artifact, CellSpec, CompareConfig, DeliverySpec, Kernel};
use dyncode_obs::{obs_error, obs_info};
use dyncode_scenarios::{record_scenario_to_file, DctHeader, DctReader, ScenarioKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("schema") => cmd_schema(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("campaign") => orchestrate::cmd_campaign(&args[1..]),
        Some("merge") => orchestrate::cmd_merge(&args[1..]),
        Some("serve") => orchestrate::cmd_serve(&args[1..]),
        Some("store") => orchestrate::cmd_store(&args[1..]),
        Some("obs") => obs_cmd::cmd_obs(&args[1..]),
        Some("protocols") => {
            print_protocol_registry();
            0
        }
        _ => cmd_experiments(&args),
    }
}

fn cmd_experiments(args: &[String]) -> i32 {
    let flags = match parse_flags(&EXPERIMENTS, args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n");
            print_usage_and_registry();
            return 2;
        }
    };
    apply_log_level(&flags);
    let wanted = &flags.positional;

    let reg = registry();
    if flags.list {
        // The machine-friendlier registry listing (with each
        // experiment's protocol column), on stdout.
        print_registry_listing();
        return 0;
    }
    if wanted.is_empty() || wanted.iter().any(|w| w == "help") {
        print_usage_and_registry();
        return if wanted.is_empty() { 2 } else { 0 };
    }

    // Unknown ids are hard errors: exit nonzero and print the registry
    // (a typo must never silently run nothing — or everything but the
    // typo'd experiment).
    let unknown: Vec<&String> = wanted
        .iter()
        .filter(|w| w.as_str() != "all" && !reg.iter().any(|(id, _, _, _)| *id == w.as_str()))
        .collect();
    if !unknown.is_empty() {
        eprintln!("error: unknown experiment id(s) {unknown:?}\n");
        print_usage_and_registry();
        return 2;
    }

    let _obs = match start_obs_session(&flags) {
        Ok(session) => session,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    let run_all = wanted.iter().any(|w| w == "all");
    // `--out DIR` implies `--json` — asking for an output directory and
    // getting no artifacts would be a silent no-op.
    let emit = flags.json || flags.out.is_some();
    let out_dir = emit.then(|| flags.out.clone().unwrap_or_else(|| PathBuf::from(".")));
    let mut ctx = ExpCtx::new(flags.quick, flags.threads, out_dir);
    obs_info!(
        "[engine: {} thread{}{}]",
        ctx.threads(),
        if ctx.threads() == 1 { "" } else { "s" },
        if emit { ", emitting artifacts" } else { "" }
    );
    let mut failed = 0;
    for (id, desc, _, f) in &reg {
        if run_all || wanted.iter().any(|w| w == *id) {
            obs_info!(
                "[running {id}: {desc}{}]",
                if flags.quick { " (quick)" } else { "" }
            );
            ctx.begin(id, desc);
            // Contain a failing experiment: record it, keep the partial
            // artifact (which includes any per-cell errors the executor
            // contained), and carry on with the remaining experiments.
            let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
            match ctx.finish() {
                Ok(Some(path)) => obs_info!("[wrote {}]", path.display()),
                Ok(None) => {}
                Err(e) => {
                    obs_error!("[experiment {id} FAILED: cannot write artifact: {e}]");
                    failed += 1;
                }
            }
            if let Err(payload) = outcome {
                let msg = dyncode_engine::CellError::from_panic(payload).message;
                obs_error!("[experiment {id} FAILED: {msg}]");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        obs_error!("{failed} experiment(s) failed");
        return 1;
    }
    0
}

fn cmd_compare(args: &[String]) -> i32 {
    let flags = match parse_or_usage(&COMPARE, args) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let [base_path, cand_path] = flags.positional.as_slice() else {
        print_usage(&COMPARE);
        return 2;
    };
    let load = |path: &String| -> Result<Artifact, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Artifact::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, cand) = match (load(base_path), load(cand_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let tol = flags.tol.unwrap_or(CompareConfig::default().tol);
    let report = compare(&base, &cand, &CompareConfig { tol });
    print!("{}", report.render());
    if report.ok() {
        0
    } else {
        1
    }
}

fn cmd_schema(args: &[String]) -> i32 {
    let flags = match parse_or_usage(&SCHEMA, args) {
        Ok(f) => f,
        Err(code) => return code,
    };
    if flags.positional.is_empty() {
        print_usage(&SCHEMA);
        return 2;
    }
    let mut bad = 0;
    for path in &flags.positional {
        let validated = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Artifact::parse(&text))
            .map(|a| {
                format!(
                    "OK (id {:?}, {} cells, {} fits, {} scalars, {} tables)",
                    a.id,
                    a.cells.len(),
                    a.fits.len(),
                    a.scalars.len(),
                    a.tables.len()
                )
            });
        match validated {
            Ok(line) => println!("{path}: {line}"),
            Err(e) => {
                println!("{path}: INVALID: {e}");
                bad += 1;
            }
        }
    }
    if bad > 0 {
        1
    } else {
        0
    }
}

/// What one streaming pass over a `.dct` file finds: its header and the
/// size statistics of the live edge set.
struct TraceScan {
    header: DctHeader,
    total_flips: u64,
    edge_sum: u64,
    min_edges: u64,
    max_edges: u64,
}

/// Decodes every frame of the trace at `path`, which validates it (flip
/// ids in range and ascending, no frame cut short). Holds only the
/// current edge set — nothing is sized by the header's n.
fn scan_trace(path: &str) -> Result<TraceScan, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut reader = DctReader::new(std::io::BufReader::new(file))
        .map_err(|e| format!("{path} is not a valid .dct trace: {e}"))?;
    let mut scan = TraceScan {
        header: *reader.header(),
        total_flips: 0,
        edge_sum: 0,
        min_edges: u64::MAX,
        max_edges: 0,
    };
    loop {
        match reader.next_flips() {
            Ok(None) => return Ok(scan),
            Ok(Some(flips)) => {
                scan.total_flips += flips.len() as u64;
                let e = reader.num_edges() as u64;
                scan.edge_sum += e;
                scan.min_edges = scan.min_edges.min(e);
                scan.max_edges = scan.max_edges.max(e);
            }
            Err(e) => {
                return Err(format!(
                    "{path} is corrupt at round {}: {e}",
                    reader.consumed()
                ))
            }
        }
    }
}

/// Can a run be driven by the scanned trace? Beyond decoding cleanly it
/// needs a node, a round, and in every round at least the n − 1 edges a
/// connected graph has (the driver rejects a disconnected round by
/// panicking; this catches the cheap-to-see cases first).
fn replayable(path: &str, scan: &TraceScan) -> Result<DctHeader, String> {
    let header = scan.header;
    if header.n == 0 {
        return Err(format!("{path} has n = 0 nodes"));
    }
    if header.rounds == 0 {
        return Err(format!("{path} records no rounds"));
    }
    let need = header.n as u64 - 1;
    if scan.min_edges < need {
        return Err(format!(
            "{path} has a round with {} edges; a connected graph on n = {} nodes needs at \
             least {need}",
            scan.min_edges, header.n
        ));
    }
    Ok(header)
}

/// The `.dct` toolbox: produce and inspect topology traces without
/// writing code.
///
/// * `trace record <PATH> <SCENARIO> <N> <ROUNDS> [SEED]` — drive a
///   scenario model for `ROUNDS` rounds and stream the schedule to disk.
/// * `trace info <PATH>` — header + streaming stats (flips, edge counts).
/// * `trace replay <PATH> [PROTOCOL] [SEED] [--kernel K]` — run a
///   protocol against the recorded schedule and report the `RunResult`.
fn cmd_trace(raw_args: &[String]) -> i32 {
    let usage = || -> i32 {
        print_usage(&TRACE);
        eprintln!("\nscenarios: any adversary spec (see `experiments protocols`)");
        eprintln!("protocols: any registry spec (see `experiments protocols`)");
        eprintln!("kernels:   reference (default) | fast | auto");
        2
    };
    let flags = match parse_or_usage(&TRACE, raw_args) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let args = &flags.positional;
    if flags.kernel.is_some() && args.first().map(String::as_str) != Some("replay") {
        eprintln!("error: --kernel is not valid for trace record/info");
        return 2;
    }
    match args.first().map(String::as_str) {
        Some("record") => {
            let (Some(path), Some(spec), Some(n_raw), Some(rounds_raw)) =
                (args.get(1), args.get(2), args.get(3), args.get(4))
            else {
                return usage();
            };
            let scenario = match ScenarioKind::parse(spec) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            let (Ok(n), Ok(rounds)) = (n_raw.parse::<usize>(), rounds_raw.parse::<usize>()) else {
                eprintln!("error: N and ROUNDS must be integers");
                return 2;
            };
            if n == 0 || rounds == 0 {
                eprintln!("error: N and ROUNDS must be positive");
                return 2;
            }
            let seed = match args.get(5).map(|s| s.parse::<u64>()) {
                None => 1,
                Some(Ok(s)) => s,
                Some(Err(_)) => {
                    eprintln!("error: bad SEED");
                    return 2;
                }
            };
            match record_scenario_to_file(&scenario, n, rounds, seed, path) {
                Ok(header) => {
                    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                    println!(
                        "wrote {path}: {} on n={} for {} rounds (seed {}), {bytes} bytes \
                         ({:.2} bytes/round)",
                        scenario.name(),
                        header.n,
                        header.rounds,
                        header.seed,
                        (bytes.saturating_sub(24)) as f64 / rounds as f64
                    );
                    0
                }
                Err(e) => {
                    eprintln!("error: cannot record {path}: {e}");
                    1
                }
            }
        }
        Some("info") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let scan = match scan_trace(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            let header = scan.header;
            let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            println!("{path}: dyncode .dct trace");
            println!("  n           {}", header.n);
            println!("  rounds      {}", header.rounds);
            println!("  seed        {}", header.seed);
            println!(
                "  bytes       {bytes} ({:.2}/round)",
                (bytes.saturating_sub(24)) as f64 / header.rounds.max(1) as f64
            );
            println!("  edge flips  {} total", scan.total_flips);
            if header.rounds > 0 {
                println!(
                    "  edges       min {}, mean {:.1}, max {}",
                    scan.min_edges,
                    scan.edge_sum as f64 / header.rounds as f64,
                    scan.max_edges
                );
            }
            0
        }
        Some("replay") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let protocol = match args.get(2).map(String::as_str) {
                None => ProtocolSpec::TokenForwarding,
                Some(p) => match ProtocolSpec::parse(p) {
                    Ok(k) => k,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 2;
                    }
                },
            };
            let seed = match args.get(3).map(|s| s.parse::<u64>()) {
                None => 1,
                Some(Ok(s)) => s,
                Some(Err(_)) => {
                    eprintln!("error: bad SEED");
                    return 2;
                }
            };
            let kernel = flags.kernel.unwrap_or(Kernel::Reference);
            // An explicit `--kernel fast` on an ineligible spec would
            // panic inside the cell; report the mismatch as a usage error
            // up front (`--kernel auto` falls back per spec).
            if kernel == Kernel::Fast {
                if let Some(why) = dyncode_core::runner::fast_ineligibility(&protocol) {
                    eprintln!("error: --kernel fast: {why}");
                    return 2;
                }
            }
            // Validate the whole file before anything is sized by its
            // header: past this point a malformed trace could only
            // surface as a panic inside the cell (or, for a huge n, as a
            // failed allocation).
            let header = match scan_trace(path).and_then(|scan| replayable(path, &scan)) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("error: cannot replay: {e}");
                    return 1;
                }
            };
            let n = header.n;
            let d = dyncode_bench::experiments::d_for(n);
            let cell = CellSpec {
                params: Params::new(n, n, d, 2 * d),
                t: 1,
                adversary: ScenarioKind::Trace { path: path.clone() },
                placement: Placement::OneTokenPerNode,
                protocol: protocol.clone(),
                cap: 60 * n * n,
                instance_seed: 42,
                kernel,
                record_history: false,
                delivery: DeliverySpec::Reliable,
            };
            let r = cell.run(seed);
            println!(
                "replayed {path} (n={n}, {} recorded rounds, cycling) with {protocol} \
                 from seed {seed} on the {kernel} kernel:",
                header.rounds
            );
            println!(
                "  rounds {}, completed {}, total bits {}, max message {} bits",
                r.rounds, r.completed, r.total_bits, r.max_message_bits
            );
            if r.completed {
                0
            } else {
                eprintln!("run did NOT complete within the {} round cap", cell.cap);
                1
            }
        }
        _ => usage(),
    }
}
