//! Argument handling for the `experiments` binary: the shared flag
//! parser, each subcommand's flag allowlist and usage text, and the
//! registry printouts — extracted from `main.rs` so flag parsing is
//! unit-testable and every subcommand shares one grammar.
//!
//! Exit-code convention (enforced by `main.rs`): 0 success, 1 failed
//! experiment or regression, 2 usage error. Parse errors from this module
//! are printed verbatim on the exit-2 path, so they carry everything the
//! user needs (offending flag/value, and — for campaign/protocol specs —
//! the enumerated valid names from the registry parsers).

use crate::registry;
use dyncode_core::spec;
use dyncode_engine::{delivery_registry, Engine, Kernel, Shard};
use std::path::PathBuf;

/// A subcommand as the flag parser sees it. A flag the parser knows but
/// `flags` does not list is an error naming the subcommand — never
/// silently ignored — so accepting a flag somewhere is one edit here.
pub struct Cmd {
    /// What `<flag> is not valid for <name>` prints.
    name: &'static str,
    /// The usage text after `usage: ` (continuation lines unindented).
    usage: &'static str,
    /// Accepted flags; `--quiet`/`--verbose` are valid everywhere.
    flags: &'static [&'static str],
}

/// `experiments <id>...` and `--list`.
pub const EXPERIMENTS: Cmd = Cmd {
    name: "experiment runs",
    usage: "experiments <all | e1 .. e23>... [--quick] [--threads N] [--json] [--out DIR]\n\
            \x20           [--events PATH] [--metrics PATH]\n\
            experiments --list",
    flags: &[
        "--quick",
        "--json",
        "--list",
        "--threads",
        "--out",
        "--events",
        "--metrics",
    ],
};

/// `experiments compare`.
pub const COMPARE: Cmd = Cmd {
    name: "compare",
    usage: "experiments compare <BASE.json> <CANDIDATE.json> [--tol F]",
    flags: &["--tol"],
};

/// `experiments schema`.
pub const SCHEMA: Cmd = Cmd {
    name: "schema",
    usage: "experiments schema <FILE.json>...",
    flags: &[],
};

/// `experiments trace`; `--kernel` belongs to `replay` alone, which
/// `main.rs` checks once the action is known.
pub const TRACE: Cmd = Cmd {
    name: "trace",
    usage: "experiments trace record <PATH.dct> <SCENARIO> <N> <ROUNDS> [SEED]\n\
            experiments trace info <PATH.dct>\n\
            experiments trace replay <PATH.dct> [PROTOCOL] [SEED] [--kernel K]",
    flags: &["--kernel"],
};

/// `experiments campaign` (the spec's `kernel =` key selects the backend).
pub const CAMPAIGN: Cmd = Cmd {
    name: "campaign",
    usage: "experiments campaign <SPEC.camp> [--quick] [--threads N] [--json] [--out DIR]\n\
            \x20           [--shard I/K] [--store DIR] [--resume] [--events PATH] [--metrics PATH]",
    flags: &[
        "--quick",
        "--threads",
        "--json",
        "--out",
        "--shard",
        "--store",
        "--resume",
        "--events",
        "--metrics",
    ],
};

/// `experiments merge`.
pub const MERGE: Cmd = Cmd {
    name: "merge",
    usage: "experiments merge <SHARD.json>... [--out DIR]",
    flags: &["--out"],
};

/// `experiments serve`.
pub const SERVE: Cmd = Cmd {
    name: "serve",
    usage: "experiments serve <SPOOL> [--once] [--quick] [--threads N] [--out DIR] [--store DIR]\n\
            \x20           [--events PATH] [--metrics PATH]",
    flags: &[
        "--once",
        "--quick",
        "--threads",
        "--out",
        "--store",
        "--events",
        "--metrics",
    ],
};

/// `experiments store`; `--max-bytes` belongs to `gc` alone, which
/// `orchestrate.rs` checks once the action is known.
pub const STORE: Cmd = Cmd {
    name: "store",
    usage: "experiments store <stats | gc --max-bytes N | pin DIGEST...> --store DIR",
    flags: &["--store", "--max-bytes"],
};

/// Every flag-parsing subcommand, in usage order.
const COMMANDS: [&Cmd; 8] = [
    &EXPERIMENTS,
    &COMPARE,
    &SCHEMA,
    &TRACE,
    &CAMPAIGN,
    &MERGE,
    &SERVE,
    &STORE,
];

/// Parsed common flags; leftover positional arguments are returned.
/// `out`/`tol` stay `None` unless explicitly passed so a subcommand can
/// tell "absent" from its own default.
#[derive(Debug)]
pub struct Flags {
    /// Quick-profile sweeps (CI-sized).
    pub quick: bool,
    /// Emit `BENCH_<id>.json` artifacts.
    pub json: bool,
    /// Print the registry listing instead of running.
    pub list: bool,
    /// Engine worker count.
    pub threads: usize,
    /// Artifact output directory (implies `json`).
    pub out: Option<PathBuf>,
    /// Relative tolerance for `compare`.
    pub tol: Option<f64>,
    /// Execution backend override (`--kernel reference|fast|auto`) for
    /// `trace replay`.
    pub kernel: Option<Kernel>,
    /// Campaign slice (`--shard I/K`) for the `campaign` subcommand.
    pub shard: Option<Shard>,
    /// Result-store directory (`--store DIR`) for `campaign`/`serve`/`store`.
    pub store: Option<PathBuf>,
    /// Re-open a partial artifact and execute only missing cells.
    pub resume: bool,
    /// Drain the serve spool once instead of looping.
    pub once: bool,
    /// Store size budget (`store gc --max-bytes N`).
    pub max_bytes: Option<u64>,
    /// Telemetry event stream path (`--events PATH`, JSONL) for the
    /// subcommands that run cells.
    pub events: Option<PathBuf>,
    /// Final metrics snapshot path (`--metrics PATH`).
    pub metrics: Option<PathBuf>,
    /// Suppress progress lines (errors only).
    pub quiet: bool,
    /// Show debug-level detail lines.
    pub verbose: bool,
    /// Non-flag arguments, in order.
    pub positional: Vec<String>,
}

/// Parses the shared flag grammar for `cmd`. Unknown `--flags`, flags
/// outside `cmd`'s allowlist and missing/bad values are errors;
/// positional arguments pass through untouched.
pub fn parse_flags(cmd: &Cmd, args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        quick: false,
        json: false,
        list: false,
        threads: Engine::with_default_parallelism().threads(),
        out: None,
        tol: None,
        kernel: None,
        shard: None,
        store: None,
        resume: false,
        once: false,
        max_bytes: None,
        events: None,
        metrics: None,
        quiet: false,
        verbose: false,
        positional: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            flags.positional.push(a.clone());
            continue;
        }
        let mut value_of = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} requires a value"))
        };
        match a.as_str() {
            "--quick" => flags.quick = true,
            "--json" => flags.json = true,
            "--list" => flags.list = true,
            "--threads" => {
                let v = value_of("--threads")?;
                flags.threads = v
                    .parse::<usize>()
                    .map_err(|_| format!("bad --threads value {v:?}"))?
                    .max(1);
            }
            "--out" => flags.out = Some(PathBuf::from(value_of("--out")?)),
            "--tol" => {
                let v = value_of("--tol")?;
                flags.tol = Some(
                    v.parse::<f64>()
                        .map_err(|_| format!("bad --tol value {v:?}"))?,
                );
            }
            "--kernel" => {
                let v = value_of("--kernel")?;
                flags.kernel = Some(Kernel::parse(&v)?);
            }
            "--shard" => flags.shard = Some(Shard::parse(&value_of("--shard")?)?),
            "--store" => flags.store = Some(PathBuf::from(value_of("--store")?)),
            "--resume" => flags.resume = true,
            "--once" => flags.once = true,
            "--max-bytes" => {
                let v = value_of("--max-bytes")?;
                flags.max_bytes = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("bad --max-bytes value {v:?}"))?,
                );
            }
            "--events" => flags.events = Some(PathBuf::from(value_of("--events")?)),
            "--metrics" => flags.metrics = Some(PathBuf::from(value_of("--metrics")?)),
            "--quiet" => flags.quiet = true,
            "--verbose" => flags.verbose = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
        if !matches!(a.as_str(), "--quiet" | "--verbose") && !cmd.flags.contains(&a.as_str()) {
            return Err(format!("{a} is not valid for {}", cmd.name));
        }
    }
    if flags.quiet && flags.verbose {
        return Err("--quiet and --verbose are mutually exclusive".to_string());
    }
    Ok(flags)
}

/// Applies `--quiet`/`--verbose` to the process-global obs log level.
/// Called once right after parsing, before any progress output, so the
/// level is uniform across every subcommand.
pub fn apply_log_level(flags: &Flags) {
    use dyncode_obs::log::{set_level, Level};
    set_level(if flags.quiet {
        Level::Error
    } else if flags.verbose {
        Level::Debug
    } else {
        Level::Info
    });
}

/// [`parse_flags`] for a subcommand's `main`: applies the log level, or
/// prints the error and `cmd`'s usage and yields exit code 2.
pub fn parse_or_usage(cmd: &Cmd, args: &[String]) -> Result<Flags, i32> {
    match parse_flags(cmd, args) {
        Ok(f) => {
            apply_log_level(&f);
            Ok(f)
        }
        Err(e) => {
            eprintln!("error: {e}");
            print_usage(cmd);
            Err(2)
        }
    }
}

/// `cmd`'s usage text on stderr.
pub fn print_usage(cmd: &Cmd) {
    eprintln!("usage: {}", cmd.usage.replace('\n', "\n       "));
}

/// Starts the telemetry session requested by `--events`/`--metrics` (or a
/// no-op guard). Keep the returned guard alive for the whole command —
/// dropping it finalizes the output files.
pub fn start_obs_session(flags: &Flags) -> Result<dyncode_obs::Session, String> {
    dyncode_obs::Session::start(flags.events.as_deref(), flags.metrics.as_deref())
        .map_err(|e| format!("cannot create --events file: {e}"))
}

/// The usage text plus the experiment registry (with each experiment's
/// protocol column), on stderr.
pub fn print_usage_and_registry() {
    let mut usage = String::new();
    for cmd in COMMANDS {
        usage.push_str(cmd.usage);
        usage.push('\n');
    }
    usage.push_str("experiments protocols\n");
    usage.push_str("experiments obs <check | summarize> <EVENTS.jsonl>");
    eprintln!("usage: {}\n", usage.replace('\n', "\n       "));
    eprintln!("global: --quiet (errors only) / --verbose (debug detail) on any subcommand\n");
    eprintln!("experiments:");
    for (id, desc, protocols, _) in &registry() {
        eprintln!("  {id:<5} {desc}");
        eprintln!("        protocols: {protocols}");
    }
    eprintln!("\nprotocol and delivery spec strings are listed by `experiments protocols`.");
}

/// The distinct termination-predicate names behind an experiment's
/// protocol column — derived by parsing each column entry against the
/// spec registry (grammar placeholders and node-level-demo notes do not
/// parse and contribute nothing; a column with no parseable spec shows
/// `n/a`).
fn termination_column(protocols: &str) -> String {
    let mut terms: Vec<&'static str> = Vec::new();
    for part in protocols.split(", ") {
        if let Ok(s) = spec::ProtocolSpec::parse(part) {
            let name = s.termination().name();
            if !terms.contains(&name) {
                terms.push(name);
            }
        }
    }
    if terms.is_empty() {
        "n/a".into()
    } else {
        terms.join(", ")
    }
}

/// The machine-friendlier registry listing on stdout (`--list`): one line
/// per experiment with its protocol column and the termination
/// predicate(s) those protocols run under, then the delivery-model and
/// adversary registries (campaign axes that apply to every experiment
/// routed through the engine).
pub fn print_registry_listing() {
    for (id, desc, protocols, _) in &registry() {
        let term = termination_column(protocols);
        println!("{id:<5} {desc}  [{protocols}]  term: {term}");
    }
    let axes = [
        ("delivery", delivery_registry()),
        ("adversary", dyncode_scenarios::registry()),
    ];
    for (axis, rows) in axes {
        for (grammar, desc) in rows {
            println!("{axis} {grammar}  {desc}");
        }
    }
}

/// One `(grammar, description)` registry section of `experiments protocols`.
fn print_axis_registry(title: &str, usage: &str, rows: &[(&str, &str)]) {
    println!("\n{title} registry ({} entries)\n", rows.len());
    println!("campaign usage:  {usage}   (grid axis, cross product)");
    for (grammar, desc) in rows {
        println!("{grammar}");
        println!("    {desc}");
    }
}

/// The `protocols` subcommand: the protocol registry — spec grammar,
/// parameters, defaults — plus the delivery-model and adversary
/// registries, on stdout.
pub fn print_protocol_registry() {
    println!("protocol registry ({} entries)\n", spec::registry().len());
    println!("campaign usage:  protocol = <spec>[, <spec>...]   (grid axis, cross product)");
    println!("CLI usage:       experiments trace replay <PATH.dct> <spec> [SEED]\n");
    for info in spec::registry() {
        println!("{}", info.grammar);
        println!("    {}", info.summary);
        println!("    parameters: {}", info.params);
        println!("    termination: {}", info.termination);
    }
    println!("\nconfigured variants round-trip: a spec's canonical string parses back");
    println!("to the same protocol (e.g. greedy-forward(gather=2,bcast=3)).");
    let usage = "delivery = <model>[, <model>...]";
    print_axis_registry("delivery model", usage, &delivery_registry());
    println!("\nthe default (reliable) is elided from labels, artifact meta, and cache");
    println!("keys, so campaigns without a delivery axis are byte-identical to older runs.");
    let usage = "adversaries = <spec>[, <spec>...]";
    print_axis_registry("adversary", usage, &dyncode_scenarios::registry());
    println!("\n`scenario =` is a second spelling of the same axis (the two accumulate);");
    println!("a cell's `t` > 1 wraps its adversary T-stable.");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_and_positionals() {
        let f = parse_flags(&EXPERIMENTS, &strings(&["e1", "e21"])).unwrap();
        assert!(!f.quick && !f.json && !f.list);
        assert!(f.threads >= 1);
        assert!(f.out.is_none() && f.tol.is_none() && f.kernel.is_none());
        assert_eq!(f.positional, vec!["e1", "e21"]);
    }

    #[test]
    fn kernel_flag_parses() {
        let f = parse_flags(&TRACE, &strings(&["replay", "t.dct", "--kernel", "fast"])).unwrap();
        assert_eq!(f.kernel, Some(Kernel::Fast));
        assert_eq!(f.positional, vec!["replay", "t.dct"]);
        for (args, needle) in [
            (&["--kernel", "turbo"][..], "valid kernels"),
            (&["--kernel"][..], "requires a value"),
        ] {
            let err = parse_flags(&TRACE, &strings(args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn store_and_shard_flags_parse() {
        let f = parse_flags(
            &CAMPAIGN,
            &strings(&[
                "spec.camp",
                "--shard",
                "2/4",
                "--store",
                "cache",
                "--resume",
            ]),
        )
        .unwrap();
        assert_eq!(f.shard, Some(Shard { index: 2, count: 4 }));
        assert_eq!(f.store.as_deref(), Some(std::path::Path::new("cache")));
        assert!(f.resume && !f.once);
        assert_eq!(f.positional, vec!["spec.camp"]);
        let f = parse_flags(&STORE, &strings(&["gc", "--max-bytes", "4096"])).unwrap();
        assert_eq!(f.max_bytes, Some(4096));
        assert!(
            parse_flags(&SERVE, &strings(&["spool", "--once"]))
                .unwrap()
                .once
        );
        for (cmd, args, needle) in [
            (&CAMPAIGN, &["--shard", "0/2"][..], "1 ≤ I ≤ K"),
            (&CAMPAIGN, &["--shard", "3/2"][..], "1 ≤ I ≤ K"),
            (&CAMPAIGN, &["--shard", "nope"][..], "expected I/K"),
            (&CAMPAIGN, &["--shard"][..], "requires a value"),
            (&STORE, &["--max-bytes", "soon"][..], "bad --max-bytes"),
        ] {
            let err = parse_flags(cmd, &strings(args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    /// Every flag the parser knows, with a value where it takes one.
    const EVERY_FLAG: [&[&str]; 16] = [
        &["--quick"],
        &["--json"],
        &["--list"],
        &["--threads", "2"],
        &["--out", "d"],
        &["--tol", "0.5"],
        &["--kernel", "fast"],
        &["--shard", "1/2"],
        &["--store", "d"],
        &["--resume"],
        &["--once"],
        &["--max-bytes", "1"],
        &["--events", "e"],
        &["--metrics", "m"],
        &["--quiet"],
        &["--verbose"],
    ];

    #[test]
    fn store_flags_are_rejected_outside_the_store_family() {
        // The allowlist is exact: for every subcommand, each known flag
        // either is listed (or global) and parses, or is rejected by name.
        for cmd in COMMANDS {
            for flag in cmd.flags {
                assert!(cmd.usage.contains(flag), "{flag} missing from usage");
            }
            for args in EVERY_FLAG {
                let flag = args[0];
                let allowed = cmd.flags.contains(&flag) || flag == "--quiet" || flag == "--verbose";
                match parse_flags(cmd, &strings(args)) {
                    Ok(_) => assert!(allowed, "{flag} accepted by {}", cmd.name),
                    Err(e) => {
                        assert!(!allowed, "{flag} rejected by {}: {e}", cmd.name);
                        assert_eq!(e, format!("{flag} is not valid for {}", cmd.name));
                    }
                }
            }
        }
        let err = parse_flags(&EXPERIMENTS, &strings(&["e1", "--shard", "1/2"])).unwrap_err();
        assert_eq!(err, "--shard is not valid for experiment runs");
    }

    #[test]
    fn flags_parse_in_any_position() {
        let f = parse_flags(
            &EXPERIMENTS,
            &strings(&[
                "--quick",
                "e1",
                "--threads",
                "4",
                "--json",
                "e2",
                "--out",
                "dir",
            ]),
        )
        .unwrap();
        assert!(f.quick && f.json);
        assert_eq!(f.threads, 4);
        assert_eq!(f.out.as_deref(), Some(std::path::Path::new("dir")));
        assert_eq!(f.positional, vec!["e1", "e2"]);
        let f = parse_flags(&COMPARE, &strings(&["--tol", "0.5", "a", "b"])).unwrap();
        assert_eq!(f.tol, Some(0.5));
    }

    #[test]
    fn threads_are_clamped_to_one() {
        let f = parse_flags(&EXPERIMENTS, &strings(&["--threads", "0"])).unwrap();
        assert_eq!(f.threads, 1);
    }

    #[test]
    fn bad_values_and_unknown_flags_are_errors() {
        for (cmd, args, needle) in [
            (&EXPERIMENTS, &["--threads", "x"][..], "bad --threads"),
            (&EXPERIMENTS, &["--threads"][..], "requires a value"),
            (&EXPERIMENTS, &["--out"][..], "requires a value"),
            (&COMPARE, &["--tol", "fast"][..], "bad --tol"),
            (&EXPERIMENTS, &["--frobnicate"][..], "unknown flag"),
            (&COMPARE, &["--tol-pct", "5"][..], "unknown flag"),
            (&COMPARE, &["--max-rss-pct", "5"][..], "unknown flag"),
        ] {
            let err = parse_flags(cmd, &strings(args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn list_flag_is_recognized() {
        assert!(
            parse_flags(&EXPERIMENTS, &strings(&["--list"]))
                .unwrap()
                .list
        );
    }

    #[test]
    fn obs_flags_parse_and_are_rejected_where_invalid() {
        let f = parse_flags(
            &EXPERIMENTS,
            &strings(&[
                "e21",
                "--events",
                "ev.jsonl",
                "--metrics",
                "m.json",
                "--verbose",
            ]),
        )
        .unwrap();
        assert_eq!(f.events.as_deref(), Some(std::path::Path::new("ev.jsonl")));
        assert_eq!(f.metrics.as_deref(), Some(std::path::Path::new("m.json")));
        assert!(f.verbose && !f.quiet);
        let err = parse_flags(&COMPARE, &strings(&["a", "b", "--events", "ev.jsonl"])).unwrap_err();
        assert_eq!(err, "--events is not valid for compare");
        assert!(parse_flags(&COMPARE, &strings(&["a", "b", "--quiet"])).is_ok());
        let err = parse_flags(&EXPERIMENTS, &strings(&["--quiet", "--verbose"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = parse_flags(&EXPERIMENTS, &strings(&["--events"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }
}
