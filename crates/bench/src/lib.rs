//! # dyncode-bench
//!
//! The experiment harness: one runnable experiment per theorem/claim of
//! the paper (the per-experiment index lives in DESIGN.md §4, results in
//! EXPERIMENTS.md). Run via:
//!
//! ```sh
//! cargo run -p dyncode-bench --release -- all      # everything
//! cargo run -p dyncode-bench --release -- e2       # one experiment
//! cargo run -p dyncode-bench --release -- e2 --quick --threads 8
//! cargo run -p dyncode-bench --release -- e1 e4 --json --out artifacts
//! cargo run -p dyncode-bench --release -- compare base.json cand.json
//! ```
//!
//! Each experiment prints a markdown table of measured rounds next to the
//! paper's predicted bound, the fitted leading constant, and the ratio
//! spread (flat ratios = the claimed shape holds). Every sweep routes
//! through the `dyncode-engine` campaign engine ([`ctx::ExpCtx`]), which
//! shards cells across `--threads N` workers and — with `--json` — emits a
//! machine-readable `BENCH_<id>.json` artifact per experiment that the
//! `compare` subcommand gates regressions on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod ctx;
pub mod experiments;
pub mod obs_cmd;
pub mod orchestrate;
pub mod table;

/// One registry row: experiment id, headline claim, the protocol specs it
/// exercises (registry strings from `dyncode_core::spec`, or a
/// parenthesized note for node-level demos), and the runner (takes the
/// shared experiment context).
pub type Experiment = (
    &'static str,
    &'static str,
    &'static str,
    fn(&mut ctx::ExpCtx),
);

/// The registry of experiments: id, headline claim, protocol column,
/// runner — sorted by **numeric** id (`e2` before `e10`), which is also
/// the order `--list` and the usage/registry printouts follow.
pub fn registry() -> Vec<Experiment> {
    let mut reg = registry_unsorted();
    reg.sort_by_key(|(id, _, _, _)| {
        id.trim_start_matches('e')
            .parse::<usize>()
            .unwrap_or(usize::MAX)
    });
    reg
}

fn registry_unsorted() -> Vec<Experiment> {
    vec![
        (
            "e1",
            "Thm 2.1: token forwarding = Θ(nkd/(bT) + n)",
            "token-forwarding, pipelined-forwarding(T)",
            experiments::e1 as fn(&mut ctx::ExpCtx),
        ),
        (
            "e2",
            "Thm 2.3: coding gains quadratically in b",
            "greedy-forward, token-forwarding",
            experiments::e2,
        ),
        (
            "e3",
            "Thm 2.4: T-stability helps coding T^2 vs forwarding T",
            "patch-indexed, pipelined-forwarding(T)",
            experiments::e3,
        ),
        (
            "e4",
            "Lem 5.3: indexed broadcast = O(n+k), any adversary",
            "indexed-broadcast",
            experiments::e4,
        ),
        (
            "e5",
            "S5.2: the last-missing-token example",
            "(node-level coding demo)",
            experiments::e5,
        ),
        (
            "e6",
            "Lem 7.2: random-forward gathers sqrt(bk/d)",
            "random-forward",
            experiments::e6,
        ),
        (
            "e7",
            "S2.3: b=d=log n separation = Θ(log n)",
            "token-forwarding, greedy-forward",
            experiments::e7,
        ),
        (
            "e8",
            "S2.3: message size needed for linear time",
            "greedy-forward, token-forwarding",
            experiments::e8,
        ),
        (
            "e9",
            "Thm 6.1: omniscient adversary vs field size",
            "(rlnc determinized schedules)",
            experiments::e9,
        ),
        (
            "e10",
            "Cor 2.6: centralized coding = Θ(n)",
            "centralized, token-forwarding",
            experiments::e10,
        ),
        (
            "e11",
            "Lem 5.2: per-hop sensing probability = 1 - 1/q",
            "(rlnc sensing primitive)",
            experiments::e11,
        ),
        (
            "e12",
            "Lem 8.1: patched broadcast = O((n + bT^2) log n)",
            "patch-indexed",
            experiments::e12,
        ),
        (
            "e13",
            "Cor 7.1 ablation: why gathering is needed",
            "naive-coded, greedy-forward, token-forwarding",
            experiments::e13,
        ),
        (
            "e14",
            "Thm 7.3 vs 7.5: the large-b crossover",
            "greedy-forward, priority-forward",
            experiments::e14,
        ),
        (
            "e15",
            "Ablation: coding field vs rounds and bits",
            "indexed-broadcast, field-broadcast(gf256|gf257|m61[,det])",
            experiments::e15,
        ),
        (
            "e16",
            "Ablation: greedy-forward phase constants",
            "greedy-forward(gather=G,bcast=B)",
            experiments::e16,
        ),
        (
            "e17",
            "S5.2: progress curves and end-phase waste",
            "token-forwarding, greedy-forward",
            experiments::e17,
        ),
        (
            "e18",
            "Workload: coding vs forwarding under node churn",
            "token-forwarding, indexed-broadcast",
            experiments::e18,
        ),
        (
            "e19",
            "Workload: coding vs forwarding under waypoint mobility",
            "token-forwarding, indexed-broadcast",
            experiments::e19,
        ),
        (
            "e20",
            "Workload: paired protocols on replayed .dct traces",
            "token-forwarding, indexed-broadcast",
            experiments::e20,
        ),
        (
            "e21",
            "Crossover: full protocol x scenario matrix, paired schedules",
            "token-forwarding, pipelined-forwarding(8), greedy-forward, \
             priority-forward, naive-coded, indexed-broadcast, \
             field-broadcast(gf256), centralized",
            experiments::e21,
        ),
        (
            "e22",
            "Delivery: coding vs forwarding under radio and lossy channels",
            "token-forwarding, indexed-broadcast, field-broadcast(gf2), \
             field-broadcast(gf256)",
            experiments::e22,
        ),
        (
            "e23",
            "Quorum: rounds to decision across adversaries and channels",
            "quorum-watermark(f=1), quorum-decide(f=1,q=4), token-forwarding",
            experiments::e23,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::registry;

    #[test]
    fn registry_is_sorted_numerically_and_complete() {
        let reg = registry();
        assert_eq!(reg.len(), 23);
        let ids: Vec<usize> = reg
            .iter()
            .map(|(id, _, _, _)| id.trim_start_matches('e').parse::<usize>().unwrap())
            .collect();
        assert_eq!(ids, (1..=23).collect::<Vec<_>>(), "numeric order, e2 < e10");
    }

    #[test]
    fn registry_protocol_columns_name_parseable_specs() {
        use dyncode_core::spec::ProtocolSpec;
        for (id, _, protocols, _) in &registry() {
            if protocols.starts_with('(') {
                continue; // node-level demos carry a note, not specs
            }
            for part in protocols.split(", ") {
                // Grammar placeholders (`(T)`, `gather=G`, `gf256|m61`,
                // `[,det]`) are documentation; every other entry —
                // configured specs like `pipelined-forwarding(8)`
                // included — must parse against the registry.
                if part.contains(|c: char| c.is_ascii_uppercase() || c == '|' || c == '[') {
                    continue;
                }
                assert!(
                    ProtocolSpec::parse(part).is_ok(),
                    "{id}: column entry {part:?} is not a registry spec"
                );
            }
        }
    }
}
