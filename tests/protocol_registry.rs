//! The protocol registry's two contracts:
//!
//! 1. **Grammar**: `ProtocolSpec::parse ∘ Display = id` on spec *values* —
//!    whatever a spec prints, parsing it back yields an equal spec
//!    (property-tested over randomly generated specs), and malformed
//!    strings are rejected with errors that enumerate the registry.
//! 2. **Registry cell == hand-built protocol**: `run_spec` on the cell
//!    `ProtocolSpec::build` returns reproduces `run` on the hand-built
//!    protocol's `RunResult` **bit for bit** — rounds, total bits, max
//!    message bits, per-round history — across a seeded cross-protocol
//!    matrix covering every simulator family, three coding fields,
//!    deterministic advice mode, and configured variants.

use dyncode::core::params::{Instance, Params, Placement};
use dyncode::core::protocols::{
    Centralized, FieldBroadcast, GreedyConfig, GreedyForward, IndexedBroadcast, NaiveCoded,
    PriorityConfig, PriorityForward, RandomForward, TokenForwarding,
};
use dyncode::core::runner::run_spec;
use dyncode::core::spec::ProtocolSpec;
use dyncode::dynet::adversaries::{RandomConnectedAdversary, ShuffledPathAdversary};
use dyncode::dynet::adversary::Adversary;
use dyncode::dynet::simulator::{run, Protocol, RunResult, SimConfig};
use dyncode::gf::{Gf256, Gf257, Mersenne61};
use dyncode::quorum::{QuorumConfig, QuorumGoal, QuorumProtocol};
use proptest::prelude::*;

proptest! {
    /// Generate spec values across the whole enum (parameters included),
    /// print them, parse them back: the value must survive unchanged —
    /// and so must a second print (canonical forms are fixed points).
    #[test]
    fn parse_display_round_trips(
        which in 0usize..12,
        a in 1usize..64,
        b in 1usize..64,
        seed in any::<u64>(),
        with_param in any::<bool>(),
    ) {
        let spec = match which {
            0 => ProtocolSpec::TokenForwarding,
            1 => ProtocolSpec::PipelinedForwarding { t: with_param.then_some(a) },
            2 => ProtocolSpec::GreedyForward {
                cfg: GreedyConfig { gather_mult: a, broadcast_mult: b },
            },
            3 => ProtocolSpec::PriorityForward {
                cfg: PriorityConfig { warmup_mult: a, broadcast_mult: b },
            },
            4 => ProtocolSpec::RandomForward { rounds: with_param.then_some(a) },
            5 => ProtocolSpec::NaiveCoded,
            6 => ProtocolSpec::IndexedBroadcast,
            7 => {
                let field = match a % 4 {
                    0 => dyncode::core::spec::FieldKind::Gf2,
                    1 => dyncode::core::spec::FieldKind::Gf256,
                    2 => dyncode::core::spec::FieldKind::Gf257,
                    _ => dyncode::core::spec::FieldKind::Mersenne61,
                };
                ProtocolSpec::FieldBroadcast { field, det: with_param.then_some(seed) }
            }
            8 => ProtocolSpec::Centralized,
            9 => ProtocolSpec::PatchIndexed,
            // The quorum families: `rounds` stores the parse-normalized
            // value (8 when elided), so generating the default sometimes
            // exercises the Display collapse.
            10 => ProtocolSpec::QuorumWatermark {
                f: a,
                rounds: if with_param { b } else { 8 },
            },
            _ => ProtocolSpec::QuorumDecide { f: a, q: b },
        };
        let printed = spec.to_string();
        let back = ProtocolSpec::parse(&printed).expect("canonical strings parse");
        prop_assert_eq!(&back, &spec, "{}", printed);
        prop_assert_eq!(back.to_string(), printed, "Display is a fixed point");
    }

    /// Junk never parses: random words that are not registry names are
    /// rejected, and the error names the registry.
    #[test]
    fn unknown_names_are_rejected_with_the_registry(tail in 0u32..1_000_000) {
        let bogus = format!("proto-{tail}");
        let err = ProtocolSpec::parse(&bogus).unwrap_err();
        prop_assert!(err.contains("valid protocols"), "{}", err);
        prop_assert!(err.contains("field-broadcast"), "{}", err);
    }
}

#[test]
fn rejection_cases_cover_every_malformation_class() {
    for bad in [
        "",                               // empty
        "token-forwarding(2)",            // arity on a bare protocol
        "pipelined-forwarding(0)",        // zero T
        "greedy-forward(gather=0)",       // zero multiplier
        "greedy-forward(cycle=2)",        // unknown parameter
        "priority-forward(warmup)",       // missing value
        "random-forward(rounds=x)",       // non-numeric value
        "field-broadcast",                // missing field
        "field-broadcast(gf1024)",        // unknown field
        "field-broadcast(m61,det=)",      // empty seed
        "greedy-forward(gather=1",        // unbalanced paren
        "patch-indexed(T)",               // arity
        "Token-Forwarding",               // case matters
        "quorum-watermark",               // missing required f
        "quorum-watermark()",             // empty parameter list
        "quorum-watermark(f=0)",          // zero fault bound
        "quorum-watermark(rounds=8)",     // rounds without f
        "quorum-watermark(f=1,rounds=0)", // zero goal round
        "quorum-watermark(f=1,q=2)",      // q belongs to quorum-decide
        "quorum-decide(f=1)",             // missing required q
        "quorum-decide(q=3)",             // missing required f
        "quorum-decide(f=1,q=0)",         // zero goal round
        "quorum-decide(f=x,q=1)",         // non-numeric value
    ] {
        assert!(ProtocolSpec::parse(bad).is_err(), "{bad:?} should fail");
    }
}

/// Runs `spec` through the registry cell and the hand-built protocol
/// under identical `(adversary, config, seed)` and asserts the full
/// `RunResult` (history included) is identical.
fn assert_matches_hand_built<P, FB>(spec: &str, t: usize, build: FB, cap: usize, seed: u64)
where
    P: Protocol + 'static,
    FB: Fn(&Instance) -> P,
{
    let inst = Instance::generate(
        Params::new(12, 12, 5, 40),
        Placement::OneTokenPerNode,
        900 + seed,
    );
    let cfg = SimConfig::with_max_rounds(cap).recording();
    let spec = ProtocolSpec::parse(spec).expect(spec);
    let adv = || Box::new(RandomConnectedAdversary::new(1)) as Box<dyn Adversary>;

    let registry: RunResult = run_spec(&spec, &inst, t, &adv, &cfg, seed);
    let mut hand_built = build(&inst);
    let mut a = RandomConnectedAdversary::new(1);
    let direct = run(&mut hand_built, &mut a, &cfg, seed);
    assert_eq!(registry, direct, "{spec} (seed {seed})");
}

/// The seeded cross-protocol matrix: every simulator protocol family ×
/// several seeds, registry cell == hand-built protocol.
#[test]
fn erased_dispatch_reproduces_monomorphized_runs_across_the_registry() {
    for seed in [1u64, 7, 23] {
        assert_matches_hand_built(
            "token-forwarding",
            1,
            TokenForwarding::baseline,
            100_000,
            seed,
        );
        assert_matches_hand_built(
            "pipelined-forwarding(8)",
            1,
            |i| TokenForwarding::pipelined(i, 8),
            100_000,
            seed,
        );
        assert_matches_hand_built(
            "greedy-forward(gather=2,bcast=3)",
            1,
            |i| {
                GreedyForward::with_config(
                    i,
                    GreedyConfig {
                        gather_mult: 2,
                        broadcast_mult: 3,
                    },
                )
            },
            500_000,
            seed,
        );
        assert_matches_hand_built("priority-forward", 1, PriorityForward::new, 500_000, seed);
        // random-forward never self-terminates: both paths must agree on
        // the incomplete result at the cap too.
        assert_matches_hand_built(
            "random-forward(rounds=24)",
            1,
            |i| RandomForward::new(i, 24),
            36,
            seed,
        );
        assert_matches_hand_built("naive-coded", 1, NaiveCoded::new, 500_000, seed);
        assert_matches_hand_built("indexed-broadcast", 1, IndexedBroadcast::new, 100_000, seed);
        assert_matches_hand_built(
            "field-broadcast(gf256)",
            1,
            FieldBroadcast::<Gf256>::new,
            100_000,
            seed,
        );
        assert_matches_hand_built(
            "field-broadcast(gf257)",
            1,
            FieldBroadcast::<Gf257>::new,
            100_000,
            seed,
        );
        assert_matches_hand_built(
            "field-broadcast(m61)",
            1,
            FieldBroadcast::<Mersenne61>::new,
            100_000,
            seed,
        );
        assert_matches_hand_built(
            "field-broadcast(m61,det=4)",
            1,
            |i| FieldBroadcast::<Mersenne61>::deterministic(i, 4),
            100_000,
            seed,
        );
        assert_matches_hand_built("centralized", 1, Centralized::new, 100_000, seed);
        // The quorum families terminate by the quorum-threshold
        // predicate, not token completion; the registry cell and the
        // hand-built protocol must still agree on every byte of the result.
        assert_matches_hand_built(
            "quorum-watermark(f=1)",
            1,
            |i: &Instance| {
                QuorumProtocol::new(
                    i.params.n,
                    i.params.k,
                    QuorumConfig {
                        f: 1,
                        goal: QuorumGoal::Watermark { rounds: 8 },
                    },
                )
            },
            100_000,
            seed,
        );
        assert_matches_hand_built(
            "quorum-decide(f=2,q=5)",
            1,
            |i: &Instance| {
                QuorumProtocol::new(
                    i.params.n,
                    i.params.k,
                    QuorumConfig {
                        f: 2,
                        goal: QuorumGoal::Decide { q: 5 },
                    },
                )
            },
            100_000,
            seed,
        );
    }
}

/// `field-broadcast(gf2)` has no packed monomorphized twin to diff against
/// (the packed-GF(2) protocol is `indexed-broadcast`), but it must build,
/// run, and complete from its spec string like every other family.
#[test]
fn gf2_field_broadcast_builds_and_completes() {
    let inst = Instance::generate(Params::new(10, 10, 5, 200), Placement::RoundRobin, 8);
    let adv = || Box::new(ShuffledPathAdversary) as Box<dyn Adversary>;
    let spec = ProtocolSpec::parse("field-broadcast(gf2)").unwrap();
    let r = run_spec(
        &spec,
        &inst,
        1,
        &adv,
        &SimConfig::with_max_rounds(100_000),
        3,
    );
    assert!(r.completed);
    let mono = FieldBroadcast::<dyncode::gf::Gf2>::new(&inst);
    let mut a = ShuffledPathAdversary;
    let mut mono = mono;
    let direct = run(&mut mono, &mut a, &SimConfig::with_max_rounds(100_000), 3);
    assert_eq!(r.rounds, direct.rounds);
    assert_eq!(r.total_bits, direct.total_bits);
}
