//! The campaign engine's determinism contract: a campaign run with 1
//! thread and with 8 threads produces **byte-identical** JSON artifacts —
//! same seeds, same `RunResult`s, per-round history included.
//!
//! This is what makes `--threads N` safe to use everywhere: parallelism
//! can change only wall-clock, never results. The contract holds because
//! (a) every `(cell, seed)` run re-derives all randomness from its own
//! seed (`dyncode_core::runner::run_one`), and (b) the executor returns
//! outcomes in submission order regardless of completion order.

use dyncode::engine::{
    run_campaign, AdversaryKind, Campaign, CapRule, ClassicKind, Dim, Engine, ProtocolSpec,
};

fn demo_campaign() -> Campaign {
    Campaign::builder("determinism", "engine determinism check")
        .protocol(ProtocolSpec::TokenForwarding)
        .adversaries(vec![
            AdversaryKind::Classic(ClassicKind::ShuffledPath),
            AdversaryKind::Classic(ClassicKind::Bottleneck),
            AdversaryKind::Classic(ClassicKind::KnowledgeAdaptive),
        ])
        .ns(&[8, 16])
        .k(Dim::N)
        .d(Dim::LgN1)
        .b(Dim::MulD(2))
        .seeds(&[1, 2, 3])
        .cap(CapRule::MulNN(10))
        .record_history(true)
        .build()
        .expect("valid campaign")
}

#[test]
fn threads_1_and_8_produce_byte_identical_artifacts() {
    let campaign = demo_campaign();
    let serial = run_campaign(&Engine::new(1), &campaign);
    let parallel = run_campaign(&Engine::new(8), &campaign);

    // The strong form: identical artifact bytes.
    assert_eq!(
        serial.to_json_string(),
        parallel.to_json_string(),
        "parallel artifact differs from serial artifact"
    );

    // And the pieces, so a failure localizes: same cells, same per-seed
    // RunResults, per-round history included.
    assert_eq!(serial.cells.len(), 2 * 3);
    for (cs, cp) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(cs.label, cp.label);
        assert_eq!(cs.stats, cp.stats);
        assert_eq!(cs.runs.len(), 3, "{}", cs.label);
        for (rs, rp) in cs.runs.iter().zip(&cp.runs) {
            assert_eq!(rs.seed, rp.seed);
            assert_eq!(rs.rounds, rp.rounds);
            assert_eq!(rs.total_bits, rp.total_bits);
            assert!(!rs.history.is_empty(), "history was requested");
            assert_eq!(rs.history, rp.history);
        }
        assert!(cs.stats.all_completed(), "{}", cs.label);
    }
}

#[test]
fn parsed_spec_campaigns_are_deterministic_too() {
    let text = "
        id = parsed-determinism
        protocol = greedy-forward
        adversaries = shuffled-path
        n = 8, 12
        k = n
        d = lgn+1
        b = 2d
        seeds = 4, 5
        cap = 100nn
    ";
    let campaign = Campaign::parse(text).expect("spec parses");
    let a = run_campaign(&Engine::new(2), &campaign);
    let b = run_campaign(&Engine::new(5), &campaign);
    assert_eq!(a.to_json_string(), b.to_json_string());
    assert!(a.cells.iter().all(|c| c.stats.all_completed()));
}

#[test]
fn artifact_bytes_round_trip_through_the_parser() {
    let campaign = demo_campaign();
    let artifact = run_campaign(&Engine::new(4), &campaign);
    let text = artifact.to_json_string();
    let back = dyncode::engine::Artifact::parse(&text).expect("parse back");
    assert_eq!(back, artifact);
    assert_eq!(back.to_json_string(), text);
}

/// The e18-style scenario campaign honors the same determinism contract
/// as the classic suites: stochastic workload adversaries (edge-Markov,
/// waypoint, churn) re-derive all randomness from each cell's seed, so
/// `--threads 1` and `--threads 8` artifacts are byte-identical.
#[test]
fn scenario_campaign_is_thread_count_independent() {
    let text = "
        id = scenario-determinism
        protocol = token-forwarding
        scenario = edge-markov(0.1,0.3), waypoint(0.3,0.08), churn(0.2,random-connected)
        n = 8, 12
        k = n
        d = lgn+1
        b = 2d
        seeds = 1, 2
        cap = 60nn
        record_history = true
    ";
    let campaign = Campaign::parse(text).expect("spec parses");
    let serial = run_campaign(&Engine::new(1), &campaign);
    let parallel = run_campaign(&Engine::new(8), &campaign);
    assert_eq!(
        serial.to_json_string(),
        parallel.to_json_string(),
        "scenario artifact differs between 1 and 8 threads"
    );
    assert_eq!(serial.cells.len(), 2 * 3);
    for cell in &serial.cells {
        assert!(cell.stats.all_completed(), "{}", cell.label);
        for run in &cell.runs {
            assert!(!run.history.is_empty(), "{}", cell.label);
        }
    }
}

/// The quorum-family determinism contract: a campaign crossing both
/// quorum specs with degraded delivery models and a churn adversary —
/// on the fast kernel via `kernel = auto` — produces byte-identical
/// artifacts at 1 and 8 threads, and every cell reaches its quorum goal.
#[test]
fn quorum_campaign_is_thread_count_independent() {
    let text = "
        id = quorum-determinism
        protocol = quorum-watermark(f=1), quorum-decide(f=2,q=4)
        adversaries = shuffled-path
        scenario = churn(0.15,random-connected)
        delivery = reliable, lossy(eps=0.2)
        kernel = auto
        n = 12, 16
        k = n
        d = lgn+1
        b = 2d
        seeds = 1, 2
        cap = 500nn
        record_history = true
    ";
    let campaign = Campaign::parse(text).expect("spec parses");
    let serial = run_campaign(&Engine::new(1), &campaign);
    let parallel = run_campaign(&Engine::new(8), &campaign);
    assert_eq!(
        serial.to_json_string(),
        parallel.to_json_string(),
        "quorum artifact differs between 1 and 8 threads"
    );
    // 2 sizes × 2 deliveries × 2 protocols × 2 adversaries.
    assert_eq!(serial.cells.len(), 2 * 2 * 2 * 2);
    for cell in &serial.cells {
        assert!(cell.stats.all_completed(), "{}", cell.label);
    }
}

/// The protocol-grid determinism contract: a campaign sweeping the
/// `protocol =` axis across heterogeneous registry specs — forwarding,
/// coding over three fields, configured variants, and the charged-rounds
/// patch model — produces byte-identical artifacts at 1 and 8 threads,
/// and every cell's erased-dispatch result equals the monomorphized
/// simulator's (checked here for the protocol the old enum could name
/// *and* the ones it could not).
#[test]
fn protocol_grid_campaign_is_thread_count_independent_and_erased_equals_mono() {
    let text = "
        id = protocol-grid-determinism
        protocol = token-forwarding, pipelined-forwarding(8), greedy-forward(gather=2,bcast=3)
        protocol = priority-forward, indexed-broadcast, field-broadcast(gf256)
        protocol = field-broadcast(m61,det=5), centralized, patch-indexed
        adversaries = shuffled-path
        scenario = edge-markov(0.1,0.3)
        n = 8, 12
        k = n
        d = lgn+1
        b = 2d
        t = 4
        seeds = 1, 2
        cap = 500nn
        record_history = true
    ";
    let campaign = Campaign::parse(text).expect("spec parses");
    let serial = run_campaign(&Engine::new(1), &campaign);
    let parallel = run_campaign(&Engine::new(8), &campaign);
    assert_eq!(
        serial.to_json_string(),
        parallel.to_json_string(),
        "protocol-grid artifact differs between 1 and 8 threads"
    );
    // 2 sizes × 1 T × 9 protocols × 2 adversaries.
    assert_eq!(serial.cells.len(), 2 * 9 * 2);
    for cell in &serial.cells {
        assert!(cell.stats.all_completed(), "{}", cell.label);
    }

    // Erased = monomorphized, spot-checked against hand-built protocols
    // on one grid point of the same campaign.
    use dyncode::core::params::{Instance, Params, Placement};
    use dyncode::core::protocols::{GreedyConfig, GreedyForward};
    use dyncode::core::runner::run_spec;
    use dyncode::dynet::adversaries::ShuffledPathAdversary;
    use dyncode::dynet::adversary::Adversary;
    use dyncode::dynet::simulator::{run, SimConfig};

    let inst = Instance::generate(Params::new(8, 8, 4, 8), Placement::OneTokenPerNode, 42);
    let cfg = SimConfig::with_max_rounds(500 * 64).recording();
    let spec = ProtocolSpec::parse("greedy-forward(gather=2,bcast=3)").unwrap();
    let adv = || Box::new(ShuffledPathAdversary) as Box<dyn Adversary>;
    let erased = run_spec(&spec, &inst, 1, &adv, &cfg, 2);
    let mut mono = GreedyForward::with_config(
        &inst,
        GreedyConfig {
            gather_mult: 2,
            broadcast_mult: 3,
        },
    );
    let direct = run(&mut mono, &mut ShuffledPathAdversary, &cfg, 2);
    assert_eq!(erased, direct, "erased dispatch must not perturb the run");
}

/// The record/replay acceptance check: a `.dct` trace recorded from a
/// stochastic scenario, replayed through the streaming replay adversary
/// *and* through `dynet`'s in-memory `ReplayAdversary`, reproduces the
/// original `RunResult` **exactly** — rounds, bits, and per-round
/// history. This works because the simulator feeds adversaries a private
/// RNG stream: swapping the live model for a replay leaves the
/// protocol's coins untouched.
#[test]
fn recorded_trace_replay_reproduces_the_run_exactly() {
    use dyncode::dynet::simulator::{run, SimConfig};
    use dyncode::dynet::trace::ReplayAdversary;
    use dyncode::prelude::*;
    use dyncode::scenarios::dct::decode_trace;
    use dyncode::scenarios::{record_scenario, DctReplay, ScenarioKind};
    use std::io::Cursor;

    let (n, seed) = (14, 9u64);
    let kind = ScenarioKind::parse("churn(0.15,edge-markov(0.1,0.3))").unwrap();
    let params = Params::new(n, n, 5, 10);
    let inst = Instance::generate(params, Placement::OneTokenPerNode, 3);
    let cfg = SimConfig::with_max_rounds(60 * n * n).recording();

    // The live run against the stochastic model.
    let mut live_adv = kind.build(1);
    let mut p1 = TokenForwarding::baseline(&inst);
    let live = run(&mut p1, live_adv.as_mut(), &cfg, seed);
    assert!(live.completed);

    // Record the schedule offline from the same seed (same private
    // adversary stream ⇒ same topologies), long enough to cover the run.
    let mut sink = Cursor::new(Vec::new());
    record_scenario(&kind, n, live.rounds + 5, seed, &mut sink).expect("record");
    let bytes = sink.into_inner();

    let fingerprint = |r: &RunResult| {
        (
            r.rounds,
            r.completed,
            r.total_bits,
            r.max_message_bits,
            r.history
                .iter()
                .map(|h| {
                    (
                        h.round,
                        h.edges,
                        h.bits,
                        h.min_dim,
                        h.max_dim,
                        h.total_tokens,
                        h.done,
                    )
                })
                .collect::<Vec<_>>(),
        )
    };

    // Streaming replay (.dct reader straight off the bytes).
    let mut replay = DctReplay::new(Cursor::new(bytes.clone())).expect("valid trace");
    let mut p2 = TokenForwarding::baseline(&inst);
    let replayed = run(&mut p2, &mut replay, &cfg, seed);
    assert_eq!(
        fingerprint(&live),
        fingerprint(&replayed),
        "streaming .dct replay must reproduce the RunResult exactly"
    );

    // In-memory replay through dynet's ReplayAdversary (decoded trace).
    let (_, trace) = decode_trace(&bytes).expect("decode");
    let mut replay2 = ReplayAdversary::new(trace);
    let mut p3 = TokenForwarding::baseline(&inst);
    let replayed2 = run(&mut p3, &mut replay2, &cfg, seed);
    assert_eq!(
        fingerprint(&live),
        fingerprint(&replayed2),
        "in-memory replay must reproduce the RunResult exactly"
    );
}
