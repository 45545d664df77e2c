//! Integration checks of the model's contracts: bit budgets under strict
//! accounting, adversary validation, and the Lemma 5.3 / Corollary 2.6
//! shape guarantees at integration scale.

use dyncode::core::spec::ProtocolSpec;
use dyncode::prelude::*;
use dyncode_dynet::adversaries::{RandomConnectedAdversary, ShuffledPathAdversary};
use dyncode_dynet::adversary::KnowledgeView;
use dyncode_dynet::Graph;
use rand::rngs::StdRng;

#[test]
fn every_protocol_respects_a_2b_message_budget() {
    // The paper allows O(b)-bit messages; all our protocols stay within
    // 2b (coded messages carry header + payload). Strict mode panics on
    // violation, so completing is the assertion.
    let params = Params::new(12, 12, 5, 15);
    let inst = Instance::generate(params, Placement::OneTokenPerNode, 3);
    let budget = 2 * params.b as u64;
    macro_rules! strict_run {
        ($proto:expr, $cap:expr) => {{
            let mut p = $proto;
            let mut adv = ShuffledPathAdversary;
            let r = run(
                &mut p,
                &mut adv,
                &SimConfig::with_max_rounds($cap).strict_bits(budget),
                5,
            );
            assert!(r.completed);
            assert!(r.max_message_bits <= budget);
        }};
    }
    strict_run!(TokenForwarding::baseline(&inst), 50_000);
    strict_run!(GreedyForward::new(&inst), 100_000);
    strict_run!(PriorityForward::new(&inst), 100_000);
    strict_run!(NaiveCoded::new(&inst), 100_000);
    strict_run!(Centralized::new(&inst), 20_000);
    // Indexed broadcast's wire is k + d bits by Lemma 5.3 (its own budget).
    let mut p = IndexedBroadcast::new(&inst);
    let wire = p.wire_bits();
    let mut adv = ShuffledPathAdversary;
    let r = run(
        &mut p,
        &mut adv,
        &SimConfig::with_max_rounds(20_000).strict_bits(wire),
        5,
    );
    assert!(r.completed);
}

#[test]
fn indexed_broadcast_scales_as_n_plus_k() {
    // Lemma 5.3 shape: rounds/(n + k) bounded across sizes.
    let mut ratios = Vec::new();
    for (n, k) in [(8usize, 8usize), (16, 16), (32, 32), (32, 8)] {
        let params = Params::new(n, k, 6, 64);
        let inst = Instance::generate(params, Placement::RoundRobin, 2);
        let mut p = IndexedBroadcast::new(&inst);
        let mut adv = ShuffledPathAdversary;
        let r = run(
            &mut p,
            &mut adv,
            &SimConfig::with_max_rounds(50 * (n + k)),
            7,
        );
        assert!(r.completed);
        ratios.push(r.rounds as f64 / (n + k) as f64);
    }
    let max = ratios.iter().cloned().fold(0.0f64, f64::max);
    assert!(max < 6.0, "rounds/(n+k) ratios {ratios:?} should stay O(1)");
}

#[test]
fn centralized_is_linear_while_forwarding_is_quadratic() {
    // Corollary 2.6 vs Theorem 2.1 at b = d: Θ(n) vs Θ(nk).
    let mut ratio_growth = Vec::new();
    for n in [12usize, 24, 48] {
        let params = Params::new(n, n, 8, 8);
        let inst = Instance::generate(params, Placement::OneTokenPerNode, 4);
        let mut c = Centralized::new(&inst);
        let mut adv = RandomConnectedAdversary::new(1);
        let rc = run(&mut c, &mut adv, &SimConfig::with_max_rounds(100 * n), 3);
        assert!(rc.completed);
        let mut f = TokenForwarding::baseline(&inst);
        let mut adv2 = RandomConnectedAdversary::new(1);
        let rf = run(&mut f, &mut adv2, &SimConfig::with_max_rounds(2 * n * n), 3);
        assert!(rf.completed);
        ratio_growth.push(rf.rounds as f64 / rc.rounds as f64);
    }
    // The forwarding/centralized gap must widen with n (≈ linearly).
    assert!(
        ratio_growth[2] > 1.5 * ratio_growth[0],
        "separation should grow with n: {ratio_growth:?}"
    );
}

struct DisconnectedAdversary;

impl Adversary for DisconnectedAdversary {
    fn name(&self) -> String {
        "disconnected".into()
    }
    fn topology(&mut self, _r: usize, view: &KnowledgeView, _g: &mut StdRng) -> Graph {
        Graph::empty(view.num_nodes())
    }
}

/// The message of the panic `run` must raise. The driver's checks are
/// stated once and reached by two state layouts, so each `should_panic`
/// test below feeds its contract a per-node protocol through here and
/// then lets an arena cell raise the panic the attribute expects.
fn panic_message(run: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .expect_err("the per-node run was accepted");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map_or(String::new(), |s| s.to_string()),
    }
}

/// `spec` on its arena cell (`Kernel::Fast`), against a fresh `adv`.
fn run_arena_cell<A: Adversary + 'static>(
    spec: &str,
    inst: &Instance,
    adv: fn() -> A,
    config: &SimConfig,
    seed: u64,
) -> RunResult {
    let spec = ProtocolSpec::parse(spec).expect(spec);
    let adv = || Box::new(adv()) as Box<dyn Adversary>;
    run_spec_kernel(&spec, inst, 1, &adv, config, seed, Kernel::Fast)
}

#[test]
#[should_panic(expected = "produced a disconnected graph at round 0")]
fn simulator_rejects_disconnected_topologies() {
    let params = Params::new(6, 6, 4, 8);
    let inst = Instance::generate(params, Placement::OneTokenPerNode, 1);
    let config = SimConfig::with_max_rounds(10);
    let msg = panic_message(|| {
        let mut p = TokenForwarding::baseline(&inst);
        run(&mut p, &mut DisconnectedAdversary, &config, 1);
    });
    assert!(msg.contains("disconnected graph at round 0"), "{msg}");
    run_arena_cell(
        "token-forwarding",
        &inst,
        || DisconnectedAdversary,
        &config,
        1,
    );
}

/// One connected path for rounds 0–4, then the empty graph. Oblivious, so
/// the driver hands it the blank view.
struct LateDisconnect;

impl Adversary for LateDisconnect {
    fn name(&self) -> String {
        "late-disconnect".into()
    }
    fn topology(&mut self, round: usize, view: &KnowledgeView, _g: &mut StdRng) -> Graph {
        if round < 5 {
            dyncode_dynet::generators::path(view.num_nodes())
        } else {
            Graph::empty(view.num_nodes())
        }
    }
    fn needs_view(&self) -> bool {
        false
    }
}

#[test]
#[should_panic(expected = "produced a disconnected graph at round 5")]
fn simulator_rejects_a_topology_that_disconnects_after_repeating() {
    // Rounds 1–4 repeat round 0's graph, which the driver searched when
    // it first loaded it and does not search again; the first *new* graph
    // must still be searched, and named by its own round.
    let params = Params::new(6, 6, 4, 8);
    let inst = Instance::generate(params, Placement::OneTokenPerNode, 1);
    let config = SimConfig::with_max_rounds(10);
    let msg = panic_message(|| {
        let mut p = TokenForwarding::baseline(&inst);
        run(&mut p, &mut LateDisconnect, &config, 1);
    });
    assert!(msg.contains("disconnected graph at round 5"), "{msg}");
    run_arena_cell("token-forwarding", &inst, || LateDisconnect, &config, 1);
}

/// Every adversary that says it reads no view gets the same blank one all
/// run long; that is sound only if a view full of knowledge would not
/// have changed a graph or a coin. Checked for every name the campaign
/// grammar registers (bare and `TStable`-wrapped, which is how `t > 1`
/// builds them) and for the adversaries only code constructs.
#[test]
fn oblivious_adversaries_ignore_the_view_and_adaptive_ones_say_so() {
    use dyncode::engine::campaign::AdversaryKind;
    use dyncode::scenarios::replay::{record_scenario_to_file, DctRecording};
    use dyncode::scenarios::{DctWriter, ScenarioKind};
    use dyncode_dynet::adversaries::{StaticAdversary, TIntervalAdversary};
    use dyncode_dynet::trace::{RecordingAdversary, ReplayAdversary};
    use rand::{RngExt, SeedableRng};

    const N: usize = 12;
    let dct = std::env::temp_dir().join(format!("dyncode-oblivious-{}.dct", std::process::id()));
    let scenario = ScenarioKind::parse("edge-markov(0.1,0.3)").unwrap();
    record_scenario_to_file(&scenario, N, 7, 5, &dct).unwrap();

    type Build = Box<dyn Fn() -> Box<dyn Adversary>>;
    let mut builds: Vec<(String, Build)> = Vec::new();
    for name in [
        "shuffled-path".to_string(),
        "shuffled-star".into(),
        "bottleneck".into(),
        "knowledge-adaptive".into(),
        "random-connected".into(),
        "edge-markov(0.05,0.2)".into(),
        "waypoint(0.35,0.05)".into(),
        "churn(0.2,random-connected)".into(),
        "churn(0.2,edge-markov(0.05,0.2))".into(),
        "churn(0.2,knowledge-adaptive)".into(),
        format!("trace({})", dct.display()),
    ] {
        for t in [1, 3] {
            let kind = AdversaryKind::parse(&name).expect(&name);
            builds.push((format!("{name} t={t}"), Box::new(move || kind.build(t))));
        }
    }
    let in_code: Vec<(&str, Build)> = vec![
        (
            "static-path",
            Box::new(|| Box::new(StaticAdversary::path(N))),
        ),
        (
            "t-interval",
            Box::new(|| Box::new(TIntervalAdversary::new(4, 2))),
        ),
        (
            "replay",
            Box::new(|| {
                let path = dyncode_dynet::generators::path(N);
                let star = dyncode_dynet::generators::star(N, 3);
                Box::new(ReplayAdversary::from_graphs(&[path, star]))
            }),
        ),
        (
            "recorded(shuffled-star)",
            Box::new(|| Box::new(RecordingAdversary::new(adversaries::ShuffledStarAdversary).0)),
        ),
        (
            "recorded(knowledge-adaptive)",
            Box::new(|| {
                Box::new(RecordingAdversary::new(adversaries::KnowledgeAdaptiveAdversary).0)
            }),
        ),
        (
            "dct-recorded(bottleneck)",
            Box::new(|| {
                let sink = DctWriter::new(std::io::Cursor::new(Vec::new()), N, 0).unwrap();
                Box::new(DctRecording::new(adversaries::BottleneckAdversary, sink))
            }),
        ),
    ];
    builds.extend(in_code.into_iter().map(|(name, b)| (name.to_string(), b)));

    let blank = KnowledgeView::blank(N, 0);
    let mut fill = StdRng::seed_from_u64(77);
    let mut full = KnowledgeView::blank(N, 8);
    for u in 0..N {
        for i in 0..8 {
            if fill.random() {
                full.tokens[u].insert(i);
            }
        }
        full.dims[u] = full.tokens[u].len();
        full.done[u] = fill.random();
    }

    let mut oblivious = 0;
    for (name, build) in &builds {
        let needs = build().needs_view();
        assert_eq!(
            needs,
            name.contains("knowledge-adaptive"),
            "{name}: needs_view() must be true exactly where knowledge is read"
        );
        if needs {
            continue;
        }
        oblivious += 1;
        let (mut on_blank, mut on_full) = (build(), build());
        let (mut rng_blank, mut rng_full) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        for round in 0..32 {
            assert_eq!(
                on_blank.topology(round, &blank, &mut rng_blank),
                on_full.topology(round, &full, &mut rng_full),
                "{name}: round {round} depends on the view"
            );
        }
        assert_eq!(rng_blank, rng_full, "{name}: coins depend on the view");
    }
    assert_eq!(oblivious, builds.len() - 5);
    std::fs::remove_file(&dct).unwrap();
}

#[test]
#[should_panic(expected = "exceeded the message budget")]
fn strict_accounting_rejects_over_budget_forwarding_messages() {
    // Error path of the O(b) accounting: token forwarding speaks d-bit
    // messages, so a (d-1)-bit budget must abort the run immediately.
    let params = Params::new(8, 8, 6, 12);
    let inst = Instance::generate(params, Placement::OneTokenPerNode, 2);
    let config = SimConfig::with_max_rounds(1_000).strict_bits(params.d as u64 - 1);
    let msg = panic_message(|| {
        let mut p = TokenForwarding::baseline(&inst);
        run(&mut p, &mut ShuffledPathAdversary, &config, 9);
    });
    assert!(msg.contains("exceeded the message budget"), "{msg}");
    run_arena_cell(
        "token-forwarding",
        &inst,
        || ShuffledPathAdversary,
        &config,
        9,
    );
}

#[test]
#[should_panic(expected = "exceeded the message budget")]
fn strict_accounting_rejects_indexed_broadcast_one_bit_short() {
    // The tightest possible violation: indexed broadcast's wire format is
    // exactly `wire_bits()` on every round, so a budget one bit below it
    // must be rejected (and, per the test above this one in the ok-path
    // suite, exactly `wire_bits()` is accepted).
    let params = Params::new(10, 10, 5, 15);
    let inst = Instance::generate(params, Placement::RoundRobin, 4);
    let wire = IndexedBroadcast::new(&inst).wire_bits();
    let config = SimConfig::with_max_rounds(10_000).strict_bits(wire - 1);
    let msg = panic_message(|| {
        let mut p = IndexedBroadcast::new(&inst);
        run(&mut p, &mut RandomConnectedAdversary::new(1), &config, 4);
    });
    assert!(msg.contains("exceeded the message budget"), "{msg}");
    let adv = || RandomConnectedAdversary::new(1);
    run_arena_cell("indexed-broadcast", &inst, adv, &config, 4);
}

#[test]
fn strict_accounting_charges_the_compose_step_not_delivery() {
    // The budget applies to what a node *broadcasts*; silence is free. A
    // run under a generous budget must report max_message_bits equal to
    // the largest composed message, and that maximum must be reached
    // (the accounting is tight, not an over-approximation).
    let params = Params::new(8, 8, 5, 10);
    let inst = Instance::generate(params, Placement::OneTokenPerNode, 6);
    let mut p = TokenForwarding::baseline(&inst);
    let mut adv = ShuffledPathAdversary;
    let r = run(
        &mut p,
        &mut adv,
        &SimConfig::with_max_rounds(50_000).strict_bits(10_000),
        6,
    );
    assert!(r.completed);
    assert!(r.max_message_bits > 0, "someone must have spoken");
    assert!(r.total_bits >= r.max_message_bits);
    // Re-running with the observed maximum as the budget must succeed:
    // the reported max is exactly the strictest passing budget.
    let mut p2 = TokenForwarding::baseline(&inst);
    let mut adv2 = ShuffledPathAdversary;
    let r2 = run(
        &mut p2,
        &mut adv2,
        &SimConfig::with_max_rounds(50_000).strict_bits(r.max_message_bits),
        6,
    );
    assert!(r2.completed);
    assert_eq!(r2.max_message_bits, r.max_message_bits);
}

#[test]
fn recorded_schedules_replay_across_protocols() {
    // Record the topologies one protocol saw; replay them for another:
    // paired comparison on the identical schedule.
    use dyncode_dynet::trace::{RecordingAdversary, ReplayAdversary};
    let params = Params::new(10, 10, 5, 10);
    let inst = Instance::generate(params, Placement::OneTokenPerNode, 8);

    let (mut rec, trace) = RecordingAdversary::new(ShuffledPathAdversary);
    let mut fwd = TokenForwarding::baseline(&inst);
    let r1 = run(&mut fwd, &mut rec, &SimConfig::with_max_rounds(50_000), 4);
    assert!(r1.completed);

    drop(rec); // last recorder handle: from_shared takes the trace without copying
    let mut replay = ReplayAdversary::from_shared(trace);
    let mut coded = GreedyForward::new(&inst);
    let r2 = run(
        &mut coded,
        &mut replay,
        &SimConfig::with_max_rounds(200_000),
        4,
    );
    assert!(r2.completed && fully_disseminated(&coded));
}
