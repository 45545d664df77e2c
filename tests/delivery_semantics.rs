//! The delivery-layer contract, locked end to end:
//!
//! * **Default transparency** — `delivery = reliable` is the legacy
//!   simulator, byte for byte: same artifact JSON as a campaign with no
//!   delivery axis at all (labels, meta, stats, per-round histories).
//! * **Private RNG stream** — delivery coins come from their own stream
//!   (`delivery_rng`), so a model that never erases (`lossy(eps=0)`)
//!   reproduces the reliable run exactly: protocol and adversary
//!   randomness are untouched by the extra draws.
//! * **Record → replay** — a `.dct` trace recorded from a stochastic
//!   scenario replays bit-exactly under radio and lossy models, because
//!   the delivery plan is a pure function of (seed, topology schedule).
//! * **Kernel equivalence** — fast == reference, histories compared
//!   element-wise, across the delivery grid.
//! * **Engine determinism** — a `delivery =` grid campaign is
//!   byte-identical at any thread count.

use dyncode::core::params::{Instance, Params, Placement};
use dyncode::core::runner::{run_spec_kernel, Kernel};
use dyncode::core::spec::ProtocolSpec;
use dyncode::dynet::adversary::Adversary;
use dyncode::dynet::simulator::{DeliverySpec, SimConfig};
use dyncode::engine::{run_campaign, AdversaryKind, Campaign, Engine};

/// An e21-style matrix spec, with an optional `delivery =` line.
fn matrix_campaign(delivery_line: &str) -> Campaign {
    let text = format!(
        "
        id = delivery-lock
        title = delivery byte-identity lock
        protocol = token-forwarding, pipelined-forwarding(4), greedy-forward
        protocol = priority-forward, naive-coded, indexed-broadcast
        protocol = field-broadcast(gf256), centralized
        adversaries = shuffled-path, bottleneck
        {delivery_line}
        n = 10
        k = n
        d = lgn+1
        b = 2d
        seeds = 1, 2
        cap = 100nn
        "
    );
    Campaign::parse(&text).expect("static campaign spec is valid")
}

#[test]
fn explicit_reliable_is_byte_identical_to_the_default() {
    let engine = Engine::new(4);
    let implicit = run_campaign(&engine, &matrix_campaign(""));
    let explicit = run_campaign(&engine, &matrix_campaign("delivery = reliable"));
    assert_eq!(
        implicit.to_json_string(),
        explicit.to_json_string(),
        "`delivery = reliable` must be the legacy simulator, byte for byte"
    );
    // And the elision invariant that makes it so: no label or meta entry
    // mentions the default model.
    for cell in &explicit.cells {
        assert!(!cell.label.contains("delivery"), "{}", cell.label);
        assert!(cell.meta.iter().all(|(k, _)| k != "delivery"));
    }
}

#[test]
fn lossy_eps_zero_reproduces_the_reliable_run_exactly() {
    // The private-stream lock: lossy(eps=0) draws one delivery coin per
    // (receiver, speaker) pair every round and never erases. If those
    // draws shared the protocol or adversary stream, every downstream
    // coin would shift and the runs would diverge.
    let spec = ProtocolSpec::parse("field-broadcast(gf256)").unwrap();
    let inst = Instance::generate(Params::new(12, 12, 6, 12), Placement::OneTokenPerNode, 7);
    for adv_s in [
        "shuffled-path",
        "knowledge-adaptive",
        "edge-markov(0.1,0.3)",
    ] {
        let kind = AdversaryKind::parse(adv_s).unwrap();
        let adv = || kind.build(1) as Box<dyn Adversary>;
        let reliable_cfg = SimConfig::with_max_rounds(60 * 12 * 12).recording();
        let lossy_cfg = reliable_cfg
            .clone()
            .with_delivery(DeliverySpec::Lossy { eps: 0.0 });
        for seed in [1u64, 2, 3] {
            let reliable = run_spec_kernel(
                &spec,
                &inst,
                1,
                &adv,
                &reliable_cfg,
                seed,
                Kernel::Reference,
            );
            let lossy = run_spec_kernel(&spec, &inst, 1, &adv, &lossy_cfg, seed, Kernel::Reference);
            assert!(reliable.completed);
            assert_eq!(reliable, lossy, "{adv_s} seed {seed}");
        }
    }
}

#[test]
fn trace_replay_reproduces_runs_under_delivery_models() {
    use dyncode::prelude::*;
    use dyncode::scenarios::{record_scenario, DctReplay, ScenarioKind};
    use std::io::Cursor;

    let (n, seed) = (12, 5u64);
    let kind = ScenarioKind::parse("churn(0.15,edge-markov(0.1,0.3))").unwrap();
    let params = Params::new(n, n, 5, 10);
    let inst = Instance::generate(params, Placement::OneTokenPerNode, 3);

    for delivery in [
        DeliverySpec::Lossy { eps: 0.3 },
        DeliverySpec::Radio { p: 0.5, spont: 0.0 },
        DeliverySpec::Radio {
            p: 0.3,
            spont: 0.05,
        },
    ] {
        // A short cap keeps the recorded trace small; one-shot
        // forwarding may stall under collisions, and the censored run
        // must replay exactly too.
        let cfg = SimConfig::with_max_rounds(40 * n)
            .recording()
            .with_delivery(delivery.clone());
        let mut live_adv = kind.build(1);
        let mut p1 = TokenForwarding::baseline(&inst);
        let live = run(&mut p1, live_adv.as_mut(), &cfg, seed);

        let mut sink = Cursor::new(Vec::new());
        record_scenario(&kind, n, live.rounds + 5, seed, &mut sink).expect("record");
        let bytes = sink.into_inner();

        let mut replay = DctReplay::new(Cursor::new(bytes)).expect("valid trace");
        let mut p2 = TokenForwarding::baseline(&inst);
        let mut replayed = run(&mut p2, &mut replay, &cfg, seed);
        // The adversary *name* legitimately differs ("trace-replay(…)");
        // every simulated quantity must be bit-identical.
        replayed.adversary = live.adversary.clone();
        assert_eq!(
            live, replayed,
            "{delivery}: .dct replay must reproduce the RunResult exactly"
        );
    }
}

#[test]
fn fast_matches_reference_across_the_delivery_grid() {
    // Every fast-cell family (packed forwarding, GF(2)/GF(256)/dense
    // field cells, the erased fallback) under every delivery model. The
    // flood-staged protocols (greedy, priority, naive-coded) are absent:
    // their debug invariants assume reliable flooding, which degraded
    // channels legitimately violate.
    let specs = [
        "token-forwarding",
        "pipelined-forwarding(4)",
        "indexed-broadcast",
        "field-broadcast(gf2)",
        "field-broadcast(gf256)",
        "field-broadcast(gf257)",
        "field-broadcast(m61)",
        "centralized",
    ];
    let deliveries = [
        DeliverySpec::Lossy { eps: 0.1 },
        DeliverySpec::Lossy { eps: 0.3 },
        DeliverySpec::Radio { p: 0.2, spont: 0.0 },
        DeliverySpec::Radio { p: 0.5, spont: 0.0 },
        DeliverySpec::Radio {
            p: 0.3,
            spont: 0.05,
        },
    ];
    let n = 8;
    let d = 5;
    let inst = Instance::generate(Params::new(n, n, d, 2 * d), Placement::OneTokenPerNode, 42);
    for spec_s in specs {
        let spec = ProtocolSpec::parse(spec_s).expect(spec_s);
        for delivery in &deliveries {
            for (adv_s, seed) in [("shuffled-path", 1u64), ("edge-markov(0.1,0.3)", 2)] {
                let kind = AdversaryKind::parse(adv_s).unwrap();
                let adv = || kind.build(1) as Box<dyn Adversary>;
                let cfg = SimConfig::with_max_rounds(60 * n * n)
                    .recording()
                    .with_delivery(delivery.clone());
                let reference =
                    run_spec_kernel(&spec, &inst, 1, &adv, &cfg, seed, Kernel::Reference);
                let fast = run_spec_kernel(&spec, &inst, 1, &adv, &cfg, seed, Kernel::Fast);
                for (r, f) in reference.history.iter().zip(&fast.history) {
                    assert_eq!(r, f, "{spec_s} × {adv_s} × {delivery} seed {seed}");
                }
                assert_eq!(
                    reference, fast,
                    "{spec_s} × {adv_s} × {delivery} seed {seed}"
                );
            }
        }
    }
}

#[test]
fn delivery_grid_campaign_is_thread_invariant() {
    let text = "
        id = delivery-grid
        title = delivery grid determinism
        protocol = token-forwarding, field-broadcast(gf2)
        adversaries = shuffled-path, bottleneck
        delivery = reliable, lossy(eps=0.2), radio(p=0.4)
        kernel = auto
        n = 8, 12
        k = n
        d = lgn+1
        b = 2d
        seeds = 1, 2, 3
        cap = 40nn
        ";
    let campaign = Campaign::parse(text).expect("static campaign spec is valid");
    assert_eq!(
        campaign.cells().len(),
        2 * 3 * 2 * 2,
        "n × delivery × proto × adv"
    );
    let serial = run_campaign(&Engine::new(1), &campaign);
    let parallel = run_campaign(&Engine::new(8), &campaign);
    assert_eq!(
        serial.to_json_string(),
        parallel.to_json_string(),
        "delivery-grid artifact differs between 1 and 8 threads"
    );
    // Labels and meta carry the delivery spec exactly when non-default.
    let labelled = serial
        .cells
        .iter()
        .filter(|c| c.label.contains("delivery="))
        .count();
    assert_eq!(
        labelled,
        2 * 2 * 2 * 2,
        "two non-default models per (n, proto, adv)"
    );
    for cell in &serial.cells {
        let meta = cell.meta.iter().find(|(k, _)| k == "delivery");
        match meta {
            Some((_, v)) => assert!(cell.label.contains(&format!("delivery={v}"))),
            None => assert!(!cell.label.contains("delivery=")),
        }
    }
}
