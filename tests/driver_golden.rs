//! The round driver's oracle. Since `simulator::run` became a per-node
//! adapter on the one driver, "reference == fast" compares two *state
//! layouts* on the same loop and can no longer catch a change to the
//! loop itself. This file pins what the loop produced **at the last
//! commit that still had a separate reference loop** (recorded there
//! through `Kernel::Reference`): `(rounds, completed, total_bits,
//! max_message_bits, hash of the history rows)` for a small fixed grid of
//! protocol × adversary (at T = 4) × delivery model, asserted on both
//! kernels.
//!
//! On a mismatch the test prints the whole table in source form; paste
//! it over `GOLDEN` only when the change to the model is intended.

use dyncode::core::params::{Instance, Params, Placement};
use dyncode::core::runner::{run_spec_kernel, Kernel};
use dyncode::core::spec::ProtocolSpec;
use dyncode::dynet::adversary::Adversary;
use dyncode::dynet::simulator::{DeliverySpec, RunResult, SimConfig};
use dyncode::engine::AdversaryKind;

const SPECS: [&str; 5] = [
    "token-forwarding",
    "greedy-forward",
    "field-broadcast(gf257)",
    "field-broadcast(gf2,det=7)",
    "quorum-decide(f=2,q=4)",
];
const ADVERSARIES: [&str; 3] = [
    "shuffled-path",
    "knowledge-adaptive",
    "edge-markov(0.1,0.3)",
];
const DELIVERIES: [&str; 3] = ["reliable", "radio(p=0.5)", "lossy(eps=0.2)"];

const N: usize = 12;
const T: usize = 4;
const SEED: u64 = 7;
/// Low enough that the cells radio collisions deadlock (one-shot
/// forwarding never re-sends a collided token) end quickly; the capped
/// outcome is pinned like any other.
const CAP: usize = 3_000;

/// `(rounds, completed, total_bits, max_message_bits, history hash)`.
type Pin = (usize, bool, u64, u64, u64);

/// FNV-1a over every field of every history row, in order.
fn history_hash(r: &RunResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for row in &r.history {
        for x in [
            row.round as u64,
            row.edges as u64,
            row.bits,
            row.min_dim as u64,
            row.max_dim as u64,
            row.total_tokens as u64,
            row.done as u64,
        ] {
            eat(x);
        }
    }
    h
}

fn pin(r: &RunResult) -> Pin {
    assert_eq!(r.history.len(), r.rounds, "one history row per round");
    (
        r.rounds,
        r.completed,
        r.total_bits,
        r.max_message_bits,
        history_hash(r),
    )
}

/// Row order: spec-major, then adversary, then delivery model (39 rows:
/// greedy-forward runs under `reliable` only).
#[rustfmt::skip]
const GOLDEN: &[Pin] = &[
    (72, true, 10092, 12, 14173622337771695573), // token-forwarding × shuffled-path × reliable
    (3000, false, 6672, 12, 4567022497817584799), // token-forwarding × shuffled-path × radio(p=0.5)
    (72, true, 10062, 12, 3690293695411694764), // token-forwarding × shuffled-path × lossy(eps=0.2)
    (72, true, 9570, 12, 9131245547130029567), // token-forwarding × knowledge-adaptive × reliable
    (3000, false, 4356, 12, 13803964772363026655), // token-forwarding × knowledge-adaptive × radio(p=0.5)
    (72, true, 10038, 12, 1935624644370144849), // token-forwarding × knowledge-adaptive × lossy(eps=0.2)
    (72, true, 10182, 12, 9215750619322844230), // token-forwarding × edge-markov(0.1,0.3) × reliable
    (3000, false, 3840, 12, 1847192714774107264), // token-forwarding × edge-markov(0.1,0.3) × radio(p=0.5)
    (72, true, 10068, 12, 6463629521724933669), // token-forwarding × edge-markov(0.1,0.3) × lossy(eps=0.2)
    (108, true, 13770, 18, 12707914652602133923), // greedy-forward × shuffled-path × reliable
    (108, true, 12456, 18, 5300090706758545188), // greedy-forward × knowledge-adaptive × reliable
    (108, true, 13950, 18, 10003516465466981374), // greedy-forward × edge-markov(0.1,0.3) × reliable
    (9, true, 12636, 117, 9096122989487006469), // field-broadcast(gf257) × shuffled-path × reliable
    (67, true, 94068, 117, 14901328751752856672), // field-broadcast(gf257) × shuffled-path × radio(p=0.5)
    (11, true, 15444, 117, 16100241658558263678), // field-broadcast(gf257) × shuffled-path × lossy(eps=0.2)
    (11, true, 15444, 117, 15960158594532773852), // field-broadcast(gf257) × knowledge-adaptive × reliable
    (139, true, 195156, 117, 17348346721747331052), // field-broadcast(gf257) × knowledge-adaptive × radio(p=0.5)
    (17, true, 23868, 117, 2243278425882921852), // field-broadcast(gf257) × knowledge-adaptive × lossy(eps=0.2)
    (10, true, 14040, 117, 14680068104496603705), // field-broadcast(gf257) × edge-markov(0.1,0.3) × reliable
    (105, true, 147420, 117, 12759526298272768014), // field-broadcast(gf257) × edge-markov(0.1,0.3) × radio(p=0.5)
    (11, true, 15444, 117, 6718873934890249924), // field-broadcast(gf257) × edge-markov(0.1,0.3) × lossy(eps=0.2)
    (17, true, 3672, 18, 2870375359708712830), // field-broadcast(gf2,det=7) × shuffled-path × reliable
    (83, true, 17928, 18, 9376442110976428325), // field-broadcast(gf2,det=7) × shuffled-path × radio(p=0.5)
    (18, true, 3888, 18, 1285977018121694914), // field-broadcast(gf2,det=7) × shuffled-path × lossy(eps=0.2)
    (20, true, 4320, 18, 13052567022172178379), // field-broadcast(gf2,det=7) × knowledge-adaptive × reliable
    (184, true, 39744, 18, 14164552206861297902), // field-broadcast(gf2,det=7) × knowledge-adaptive × radio(p=0.5)
    (17, true, 3672, 18, 12079714616513859535), // field-broadcast(gf2,det=7) × knowledge-adaptive × lossy(eps=0.2)
    (13, true, 2808, 18, 10629489785970908059), // field-broadcast(gf2,det=7) × edge-markov(0.1,0.3) × reliable
    (110, true, 23760, 18, 7708955821805036432), // field-broadcast(gf2,det=7) × edge-markov(0.1,0.3) × radio(p=0.5)
    (17, true, 3672, 18, 12373774539229990746), // field-broadcast(gf2,det=7) × edge-markov(0.1,0.3) × lossy(eps=0.2)
    (9, true, 41472, 384, 10115568315309937374), // quorum-decide(f=2,q=4) × shuffled-path × reliable
    (51, true, 235008, 384, 4834331704529679448), // quorum-decide(f=2,q=4) × shuffled-path × radio(p=0.5)
    (11, true, 50688, 384, 7002112245141426063), // quorum-decide(f=2,q=4) × shuffled-path × lossy(eps=0.2)
    (10, true, 46080, 384, 15113315430589247321), // quorum-decide(f=2,q=4) × knowledge-adaptive × reliable
    (80, true, 368640, 384, 9698769423419023103), // quorum-decide(f=2,q=4) × knowledge-adaptive × radio(p=0.5)
    (12, true, 55296, 384, 14125991345695682028), // quorum-decide(f=2,q=4) × knowledge-adaptive × lossy(eps=0.2)
    (8, true, 36864, 384, 2895789202950166573), // quorum-decide(f=2,q=4) × edge-markov(0.1,0.3) × reliable
    (81, true, 373248, 384, 14969762221919438381), // quorum-decide(f=2,q=4) × edge-markov(0.1,0.3) × radio(p=0.5)
    (8, true, 36864, 384, 13839845547304538777), // quorum-decide(f=2,q=4) × edge-markov(0.1,0.3) × lossy(eps=0.2)
];

#[test]
fn the_driver_reproduces_the_recorded_reference_loop() {
    let inst = Instance::generate(Params::new(N, N, 6, 12), Placement::OneTokenPerNode, 42);
    let mut table = String::new();
    let mut mismatches = Vec::new();
    let mut row = 0;
    for spec_s in SPECS {
        let spec = ProtocolSpec::parse(spec_s).expect(spec_s);
        for adv_s in ADVERSARIES {
            let kind = AdversaryKind::parse(adv_s).expect(adv_s);
            let adv = || kind.build(T) as Box<dyn Adversary>;
            for delivery_s in DELIVERIES {
                // greedy-forward's stages flood a maximum and debug-assert
                // that the flood converged within n rounds, which only
                // reliable delivery guarantees (the documented reason the
                // flood-staged protocols stay off delivery grids).
                if spec_s == "greedy-forward" && delivery_s != "reliable" {
                    continue;
                }
                let cfg = SimConfig::with_max_rounds(CAP)
                    .recording()
                    .with_delivery(DeliverySpec::parse(delivery_s).expect(delivery_s));
                let cell = format!("{spec_s} × {adv_s} × {delivery_s}");
                // `Auto` is the arena cell wherever one exists: every spec
                // here, the det= schedule on `Gf2Cell` under advice.
                for kernel in [Kernel::Reference, Kernel::Auto] {
                    let got = pin(&run_spec_kernel(&spec, &inst, T, &adv, &cfg, SEED, kernel));
                    if kernel == Kernel::Reference {
                        table.push_str(&format!("    {got:?}, // {cell}\n"));
                    }
                    if GOLDEN.get(row) != Some(&got) {
                        mismatches.push(format!("{cell} on {kernel}: {got:?}"));
                    }
                }
                row += 1;
            }
        }
    }
    assert_eq!(row, GOLDEN.len(), "grid and table sizes differ");
    assert!(
        mismatches.is_empty(),
        "the driver diverged from the recorded runs:\n{}\nthis tree's table:\n{table}",
        mismatches.join("\n")
    );
}
