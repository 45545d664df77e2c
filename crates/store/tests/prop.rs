//! Property tests for cache-key stability (the store's correctness
//! hinges on these):
//!
//! * **Re-parse invariance** — a protocol spec or adversary re-parsed
//!   from its canonical string produces the *same* cell key, so keys
//!   computed from `.camp` text, CLI flags, or in-memory specs agree.
//! * **Field sensitivity** — changing any determinant of a run (any grid
//!   coordinate, placement, adversary, protocol, kernel backend, history
//!   flag, instance seed, or simulator seed) changes the digest, so no
//!   two distinct runs can collide on a cache slot by construction.

use dyncode_core::params::{Params, Placement};
use dyncode_engine::{AdversaryKind, CellSpec, ClassicKind, DeliverySpec, Kernel, ProtocolSpec};
use dyncode_store::CellKey;
use proptest::prelude::*;

/// Canonical protocol spec strings across every registry family, with
/// generated parameters.
fn proto_string() -> BoxedStrategy<String> {
    prop_oneof![
        Just("token-forwarding".to_string()),
        (1usize..20).prop_map(|t| format!("pipelined-forwarding({t})")),
        Just("greedy-forward".to_string()),
        Just("priority-forward".to_string()),
        (1usize..100).prop_map(|r| format!("random-forward(rounds={r})")),
        Just("random-forward(rounds=auto)".to_string()),
        Just("naive-coded".to_string()),
        Just("indexed-broadcast".to_string()),
        prop_oneof![Just("gf2"), Just("gf256"), Just("gf257"), Just("m61")]
            .prop_map(|f| format!("field-broadcast({f})")),
        (
            prop_oneof![Just("gf2"), Just("gf256"), Just("gf257"), Just("m61")],
            any::<u64>()
        )
            .prop_map(|(f, s)| format!("field-broadcast({f},det={s})")),
        Just("centralized".to_string()),
        Just("patch-indexed".to_string()),
        (1usize..8).prop_map(|f| format!("quorum-watermark(f={f})")),
        (1usize..8, 1usize..64).prop_map(|(f, r)| format!("quorum-watermark(f={f},rounds={r})")),
        (1usize..8, 1usize..64).prop_map(|(f, q)| format!("quorum-decide(f={f},q={q})")),
    ]
    .boxed()
}

/// Canonical adversary names: every classic kind plus parameterized
/// scenarios (per-mille integers keep the float rendering exact).
fn adversary_name() -> BoxedStrategy<String> {
    prop_oneof![
        Just("shuffled-path".to_string()),
        Just("shuffled-star".to_string()),
        Just("bottleneck".to_string()),
        Just("knowledge-adaptive".to_string()),
        Just("random-connected".to_string()),
        (1u32..400, 0u32..1000).prop_map(|(up, down)| format!(
            "edge-markov({},{})",
            up as f64 / 1000.0,
            down as f64 / 1000.0
        )),
        (10u32..800, 1u32..300).prop_map(|(r, s)| format!(
            "waypoint({},{})",
            r as f64 / 1000.0,
            s as f64 / 1000.0
        )),
    ]
    .boxed()
}

fn placement() -> BoxedStrategy<Placement> {
    prop_oneof![
        Just(Placement::OneTokenPerNode),
        Just(Placement::RoundRobin),
        (0usize..32).prop_map(Placement::AllAtNode),
        (1usize..32).prop_map(Placement::Clustered),
    ]
    .boxed()
}

fn kernel() -> BoxedStrategy<Kernel> {
    prop_oneof![
        Just(Kernel::Reference),
        Just(Kernel::Fast),
        Just(Kernel::Auto)
    ]
    .boxed()
}

/// Canonical delivery specs across every registry model (per-mille
/// integers keep the float rendering exact, like `adversary_name`).
fn delivery() -> BoxedStrategy<DeliverySpec> {
    prop_oneof![
        Just(DeliverySpec::Reliable),
        (1u32..=1000).prop_map(|p| DeliverySpec::Radio {
            p: p as f64 / 1000.0,
            spont: 0.0,
        }),
        (1u32..=1000, 1u32..1000).prop_map(|(p, s)| DeliverySpec::Radio {
            p: p as f64 / 1000.0,
            spont: s as f64 / 1000.0,
        }),
        (0u32..1000).prop_map(|e| DeliverySpec::Lossy {
            eps: e as f64 / 1000.0,
        }),
    ]
    .boxed()
}

/// An arbitrary cell spec; keys are pure string functions, so the grid
/// point needs no cross-field validation.
fn cell_spec() -> BoxedStrategy<CellSpec> {
    (
        (
            proto_string(),
            adversary_name(),
            placement(),
            kernel(),
            any::<bool>(),
            delivery(),
        ),
        (2usize..64, 1usize..64, 1usize..512, 1usize..512),
        (1usize..16, 1usize..10_000, any::<u64>()),
    )
        .prop_map(
            |((proto, adv, placement, kernel, hist, delivery), (n, k, d, b), (t, cap, iseed))| {
                CellSpec {
                    params: Params { n, k, d, b },
                    t,
                    adversary: AdversaryKind::parse(&adv).expect("generated adversary parses"),
                    placement,
                    protocol: ProtocolSpec::parse(&proto).expect("generated protocol parses"),
                    cap,
                    instance_seed: iseed,
                    kernel,
                    record_history: hist,
                    delivery,
                }
            },
        )
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// parse ∘ Display = id at the key level: re-parsing a cell's
    /// protocol spec and adversary from their canonical strings yields
    /// the same canonical key and digest.
    #[test]
    fn keys_survive_a_reparse_round_trip(cell in cell_spec(), seed in any::<u64>()) {
        let mut reparsed = cell.clone();
        reparsed.protocol = ProtocolSpec::parse(&cell.protocol.to_string())
            .expect("canonical protocol string re-parses");
        reparsed.adversary = AdversaryKind::parse(&cell.adversary.name())
            .expect("canonical adversary name re-parses");
        reparsed.delivery = DeliverySpec::parse(&cell.delivery.to_string())
            .expect("canonical delivery spec re-parses");
        prop_assert_eq!(
            CellKey::new(&cell, seed).canonical(),
            CellKey::new(&reparsed, seed).canonical()
        );
        prop_assert_eq!(
            CellKey::new(&cell, seed).digest_hex(),
            CellKey::new(&reparsed, seed).digest_hex()
        );
    }

    /// Changing any single determinant changes the digest. (`auto` vs an
    /// explicit kernel is exercised separately below, since resolution
    /// deliberately aliases them.)
    #[test]
    fn every_field_change_alters_the_digest(cell in cell_spec(), seed in any::<u64>()) {
        let base = CellKey::new(&cell, seed);
        prop_assert_eq!(base.digest_hex().len(), 64);

        let mut variants: Vec<CellSpec> = Vec::new();
        for f in [
            |c: &mut CellSpec| c.params.n += 1,
            |c: &mut CellSpec| c.params.k += 1,
            |c: &mut CellSpec| c.params.d += 1,
            |c: &mut CellSpec| c.params.b += 1,
            |c: &mut CellSpec| c.t += 1,
            |c: &mut CellSpec| c.cap += 1,
            |c: &mut CellSpec| c.instance_seed = c.instance_seed.wrapping_add(1),
            |c: &mut CellSpec| c.record_history = !c.record_history,
            |c: &mut CellSpec| {
                c.placement = match c.placement {
                    Placement::OneTokenPerNode => Placement::RoundRobin,
                    _ => Placement::OneTokenPerNode,
                }
            },
            |c: &mut CellSpec| {
                c.adversary = if c.adversary == AdversaryKind::Classic(ClassicKind::Bottleneck) {
                    AdversaryKind::Classic(ClassicKind::ShuffledStar)
                } else {
                    AdversaryKind::Classic(ClassicKind::Bottleneck)
                }
            },
            |c: &mut CellSpec| {
                c.protocol = if c.protocol == ProtocolSpec::Centralized {
                    ProtocolSpec::NaiveCoded
                } else {
                    ProtocolSpec::Centralized
                }
            },
            |c: &mut CellSpec| {
                c.delivery = match c.delivery {
                    // reliable → radio, radio → a different p, lossy → a
                    // different eps: every arm changes the delivery axis.
                    DeliverySpec::Reliable => DeliverySpec::Radio { p: 0.5, spont: 0.0 },
                    DeliverySpec::Radio { p, spont } => DeliverySpec::Radio {
                        p: if p == 0.5 { 0.25 } else { 0.5 },
                        spont,
                    },
                    DeliverySpec::Lossy { eps } => DeliverySpec::Lossy {
                        eps: if eps == 0.5 { 0.25 } else { 0.5 },
                    },
                }
            },
        ] {
            let mut v = cell.clone();
            f(&mut v);
            variants.push(v);
        }
        for v in &variants {
            prop_assert_ne!(base.digest_hex(), CellKey::new(v, seed).digest_hex());
        }
        // A different simulator seed is a different slot too.
        prop_assert_ne!(
            base.digest_hex(),
            CellKey::new(&cell, seed.wrapping_add(1)).digest_hex()
        );
    }

    /// The default delivery model is **elided** from the canonical
    /// string: a `reliable` cell keys exactly like a pre-delivery-axis
    /// cell (its canonical carries no `delivery=` segment), so warm
    /// caches written before the axis existed keep hitting. Any
    /// non-default model keys to a fresh slot.
    #[test]
    fn reliable_delivery_collides_with_legacy_keys(cell in cell_spec(), seed in any::<u64>()) {
        let mut reliable = cell.clone();
        reliable.delivery = DeliverySpec::Reliable;
        let key = CellKey::new(&reliable, seed);
        prop_assert!(!key.canonical().contains("delivery="));

        let mut radio = cell.clone();
        radio.delivery = DeliverySpec::Radio { p: 0.5, spont: 0.0 };
        let radio_key = CellKey::new(&radio, seed);
        prop_assert!(radio_key.canonical().contains("|delivery=radio(p=0.5)|"));
        prop_assert_ne!(key.digest_hex(), radio_key.digest_hex());
    }

    /// Kernel aliasing is exactly the equivalence contract: `reference`
    /// and `fast` always key differently, while `auto` shares a slot
    /// with whichever backend it resolves to.
    #[test]
    fn kernel_keys_follow_resolution(cell in cell_spec(), seed in any::<u64>()) {
        let with = |k: Kernel| {
            let mut c = cell.clone();
            c.kernel = k;
            CellKey::new(&c, seed)
        };
        let reference = with(Kernel::Reference);
        let fast = with(Kernel::Fast);
        let auto = with(Kernel::Auto);
        prop_assert_ne!(reference.digest_hex(), fast.digest_hex());
        prop_assert!(
            auto.digest_hex() == reference.digest_hex()
                || auto.digest_hex() == fast.digest_hex()
        );
    }
}

/// Every quorum spec parameter is key-relevant: changing `f`, `rounds`,
/// or `q` — or crossing between the two quorum families, or to a
/// non-quorum family — lands on a distinct digest. (The elided default
/// `rounds=8` must alias the explicit form, since they are the same spec
/// value.)
#[test]
fn quorum_parameters_are_digest_sensitive() {
    let cell_with = |proto: &str| {
        let c = CellSpec {
            params: Params {
                n: 16,
                k: 16,
                d: 5,
                b: 10,
            },
            t: 1,
            adversary: AdversaryKind::Classic(ClassicKind::ShuffledPath),
            placement: Placement::OneTokenPerNode,
            protocol: ProtocolSpec::parse(proto).expect(proto),
            cap: 1000,
            instance_seed: 7,
            kernel: Kernel::Reference,
            record_history: false,
            delivery: DeliverySpec::Reliable,
        };
        CellKey::new(&c, 3).digest_hex().to_string()
    };
    let distinct = [
        "quorum-watermark(f=1)",
        "quorum-watermark(f=2)",
        "quorum-watermark(f=1,rounds=16)",
        "quorum-decide(f=1,q=4)",
        "quorum-decide(f=2,q=4)",
        "quorum-decide(f=1,q=5)",
        "token-forwarding",
    ];
    let digests: Vec<String> = distinct.iter().map(|p| cell_with(p)).collect();
    for i in 0..digests.len() {
        for j in i + 1..digests.len() {
            assert_ne!(
                digests[i], digests[j],
                "{} and {} must not share a cache slot",
                distinct[i], distinct[j]
            );
        }
    }
    assert_eq!(
        cell_with("quorum-watermark(f=3)"),
        cell_with("quorum-watermark(f=3,rounds=8)"),
        "the elided default rounds=8 is the same spec value"
    );
}
