//! The kernel equivalence contract: for every **eligible** spec ×
//! adversary × seed, the arena-backed fast backend (`dyncode-kernel`)
//! produces a `RunResult` **bit-identical** to the reference simulator's —
//! rounds, completion, total bits, max message bits, and the per-round
//! history compared element-wise. This is the PR-5 analogue of PR 3's
//! replay == record and PR 4's erased == mono contracts: committed
//! baselines stay valid no matter which backend produced them.
//!
//! The matrix covers the worst-case families (shuffled path/star, the
//! knowledge-*adaptive* adversary — the sharpest probe of view
//! equivalence, since its topology choices branch on the per-round
//! `KnowledgeView`) and the stochastic workloads (edge-Markov, churn),
//! both fully dynamic and T-stable.

use dyncode::core::params::{Instance, Params, Placement};
use dyncode::core::runner::{
    build_fast_cell, fast_eligible, resolve_kernel, run_spec_kernel, Kernel,
};
use dyncode::core::spec::ProtocolSpec;
use dyncode::dynet::adversary::Adversary;
use dyncode::dynet::simulator::{DeliverySpec, SimConfig};
use dyncode::engine::AdversaryKind;
use proptest::prelude::*;

const ELIGIBLE: &[&str] = &[
    "token-forwarding",
    "pipelined-forwarding",
    "pipelined-forwarding(8)",
    "greedy-forward",
    "priority-forward",
    "random-forward",
    "naive-coded",
    "indexed-broadcast",
    "field-broadcast(gf2)",
    "field-broadcast(gf256)",
    "field-broadcast(gf257)",
    "field-broadcast(m61)",
    "field-broadcast(gf2,det=1)",
    "field-broadcast(gf256,det=7)",
    "field-broadcast(gf257,det=7)",
    "field-broadcast(m61,det=3)",
    "centralized",
];

const ADVERSARIES: &[&str] = &[
    "shuffled-path",
    "shuffled-star",
    "knowledge-adaptive",
    "edge-markov(0.1,0.3)",
    "churn(0.15,random-connected)",
];

/// Runs one cell on both backends and asserts bit-identity, histories
/// included.
fn assert_equivalent(spec_s: &str, adv_s: &str, n: usize, t: usize, seed: u64) {
    // random-forward forwards forever (it never completes), so the full
    // 200n² cap would only replay tens of thousands of silent rounds; a
    // short cap checks the same bit-identity without the wait.
    let cap = if spec_s == "random-forward" {
        40 * n
    } else {
        200 * n * n
    };
    assert_equivalent_sized(spec_s, adv_s, n, t, seed, 2, cap);
}

/// [`assert_equivalent`] with ⌊b/d⌋ = `per_msg` and a round cap of `cap`.
fn assert_equivalent_sized(
    spec_s: &str,
    adv_s: &str,
    n: usize,
    t: usize,
    seed: u64,
    per_msg: usize,
    cap: usize,
) {
    let spec = ProtocolSpec::parse(spec_s).expect(spec_s);
    let kind = AdversaryKind::parse(adv_s).expect(adv_s);
    // d = ⌈lg n⌉ + 2: distinct d-bit values for k = n tokens at any n here.
    let d = (usize::BITS - (n.max(2) - 1).leading_zeros()) as usize + 2;
    let params = Params::new(n, n, d, per_msg * d);
    let inst = Instance::generate(params, Placement::OneTokenPerNode, 42);
    let cfg = SimConfig::with_max_rounds(cap).recording();
    let adv = || kind.build(t) as Box<dyn Adversary>;
    let reference = run_spec_kernel(&spec, &inst, t, &adv, &cfg, seed, Kernel::Reference);
    let fast = run_spec_kernel(&spec, &inst, t, &adv, &cfg, seed, Kernel::Fast);
    assert_eq!(
        reference.history.len(),
        fast.history.len(),
        "{spec_s} × {adv_s} n={n} t={t} seed={seed}: history length"
    );
    for (r, f) in reference.history.iter().zip(&fast.history) {
        assert_eq!(r, f, "{spec_s} × {adv_s} n={n} t={t} seed={seed}");
    }
    assert_eq!(
        reference, fast,
        "{spec_s} × {adv_s} n={n} t={t} seed={seed}"
    );
    // Most cells complete (exercising the dissemination postcondition on
    // both backends); the ones that legitimately hit the cap — e.g. a
    // T = 8 pipelined schedule against a fully dynamic adversary — cover
    // the incomplete-run path, which must agree bit for bit too.
}

#[test]
fn exhaustive_small_matrix() {
    // Every eligible spec against every adversary family, fully dynamic.
    for spec in ELIGIBLE {
        for adv in ADVERSARIES {
            assert_equivalent(spec, adv, 8, 1, 1);
        }
    }
}

#[test]
fn prime_field_cells_match_above_the_fold_boundary() {
    // The randomized matrix below draws n = k < 20, so no basis there ever
    // gathers more than 32 terms — M61's deferred reduction folds its
    // lanes every 32. n = k = 40 reduces and composes across that edge,
    // from the protocol RNG and from the advice streams alike.
    for spec in [
        "field-broadcast(m61)",
        "field-broadcast(gf257)",
        "field-broadcast(m61,det=3)",
        "field-broadcast(gf257,det=7)",
    ] {
        for adv in ["edge-markov(0.1,0.3)", "shuffled-path"] {
            assert_equivalent(spec, adv, 40, 1, 5);
        }
    }
}

#[test]
fn binary_field_cells_match_above_one_limb_and_the_bitsliced_rank() {
    // More edges the randomized matrix's n = k < 20 never reaches: at
    // n = k = 72 a coded row (k + d = 81 bits) spans two `u64` limbs; at
    // n = k = 128 the coefficients fill two whole limbs, so GF(2) reduce
    // and compose run their all-ones-bitmap-word shortcut over both; and
    // at n = k = 40 GF(2^8) elimination passes rank 32, where it switches
    // to the bit-sliced reduce path. The `det=` twins take the same edges
    // — GF(2^8) through the contiguous-pivot compose shortcut — with the
    // coefficients read from the advice streams.
    for (spec, n) in [
        ("field-broadcast(gf2)", 72),
        ("field-broadcast(gf2,det=1)", 72),
        ("indexed-broadcast", 72),
        ("field-broadcast(gf2)", 128),
        ("field-broadcast(gf2,det=1)", 128),
        ("indexed-broadcast", 128),
        ("field-broadcast(gf256)", 40),
        ("field-broadcast(gf256,det=7)", 40),
    ] {
        for adv in ["edge-markov(0.1,0.3)", "shuffled-path"] {
            assert_equivalent(spec, adv, n, 1, 5);
        }
    }
}

/// Every adversary × {reliable, lossy, radio} at n = k = 12, both
/// backends, every run completing: the matrix for the specs that draw no
/// protocol randomness, where the shared RNG carries delivery-model coins
/// *only* — so a cell that advanced it by one stray draw would shift
/// every later drop and collision.
fn assert_equivalent_across_adversaries_and_delivery_models(specs: &[&str]) {
    let deliveries = ["reliable", "lossy(eps=0.2)", "radio(p=0.4)"];
    for spec_s in specs {
        let spec = ProtocolSpec::parse(spec_s).expect(spec_s);
        assert!(fast_eligible(&spec), "{spec_s}");
        for adv_s in ADVERSARIES {
            for del_s in deliveries {
                let kind = AdversaryKind::parse(adv_s).expect(adv_s);
                let delivery = DeliverySpec::parse(del_s).expect(del_s);
                let n = 12;
                let inst =
                    Instance::generate(Params::new(n, n, 6, 12), Placement::OneTokenPerNode, 42);
                let cfg = SimConfig::with_max_rounds(500 * n * n)
                    .recording()
                    .with_delivery(delivery);
                let adv = || kind.build(1) as Box<dyn Adversary>;
                let reference = run_spec_kernel(&spec, &inst, 1, &adv, &cfg, 7, Kernel::Reference);
                let fast = run_spec_kernel(&spec, &inst, 1, &adv, &cfg, 7, Kernel::Fast);
                assert_eq!(reference, fast, "{spec_s} × {adv_s} × {del_s}");
                assert!(reference.completed, "{spec_s} × {adv_s} × {del_s}");
            }
        }
    }
}

/// The quorum family keeps its own equivalence matrix: its `n ≥ 5f+1`
/// regime floor rules out the small sizes the randomized matrix above
/// draws, and it gossips every round with no protocol randomness.
#[test]
fn quorum_specs_match_across_adversaries_and_delivery_models() {
    assert_equivalent_across_adversaries_and_delivery_models(&[
        "quorum-watermark(f=1)",
        "quorum-watermark(f=2,rounds=12)",
        "quorum-decide(f=2,q=5)",
    ]);
}

/// An advice run has no protocol randomness either: compose reads the
/// per-node advice streams and must leave the shared RNG to the delivery
/// model, on the arena cells as on the reference.
#[test]
fn advice_specs_match_across_adversaries_and_delivery_models() {
    assert_equivalent_across_adversaries_and_delivery_models(&[
        "field-broadcast(gf2,det=1)",
        "field-broadcast(gf256,det=7)",
        "field-broadcast(gf257,det=7)",
        "field-broadcast(m61,det=3)",
    ]);
}

/// Everywhere else k < 64, so a known-token row is one word. At
/// n = k = 65 and 130 the rows span two and three words, so the prefix
/// select, the window and the delivered spans cross word boundaries;
/// ⌊b/d⌋ = 8 as in the benchmark, so a pipelined(8) batch is 32 tokens.
/// The cap is past both schedules' lengths (k/8 phases of n rounds; k/32
/// phases of 2n + 16): a run that cannot complete — a T = 8 schedule
/// may not under a fully dynamic adversary — stops there on both
/// backends.
fn assert_forwarding_matches_past_one_word(spec: &str) {
    for adv in [
        "edge-markov(0.1,0.3)",
        "shuffled-path",
        "knowledge-adaptive",
    ] {
        for n in [65, 130] {
            for t in [1, 8] {
                assert_equivalent_sized(spec, adv, n, t, 11, 8, 20 * n);
            }
        }
    }
}

#[test]
fn token_forwarding_matches_past_one_word() {
    assert_forwarding_matches_past_one_word("token-forwarding");
}

#[test]
fn pipelined_forwarding_matches_past_one_word() {
    assert_forwarding_matches_past_one_word("pipelined-forwarding");
}

#[test]
fn pipelined_forwarding_8_matches_past_one_word() {
    assert_forwarding_matches_past_one_word("pipelined-forwarding(8)");
}

#[test]
fn t_stable_windows_hit_the_csr_reuse_path() {
    // T > 1 freezes the topology inside windows: the fast path serves
    // those rounds from the unchanged CSR snapshot, and pipelined
    // forwarding adopts the cell's T.
    for spec in ["pipelined-forwarding", "field-broadcast(gf2)"] {
        for t in [2usize, 4, 8] {
            assert_equivalent(spec, "shuffled-path", 12, t, 3);
        }
    }
}

#[test]
fn auto_matches_explicit_fast_on_eligible_specs() {
    for spec_s in ELIGIBLE {
        let spec = ProtocolSpec::parse(spec_s).unwrap();
        assert!(fast_eligible(&spec), "{spec_s}");
        assert_eq!(resolve_kernel(&spec, Kernel::Auto), Kernel::Fast);
    }
    // The one ineligible spec routes Auto to the reference backend: the
    // charged-rounds patch model falls back, it never panics.
    let spec = ProtocolSpec::parse("patch-indexed").unwrap();
    assert!(!fast_eligible(&spec));
    assert_eq!(resolve_kernel(&spec, Kernel::Auto), Kernel::Reference);
}

#[test]
fn det_advice_specs_resolve_to_fast_and_build() {
    // The advice rule, stated as a unit: Auto on a deterministic advice
    // schedule resolves to Fast, and the fast cell it names exists.
    let inst = Instance::generate(Params::new(8, 8, 5, 10), Placement::OneTokenPerNode, 42);
    for field in ["gf2", "gf256", "gf257", "m61"] {
        let spec = ProtocolSpec::parse(&format!("field-broadcast({field},det=7)")).unwrap();
        assert_eq!(resolve_kernel(&spec, Kernel::Auto), Kernel::Fast, "{spec}");
        let cell = build_fast_cell(&spec, &inst, 1).expect("det= specs have a fast cell");
        assert_eq!(cell.num_nodes(), 8, "{spec}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The randomized matrix: random (spec, adversary, size, T, seed)
    /// cells, histories compared element-wise.
    #[test]
    fn fast_equals_reference(
        spec_i in 0usize..ELIGIBLE.len(),
        adv_i in 0usize..ADVERSARIES.len(),
        n in 4usize..20,
        t in 1usize..6,
        seed in 0u64..1000,
    ) {
        assert_equivalent(ELIGIBLE[spec_i], ADVERSARIES[adv_i], n, t, seed);
    }
}
