//! Cross-crate property-based tests: random instances, random parameters,
//! random adversary choices — dissemination must always be exact, and the
//! coding substrate must round-trip.

use dyncode::prelude::*;
use proptest::prelude::*;

/// A strategy for small valid parameter tuples (n, k, d, b).
fn params_strategy() -> impl Strategy<Value = Params> {
    (2usize..14, 4usize..9).prop_flat_map(|(n, d)| {
        let max_k = ((1usize << d) / 2).min(n);
        (Just(n), 1..=max_k.max(1), Just(d), d..3 * d)
            .prop_map(|(n, k, d, b)| Params::new(n, k, d, b.max(4)))
    })
}

fn placement_strategy(n: usize) -> impl Strategy<Value = Placement> {
    prop_oneof![
        Just(Placement::RoundRobin),
        (0..n).prop_map(Placement::AllAtNode),
        (1..=n).prop_map(Placement::Clustered),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn token_forwarding_always_disseminates(
        (params, seed) in params_strategy().prop_flat_map(|p| (Just(p), any::<u64>())),
    ) {
        let inst = Instance::generate(params, Placement::RoundRobin, seed);
        let mut proto = TokenForwarding::baseline(&inst);
        let mut adv = adversaries::ShuffledPathAdversary;
        let r = run(&mut proto, &mut adv, &SimConfig::with_max_rounds(200_000), seed);
        prop_assert!(r.completed);
        prop_assert!(fully_disseminated(&proto));
    }

    #[test]
    fn greedy_forward_always_disseminates(
        (params, placement, seed) in params_strategy().prop_flat_map(|p| {
            (Just(p), placement_strategy(p.n), any::<u64>())
        }),
    ) {
        let inst = Instance::generate(params, placement, seed);
        let mut proto = GreedyForward::new(&inst);
        let mut adv = adversaries::RandomConnectedAdversary::new(1);
        let r = run(&mut proto, &mut adv, &SimConfig::with_max_rounds(500_000), seed);
        prop_assert!(r.completed);
        prop_assert!(fully_disseminated(&proto));
    }

    #[test]
    fn indexed_broadcast_decodes_exactly(
        (params, seed) in params_strategy().prop_flat_map(|p| (Just(p), any::<u64>())),
    ) {
        let inst = Instance::generate(params, Placement::RoundRobin, seed);
        let mut proto = IndexedBroadcast::new(&inst);
        let mut adv = adversaries::RandomConnectedAdversary::new(2);
        let cap = 100 * (params.n + params.k) + 100;
        let r = run(&mut proto, &mut adv, &SimConfig::with_max_rounds(cap), seed);
        prop_assert!(r.completed);
        for u in 0..params.n {
            prop_assert_eq!(
                proto.node(u).decode().expect("done implies decodable"),
                inst.tokens.clone()
            );
        }
    }

    #[test]
    fn every_generated_topology_is_connected(
        n in 2usize..40,
        seed in any::<u64>(),
        extra in 0usize..20,
    ) {
        use rand::{SeedableRng, rngs::StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = dyncode_dynet::generators::random_connected(n, extra, &mut rng);
        prop_assert!(g.is_connected());
        prop_assert!(g.num_edges() >= n - 1);
        let t = dyncode_dynet::generators::random_tree(n, &mut rng);
        prop_assert!(t.is_connected());
        prop_assert_eq!(t.num_edges(), n - 1);
    }

    #[test]
    fn patch_decompositions_cover_and_connect(
        n in 2usize..30,
        d in 1usize..5,
        seed in any::<u64>(),
    ) {
        use rand::{SeedableRng, rngs::StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = dyncode_dynet::generators::random_connected(n, n / 4, &mut rng);
        let p = dyncode_dynet::mis::patch_decomposition(&g, d, Some(&mut rng));
        prop_assert!(p.max_depth() <= d);
        for u in 0..n {
            prop_assert!(p.patch_of[u] < p.num_patches());
            if let Some(par) = p.parent[u] {
                prop_assert_eq!(p.patch_of[par], p.patch_of[u]);
                prop_assert!(g.has_edge(par, u));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The word-wise `token_cmp` is the coordinate-wise order it
    /// defines: the first differing coordinate decides, bit 0 most
    /// significant. At every length `b` shares a random-length prefix
    /// with `a`, so ties and first differences in every limb (the masked
    /// tail included) occur.
    #[test]
    fn token_cmp_is_the_coordinatewise_order(
        bits in proptest::collection::vec(any::<bool>(), 2 * 130),
        keep in any::<u16>(),
    ) {
        use dyncode::core::params::token_cmp;
        use dyncode::gf::Gf2Vec;
        for len in [1usize, 16, 63, 64, 65, 130] {
            let a = &bits[..len];
            let mut b = bits[130..130 + len].to_vec();
            let keep = keep as usize % (len + 1);
            b[..keep].copy_from_slice(&a[..keep]);
            let want = a
                .iter()
                .zip(&b)
                .find(|(x, y)| x != y)
                .map_or(std::cmp::Ordering::Equal, |(x, y)| x.cmp(y));
            let (va, vb) = (Gf2Vec::from_bools(a), Gf2Vec::from_bools(&b));
            prop_assert_eq!(token_cmp(&va, &vb), want, "len {}", len);
            prop_assert_eq!(token_cmp(&vb, &va), want.reverse(), "len {}", len);
        }
    }
}
