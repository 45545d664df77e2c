//! Property-based tests for the dynamic-network substrate: every
//! adversary must emit connected graphs of the right size, patchings must
//! satisfy the Section 8.1 invariants, MIS outputs must be valid.

use dyncode_dynet::adversaries::standard_suite;
use dyncode_dynet::adversary::{Adversary, KnowledgeView, TStable};
use dyncode_dynet::generators;
use dyncode_dynet::graph::Graph;
use dyncode_dynet::mis::{greedy_mis, is_valid_mis, luby_mis, patch_decomposition};
use dyncode_dynet::trace::{graph_from_ids, id_to_edge, num_edge_ids};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

proptest! {
    #[test]
    fn adversaries_always_emit_connected_graphs(
        n in 2usize..32,
        k in 1usize..8,
        seed in any::<u64>(),
        rounds in 1usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // A view with randomized knowledge so adaptive adversaries see
        // nontrivial state.
        let mut view = KnowledgeView::blank(n, k);
        for u in 0..n {
            for i in 0..k {
                if rng.random() {
                    view.tokens[u].insert(i);
                }
            }
            view.dims[u] = view.tokens[u].len();
        }
        for mut adv in standard_suite() {
            for r in 0..rounds {
                let g = adv.topology(r, &view, &mut rng);
                prop_assert_eq!(g.num_nodes(), n);
                prop_assert!(g.is_connected(), "{} disconnected", adv.name());
            }
        }
    }

    #[test]
    fn t_stable_changes_only_at_boundaries(
        n in 2usize..20,
        t in 1usize..9,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let view = KnowledgeView::blank(n, 2);
        let mut adv = TStable::new(
            dyncode_dynet::adversaries::ShuffledPathAdversary,
            t,
        );
        let mut prev = None;
        for r in 0..4 * t {
            let g = adv.topology(r, &view, &mut rng);
            if let Some(p) = prev {
                if p != g {
                    prop_assert_eq!(r % t, 0, "changed mid-window at round {}", r);
                }
            }
            prev = Some(g);
        }
    }

    /// The two-pass bulk build is the `add_edge` loop it replaced, on any
    /// sorted id set (isolated nodes, the empty set and the complete
    /// graph included).
    #[test]
    fn graph_from_ids_is_the_add_edge_loop(
        n in 0usize..24,
        density_pm in 0u32..=1000,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids: Vec<u64> = (0..num_edge_ids(n))
            .filter(|_| rng.random_bool(density_pm as f64 / 1000.0))
            .collect();
        let mut want = Graph::empty(n);
        for &id in &ids {
            let (u, v) = id_to_edge(id);
            want.add_edge(u, v);
        }
        let got = graph_from_ids(n, &ids);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.num_edges(), ids.len());
    }

    #[test]
    fn mis_outputs_are_valid(n in 1usize..40, extra in 0usize..12, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, extra, &mut rng);
        prop_assert!(is_valid_mis(&g, &luby_mis(&g, &mut rng)));
        prop_assert!(is_valid_mis(&g, &greedy_mis(&g)));
    }

    #[test]
    fn patch_leaders_are_d_separated(
        n in 2usize..30,
        d in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, n / 4, &mut rng);
        let p = patch_decomposition(&g, d, Some(&mut rng));
        for (i, &a) in p.leaders.iter().enumerate() {
            let dist = g.bfs_distances(a);
            for &b in &p.leaders[i + 1..] {
                prop_assert!(dist[b] > d);
            }
        }
        // Every node within d of its own leader (depth bound).
        prop_assert!(p.max_depth() <= d);
    }

    #[test]
    fn power_graph_edges_match_distances(
        n in 2usize..20,
        d in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, 2, &mut rng);
        let p = g.power(d);
        for u in 0..n {
            let dist = g.bfs_distances(u);
            for (v, &dv) in dist.iter().enumerate() {
                if v != u {
                    prop_assert_eq!(p.has_edge(u, v), dv <= d, "power edge mismatch {}-{}", u, v);
                }
            }
        }
    }

    #[test]
    fn bfs_tree_is_shortest_paths(n in 2usize..30, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, n / 3, &mut rng);
        let root = rng.random_range(0..n);
        let (parent, depth) = g.bfs_tree(root);
        let dist = g.bfs_distances(root);
        prop_assert_eq!(&depth, &dist);
        for v in 0..n {
            if v != root {
                let p = parent[v].expect("connected");
                prop_assert_eq!(depth[p] + 1, depth[v]);
            }
        }
    }
}
