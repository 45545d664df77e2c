//! Property tests for the workload subsystem: every generated topology
//! honors the KLO connectivity invariant (over the full node set, and —
//! for churn — over the active subset), and the `.dct` format round-trips
//! arbitrary schedules, including empty-delta and full-rewire rounds.
//! The spec parser returns `Err`, never panics, on hostile text.

use dyncode_dynet::adversary::{Adversary, KnowledgeView};
use dyncode_dynet::graph::Graph;
use dyncode_dynet::trace::DeltaTrace;
use dyncode_scenarios::dct::{decode_trace, encode_trace, DctReader, DctWriter};
use dyncode_scenarios::{
    repair, ChurnAdversary, EdgeMarkovAdversary, ScenarioKind, WaypointAdversary,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn check_all_rounds_connected(adv: &mut dyn Adversary, n: usize, rounds: usize, seed: u64) {
    let view = KnowledgeView::blank(n, 2);
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..rounds {
        let g = adv.topology(round, &view, &mut rng);
        assert_eq!(g.num_nodes(), n, "{} at round {round}", adv.name());
        assert!(
            g.is_connected(),
            "{} disconnected at round {round} (n={n}, seed={seed})",
            adv.name()
        );
    }
}

/// Connectivity of the subgraph induced on `active`.
fn induced_connected(g: &Graph, active: &[bool]) -> bool {
    let ids: Vec<usize> = (0..g.num_nodes()).filter(|&u| active[u]).collect();
    if ids.len() <= 1 {
        return true;
    }
    let mut sub = Graph::empty(ids.len());
    for (a, &u) in ids.iter().enumerate() {
        for (b, &v) in ids.iter().enumerate().skip(a + 1) {
            if g.has_edge(u, v) {
                sub.add_edge(a, b);
            }
        }
    }
    sub.is_connected()
}

/// The repair's reference, as it was before components became labels:
/// each component a sorted list found by BFS, ordered by smallest member.
fn components(g: &Graph) -> Vec<Vec<usize>> {
    let n = g.num_nodes();
    let mut seen = vec![false; n];
    let mut out = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut comp = Vec::new();
        let mut queue = std::collections::VecDeque::from([start]);
        seen[start] = true;
        while let Some(u) = queue.pop_front() {
            comp.push(u);
            for &v in g.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

proptest! {
    /// `connect_components` is the chain over `components()`: the same
    /// edges from the same draws, so the same RNG state afterwards — on
    /// random forests from all-isolated (`keep_pm = 0`) to one tree.
    #[test]
    fn repair_is_the_chain_over_component_lists(
        n in 0usize..40,
        keep_pm in 0u32..=1000,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = dyncode_dynet::generators::random_tree(n, &mut rng);
        let kept: Vec<_> = tree
            .edges()
            .into_iter()
            .filter(|_| rng.random_bool(keep_pm as f64 / 1000.0))
            .collect();
        let forest = Graph::from_edges(n, &kept);

        let mut want = forest.clone();
        let mut want_rng = rng.clone();
        let comps = components(&want);
        for pair in comps.windows(2) {
            let u = pair[0][want_rng.random_range(0..pair[0].len())];
            let v = pair[1][want_rng.random_range(0..pair[1].len())];
            want.add_edge(u, v);
        }

        let mut got = forest;
        let added = repair::connect_components(&mut got, &mut rng);
        prop_assert_eq!(added, comps.len().saturating_sub(1));
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(&rng, &want_rng);
        prop_assert!(got.is_connected());
        let (label, count) = repair::component_labels(&want);
        prop_assert!(count <= 1 && label.iter().all(|&c| c == 0));
    }

    #[test]
    fn edge_markov_stays_connected(
        n in 1usize..28,
        seed in any::<u64>(),
        up_pm in 1u32..400,
        down_pm in 0u32..1000,
    ) {
        let mut adv = EdgeMarkovAdversary::new(up_pm as f64 / 1000.0, down_pm as f64 / 1000.0);
        check_all_rounds_connected(&mut adv, n, 20, seed);
    }

    #[test]
    fn waypoint_stays_connected(
        n in 1usize..24,
        seed in any::<u64>(),
        radius_pm in 10u32..800,
        speed_pm in 1u32..300,
    ) {
        let mut adv = WaypointAdversary::new(radius_pm as f64 / 1000.0, speed_pm as f64 / 1000.0);
        check_all_rounds_connected(&mut adv, n, 20, seed);
    }

    #[test]
    fn churn_stays_connected_on_full_and_active_sets(
        n in 2usize..24,
        seed in any::<u64>(),
        rate_pm in 0u32..600,
    ) {
        let mut adv = ChurnAdversary::new(
            EdgeMarkovAdversary::new(0.08, 0.2),
            rate_pm as f64 / 1000.0,
        );
        let view = KnowledgeView::blank(n, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 0..25 {
            let g = adv.topology(round, &view, &mut rng);
            prop_assert!(g.is_connected(), "full graph disconnected at round {round}");
            prop_assert!(
                induced_connected(&g, adv.active()),
                "active core disconnected at round {round}"
            );
        }
    }

    #[test]
    fn parsed_scenarios_stay_connected(which in 0usize..4, n in 1usize..20, seed in any::<u64>()) {
        let spec = [
            "edge-markov(0.05,0.25)",
            "waypoint(0.3,0.06)",
            "churn(0.2,random-connected)",
            "churn(0.1,waypoint(0.4,0.05))",
        ][which];
        let mut adv = ScenarioKind::parse(spec).unwrap().build(1);
        check_all_rounds_connected(adv.as_mut(), n, 15, seed);
    }

    /// Hostile input: arbitrary bytes, and a valid spec with a few bytes
    /// overwritten, never panic the parser — and whatever parses prints
    /// a string that parses back to itself.
    #[test]
    fn parse_never_panics(
        junk in proptest::collection::vec(any::<u8>(), 0..48),
        which in 0usize..6,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..5),
    ) {
        let mut mutated = [
            "edge-markov(0.05,0.25)",
            "waypoint(0.3,0.06)",
            "churn(0.2,random-connected)",
            "churn(0.1,waypoint(0.4,0.05))",
            "trace(runs/a.dct)",
            "knowledge-adaptive",
        ][which].as_bytes().to_vec();
        for (at, byte) in edits {
            let at = at % mutated.len();
            mutated[at] = byte;
        }
        for bytes in [junk, mutated] {
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(kind) = ScenarioKind::parse(&text) {
                prop_assert_eq!(ScenarioKind::parse(&kind.name()), Ok(kind));
            }
        }
    }

    /// encode(trace) |> stream-decode == trace, on random schedules that
    /// deliberately include an empty-delta round (a repeated graph) and a
    /// full-rewire round (path → disjoint star edge set).
    #[test]
    fn dct_encode_stream_decode_round_trips(
        n in 2usize..24,
        rounds in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut adv = EdgeMarkovAdversary::new(0.1, 0.3);
        let view = KnowledgeView::blank(n, 1);
        let mut graphs: Vec<Graph> =
            (0..rounds).map(|r| adv.topology(r, &view, &mut rng)).collect();
        // Force an empty delta: repeat the last graph verbatim.
        graphs.push(graphs[rounds - 1].clone());
        // Force a full rewire: a path in a random order shares no edge
        // representation guarantees with the Markov state.
        let order = dyncode_dynet::generators::random_permutation(n, &mut rng);
        graphs.push(dyncode_dynet::generators::path_with_order(&order));

        let mut trace = DeltaTrace::new(0);
        for g in &graphs {
            trace.push(g);
        }
        let trace_seed = rng.random::<u64>();
        let bytes = encode_trace(&trace, trace_seed);

        // In-memory decode: exact DeltaTrace equality.
        let (header, back) = decode_trace(&bytes).unwrap();
        prop_assert_eq!(header.n, n);
        prop_assert_eq!(header.rounds, graphs.len() as u64);
        prop_assert_eq!(header.seed, trace_seed);
        prop_assert_eq!(&back, &trace);

        // Streaming decode: graph-by-graph equality, then clean EOF.
        let mut reader = DctReader::new(std::io::Cursor::new(bytes)).unwrap();
        for (r, g) in graphs.iter().enumerate() {
            let decoded = reader.next_graph().unwrap();
            prop_assert_eq!(decoded.as_ref(), Some(g), "round {}", r);
        }
        prop_assert!(reader.next_graph().unwrap().is_none());
    }

    /// Writing graphs and writing their flip lists produce identical bytes.
    #[test]
    fn push_and_push_flips_agree(n in 2usize..16, rounds in 1usize..10, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut adv = WaypointAdversary::new(0.4, 0.1);
        let view = KnowledgeView::blank(n, 1);
        let graphs: Vec<Graph> =
            (0..rounds).map(|r| adv.topology(r, &view, &mut rng)).collect();
        let mut trace = DeltaTrace::new(0);
        for g in &graphs {
            trace.push(g);
        }

        let mut by_graph = DctWriter::new(std::io::Cursor::new(Vec::new()), n, 1).unwrap();
        for g in &graphs {
            by_graph.push(g).unwrap();
        }
        let a = by_graph.finish().unwrap().into_inner();

        let mut by_flips = DctWriter::new(std::io::Cursor::new(Vec::new()), n, 1).unwrap();
        for r in 0..trace.len() {
            by_flips.push_flips(trace.flips(r)).unwrap();
        }
        let b = by_flips.finish().unwrap().into_inner();
        prop_assert_eq!(a, b);
    }
}
