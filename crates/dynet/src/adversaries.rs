//! Concrete adversaries.
//!
//! The paper's bounds are worst-case over all adversaries; an experiment
//! must therefore exercise a *family* of hard concrete adversaries.
//! This module provides:
//!
//! * [`StaticAdversary`] — a fixed graph (the static-network baseline).
//! * [`RandomConnectedAdversary`] — a fresh random connected graph each
//!   round (the canonical "fully dynamic" instantiation).
//! * [`ShuffledPathAdversary`] / [`ShuffledStarAdversary`] — a path/star on
//!   a fresh random permutation each round; sparse, high-diameter, the
//!   topology family used in the KLO lower-bound intuition.
//! * [`KnowledgeAdaptiveAdversary`] — *adaptive*: inspects the
//!   [`KnowledgeView`] and wires nodes with the most similar knowledge
//!   next to each other, so that token-forwarding broadcasts are maximally
//!   wasted (the mechanism behind the Ω(nk) bound of Theorem 2.1).
//! * [`BottleneckAdversary`] — two cliques joined by a single bridge that
//!   moves every round.

use crate::adversary::{Adversary, KnowledgeView};
use crate::generators;
use crate::graph::Graph;
use rand::rngs::StdRng;
use rand::RngExt;

/// The same fixed graph every round.
pub struct StaticAdversary {
    graph: Graph,
    name: String,
}

impl StaticAdversary {
    /// Uses `graph` forever, labelled `name` in reports.
    ///
    /// # Panics
    /// Panics if `graph` is disconnected.
    pub fn new(graph: Graph, name: impl Into<String>) -> Self {
        assert!(graph.is_connected(), "static topology must be connected");
        StaticAdversary {
            graph,
            name: name.into(),
        }
    }

    /// A static path.
    pub fn path(n: usize) -> Self {
        StaticAdversary::new(generators::path(n), "static-path")
    }

    /// A static complete graph.
    pub fn complete(n: usize) -> Self {
        StaticAdversary::new(generators::complete(n), "static-complete")
    }
}

impl Adversary for StaticAdversary {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn topology(&mut self, _round: usize, view: &KnowledgeView, _rng: &mut StdRng) -> Graph {
        assert_eq!(
            self.graph.num_nodes(),
            view.num_nodes(),
            "graph size mismatch"
        );
        self.graph.clone()
    }

    fn needs_view(&self) -> bool {
        false
    }
}

/// A fresh random connected graph (random spanning tree + `extra_edges`
/// random extra edges) every round.
pub struct RandomConnectedAdversary {
    extra_edges: usize,
}

impl RandomConnectedAdversary {
    /// Creates the adversary; `extra_edges` controls density (0 gives
    /// random trees).
    pub fn new(extra_edges: usize) -> Self {
        RandomConnectedAdversary { extra_edges }
    }
}

impl Adversary for RandomConnectedAdversary {
    fn name(&self) -> String {
        format!("random-connected(+{})", self.extra_edges)
    }

    fn topology(&mut self, _round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        generators::random_connected(view.num_nodes(), self.extra_edges, rng)
    }

    fn needs_view(&self) -> bool {
        false
    }
}

/// A path over a fresh uniformly random node permutation each round.
pub struct ShuffledPathAdversary;

impl Adversary for ShuffledPathAdversary {
    fn name(&self) -> String {
        "shuffled-path".into()
    }

    fn topology(&mut self, _round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        let order = generators::random_permutation(view.num_nodes(), rng);
        generators::path_with_order(&order)
    }

    fn needs_view(&self) -> bool {
        false
    }
}

/// A star whose center is re-drawn uniformly each round.
pub struct ShuffledStarAdversary;

impl Adversary for ShuffledStarAdversary {
    fn name(&self) -> String {
        "shuffled-star".into()
    }

    fn topology(&mut self, _round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        let n = view.num_nodes();
        let center = rng.random_range(0..n);
        generators::star(n, center)
    }

    fn needs_view(&self) -> bool {
        false
    }
}

/// An *adaptive* adversary that clusters nodes by knowledge similarity.
///
/// Strategy: sort nodes by their token-set signature (so nodes that know
/// the same tokens become path-adjacent) and lay a path in that order. A
/// broadcast between same-knowledge neighbors carries no new token for a
/// forwarding algorithm, so most of each round is wasted — this is the
/// engine of the knowledge-based token-forwarding lower bound. Against
/// network coding the same wiring is ineffective (Lemma 5.2 makes any
/// message innovative with probability ≥ 1 − 1/q), which is precisely the
/// separation the experiments measure.
pub struct KnowledgeAdaptiveAdversary;

impl Adversary for KnowledgeAdaptiveAdversary {
    fn name(&self) -> String {
        "knowledge-adaptive".into()
    }

    fn topology(&mut self, _round: usize, view: &KnowledgeView, _rng: &mut StdRng) -> Graph {
        let n = view.num_nodes();
        let mut order: Vec<usize> = (0..n).collect();
        // Sort by (token count, set signature, dim) so equal-knowledge
        // nodes are adjacent and the boundary between knowledge classes
        // is a single edge. The signature replaces a full lexicographic
        // set comparison: equal sets always cluster, and the per-round
        // cost stays O(n (k/64 + log n)) even at large n.
        order.sort_by_key(|&u| {
            (
                view.tokens[u].len(),
                view.tokens[u].signature(),
                view.dims[u],
            )
        });
        generators::path_with_order(&order)
    }

    fn needs_view(&self) -> bool {
        true
    }
}

/// Two cliques with a single bridge whose endpoints are re-drawn each
/// round: information must squeeze through one edge per round.
pub struct BottleneckAdversary;

impl Adversary for BottleneckAdversary {
    fn name(&self) -> String {
        "bottleneck".into()
    }

    fn topology(&mut self, _round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        let n = view.num_nodes();
        if n < 2 {
            return Graph::empty(n);
        }
        let half = n.div_ceil(2);
        let a = rng.random_range(0..half);
        let b = rng.random_range(half..n);
        generators::dumbbell(n, a, b)
    }

    fn needs_view(&self) -> bool {
        false
    }
}

/// A *T-interval connected* adversary (the Kuhn et al. stability notion,
/// strictly weaker than T-stability): within every window of `t` rounds a
/// random spanning tree stays fixed, while `churn` additional random
/// edges are redrawn *every round*. The paper's T-stable results require
/// the whole graph frozen; whether its §8 patch algorithm extends to this
/// model is the open question of its conclusion — this adversary is the
/// test bed for it.
pub struct TIntervalAdversary {
    t: usize,
    churn: usize,
    tree: Option<Graph>,
}

impl TIntervalAdversary {
    /// Stability window `t ≥ 1` with `churn` volatile extra edges.
    ///
    /// # Panics
    /// Panics if `t == 0`.
    pub fn new(t: usize, churn: usize) -> Self {
        assert!(t >= 1, "window must be positive");
        TIntervalAdversary {
            t,
            churn,
            tree: None,
        }
    }
}

impl Adversary for TIntervalAdversary {
    fn name(&self) -> String {
        format!("{}-interval(+{} churn)", self.t, self.churn)
    }

    fn topology(&mut self, round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        let n = view.num_nodes();
        if round.is_multiple_of(self.t) || self.tree.as_ref().is_none_or(|g| g.num_nodes() != n) {
            self.tree = Some(generators::random_tree(n, rng));
        }
        let mut g = self.tree.clone().expect("just set");
        let mut attempts = 0;
        let mut added = 0;
        while added < self.churn && attempts < 50 * (self.churn + 1) {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u != v && !g.has_edge(u, v) {
                g.add_edge(u, v);
                added += 1;
            }
            attempts += 1;
        }
        g
    }

    fn needs_view(&self) -> bool {
        false
    }
}

/// The standard adversary suite for experiment sweeps: one instance of
/// each family, sized for `n` nodes.
pub fn standard_suite() -> Vec<crate::adversary::BoxedAdversary> {
    vec![
        Box::new(RandomConnectedAdversary::new(2)),
        Box::new(ShuffledPathAdversary),
        Box::new(ShuffledStarAdversary),
        Box::new(KnowledgeAdaptiveAdversary),
        Box::new(BottleneckAdversary),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn check_always_connected(adv: &mut dyn Adversary, n: usize) {
        let view = KnowledgeView::blank(n, 8);
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..30 {
            let g = adv.topology(round, &view, &mut rng);
            assert_eq!(g.num_nodes(), n, "{}: wrong size", adv.name());
            assert!(
                g.is_connected(),
                "{}: disconnected at round {round}",
                adv.name()
            );
        }
    }

    #[test]
    fn every_standard_adversary_stays_connected() {
        for n in [2usize, 3, 9, 24] {
            for mut adv in standard_suite() {
                check_always_connected(&mut adv, n);
            }
            check_always_connected(&mut StaticAdversary::path(n), n);
            check_always_connected(&mut StaticAdversary::complete(n), n);
        }
    }

    #[test]
    fn shuffled_path_actually_shuffles() {
        let mut adv = ShuffledPathAdversary;
        let view = KnowledgeView::blank(16, 4);
        let mut rng = StdRng::seed_from_u64(8);
        let a = adv.topology(0, &view, &mut rng);
        let b = adv.topology(1, &view, &mut rng);
        assert_ne!(a.edges(), b.edges());
    }

    #[test]
    fn knowledge_adaptive_clusters_equal_knowledge() {
        let mut view = KnowledgeView::blank(6, 4);
        // Nodes 0,2,4 know token 0; nodes 1,3,5 know tokens {0,1}.
        for &u in &[0usize, 2, 4] {
            view.tokens[u].insert(0);
            view.dims[u] = 1;
        }
        for &u in &[1usize, 3, 5] {
            view.tokens[u].insert(0);
            view.tokens[u].insert(1);
            view.dims[u] = 2;
        }
        let mut adv = KnowledgeAdaptiveAdversary;
        let mut rng = StdRng::seed_from_u64(9);
        let g = adv.topology(0, &view, &mut rng);
        // Exactly one edge should cross the two knowledge classes.
        let crossing = g
            .edges()
            .iter()
            .filter(|&&(u, v)| view.dims[u] != view.dims[v])
            .count();
        assert_eq!(crossing, 1);
    }

    #[test]
    fn t_interval_keeps_a_stable_spanning_tree_per_window() {
        let mut adv = TIntervalAdversary::new(4, 3);
        let view = KnowledgeView::blank(14, 2);
        let mut rng = StdRng::seed_from_u64(11);
        let mut window_tree: Option<Vec<(usize, usize)>> = None;
        for round in 0..16 {
            let g = adv.topology(round, &view, &mut rng);
            assert!(g.is_connected());
            if round % 4 == 0 {
                window_tree = Some(g.edges());
            }
            // Every edge of the window's tree snapshot must persist: the
            // tree is the first 13 edges recorded at the window start.
            let tree_edges = window_tree.as_ref().unwrap();
            for &(u, v) in tree_edges.iter().take(13) {
                assert!(
                    g.has_edge(u, v) || !adv.tree.as_ref().unwrap().has_edge(u, v),
                    "stable tree edge ({u},{v}) vanished at round {round}"
                );
            }
            // The stable tree itself is always a subgraph.
            for (u, v) in adv.tree.as_ref().unwrap().edges() {
                assert!(g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn t_interval_churn_actually_changes_edges() {
        let mut adv = TIntervalAdversary::new(8, 4);
        let view = KnowledgeView::blank(12, 2);
        let mut rng = StdRng::seed_from_u64(12);
        let a = adv.topology(0, &view, &mut rng);
        let b = adv.topology(1, &view, &mut rng);
        assert_ne!(
            a.edges(),
            b.edges(),
            "churn edges should differ within a window"
        );
    }

    #[test]
    fn bottleneck_has_single_crossing_edge() {
        let mut adv = BottleneckAdversary;
        let view = KnowledgeView::blank(10, 2);
        let mut rng = StdRng::seed_from_u64(10);
        let g = adv.topology(0, &view, &mut rng);
        let crossing = g
            .edges()
            .iter()
            .filter(|&&(u, v)| (u < 5) != (v < 5))
            .count();
        assert_eq!(crossing, 1);
    }
}
