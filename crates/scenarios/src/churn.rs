//! Node churn on top of any base adversary: each round every node flips
//! between *active* and *parked* with a given probability. The round's
//! core topology is the base adversary's graph **induced on the active
//! set** (re-connected by the minimal repair pass when parking cut it);
//! parked nodes are attached by a single random *tether* edge to an
//! active node.
//!
//! The base adversary always runs on the **full** node set, so stateful
//! models keep their state coherent across churn: an edge-Markov base
//! keeps its per-edge chains evolving and a waypoint base keeps its node
//! positions, regardless of who is currently parked — churn masks the
//! topology, it never resets the underlying dynamics.
//!
//! Why tethers instead of removal: the KLO model (and this simulator)
//! requires every round's graph to be connected over **all** n nodes, so
//! true departures are outside the model. A tethered node models the
//! weakest legal presence — one link, no position in the core topology —
//! while **preserving token ownership**: a parked node keeps its tokens
//! and its protocol state, and rejoins the core wiring when it
//! reactivates. The subgraph induced on the active set stays connected
//! (the invariant the property tests check).

use crate::repair;
use dyncode_dynet::adversary::{Adversary, KnowledgeView};
use dyncode_dynet::graph::Graph;
use rand::rngs::StdRng;
use rand::RngExt;

/// The churn wrapper. Adaptivity passes through: the base adversary sees
/// the full knowledge view every round.
pub struct ChurnAdversary<A> {
    inner: A,
    rate: f64,
    active: Vec<bool>,
}

impl<A: Adversary> ChurnAdversary<A> {
    /// Wraps `inner`; every node toggles activity with probability
    /// `rate` per round (round 0 starts all-active).
    ///
    /// # Panics
    /// Panics unless `0 ≤ rate < 1`.
    pub fn new(inner: A, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "churn rate must be in [0, 1)");
        ChurnAdversary {
            inner,
            rate,
            active: Vec::new(),
        }
    }

    /// The current activity flags (empty before the first round).
    pub fn active(&self) -> &[bool] {
        &self.active
    }
}

impl<A: Adversary> Adversary for ChurnAdversary<A> {
    fn name(&self) -> String {
        format!("churn({},{})", self.rate, self.inner.name())
    }

    fn topology(&mut self, round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        let n = view.num_nodes();
        if self.active.len() != n {
            self.active = vec![true; n];
        } else {
            for a in &mut self.active {
                if rng.random_bool(self.rate) {
                    *a = !*a;
                }
            }
            // The active set must never empty out (somebody has to hold
            // the core topology); re-admit node 0 if it would.
            if !self.active.iter().any(|&a| a) {
                self.active[0] = true;
            }
        }
        // The base runs on the full node set: its state (Markov chains,
        // positions, …) evolves undisturbed by who is parked.
        let full = self.inner.topology(round, view, rng);
        assert_eq!(
            full.num_nodes(),
            n,
            "base adversary {} produced a wrong-sized graph",
            self.inner.name()
        );
        // Core topology: the base graph induced on the active set,
        // repaired to connectivity where parking cut it (compact
        // indices; the repair helper is stateless, so re-indexing is
        // harmless here).
        let ids: Vec<usize> = (0..n).filter(|&u| self.active[u]).collect();
        let mut index_of = vec![usize::MAX; n];
        for (i, &u) in ids.iter().enumerate() {
            index_of[u] = i;
        }
        let mut sub = Graph::empty(ids.len());
        for (u, v) in full.edges() {
            if self.active[u] && self.active[v] {
                sub.add_edge(index_of[u], index_of[v]);
            }
        }
        repair::connect_components(&mut sub, rng);
        let mut g = Graph::empty(n);
        for (a, b) in sub.edges() {
            g.add_edge(ids[a], ids[b]);
        }
        for u in 0..n {
            if !self.active[u] {
                let anchor = ids[rng.random_range(0..ids.len())];
                g.add_edge(u, anchor);
            }
        }
        g
    }

    fn needs_view(&self) -> bool {
        self.inner.needs_view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_markov::EdgeMarkovAdversary;
    use dyncode_dynet::adversaries::RandomConnectedAdversary;
    use rand::SeedableRng;

    fn induced_active_connected(g: &Graph, active: &[bool]) -> bool {
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

    #[test]
    fn full_graph_and_active_core_stay_connected() {
        let mut adv = ChurnAdversary::new(RandomConnectedAdversary::new(1), 0.25);
        let view = KnowledgeView::blank(12, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut saw_parked = false;
        for round in 0..40 {
            let g = adv.topology(round, &view, &mut rng);
            assert!(g.is_connected(), "round {round}: full graph disconnected");
            assert!(
                induced_active_connected(&g, adv.active()),
                "round {round}: active core disconnected"
            );
            saw_parked |= adv.active().iter().any(|&a| !a);
        }
        assert!(saw_parked, "a 25% churn rate must actually park nodes");
    }

    #[test]
    fn parked_nodes_have_exactly_one_tether() {
        let mut adv = ChurnAdversary::new(RandomConnectedAdversary::new(0), 0.4);
        let view = KnowledgeView::blank(10, 2);
        let mut rng = StdRng::seed_from_u64(2);
        for round in 0..30 {
            let g = adv.topology(round, &view, &mut rng);
            for (u, &a) in adv.active().iter().enumerate() {
                if !a {
                    assert_eq!(g.degree(u), 1, "round {round}: parked {u}");
                    let anchor = g.neighbors(u)[0];
                    assert!(adv.active()[anchor], "tether must land on an active node");
                }
            }
        }
    }

    #[test]
    fn base_state_survives_churn() {
        // The base runs on the full node set, so a stateful base (here
        // an edge-Markov chain with 2% per-edge flip probability) must
        // keep its temporal correlation across activity changes — the
        // chain is never resampled because the active count moved.
        let mut adv = ChurnAdversary::new(EdgeMarkovAdversary::new(0.02, 0.02), 0.3);
        let view = KnowledgeView::blank(20, 2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut prev: Option<(Graph, Vec<bool>)> = None;
        let (mut persisted, mut observed) = (0usize, 0usize);
        for round in 0..30 {
            let g = adv.topology(round, &view, &mut rng);
            let act = adv.active().to_vec();
            if let Some((pg, pact)) = &prev {
                // Core edges between nodes active in both rounds: all
                // but ~2% (plus the rare ephemeral repair edge) persist.
                for (u, v) in pg.edges() {
                    if pact[u] && pact[v] && act[u] && act[v] {
                        observed += 1;
                        if g.has_edge(u, v) {
                            persisted += 1;
                        }
                    }
                }
            }
            prev = Some((g, act));
        }
        assert!(observed > 100, "test must actually observe edges");
        assert!(
            persisted * 10 > observed * 8,
            "Markov edges must persist under churn: {persisted}/{observed}"
        );
    }

    #[test]
    fn round_zero_is_all_active() {
        let mut adv = ChurnAdversary::new(RandomConnectedAdversary::new(0), 0.5);
        let view = KnowledgeView::blank(8, 2);
        let mut rng = StdRng::seed_from_u64(3);
        adv.topology(0, &view, &mut rng);
        assert!(adv.active().iter().all(|&a| a));
    }

    #[test]
    #[should_panic(expected = "churn rate must be in [0, 1)")]
    fn full_churn_rejected() {
        let _ = ChurnAdversary::new(RandomConnectedAdversary::new(0), 1.0);
    }
}
