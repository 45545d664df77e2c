//! The edge-Markov evolving-graph model: every potential edge is an
//! independent two-state Markov chain (absent → present with probability
//! `p_up`, present → absent with probability `p_down`), the standard
//! stochastic model of dynamic networks (Clementi et al.'s
//! edge-Markovian dynamic graphs). A connectivity-repair overlay
//! ([`crate::repair`]) keeps every emitted round connected, as the KLO
//! model requires.
//!
//! The coin order is the contract: one draw per potential edge in
//! ascending edge-id order every round (a birth coin for an absent edge,
//! a death coin for a present one), then the repair's endpoint draws.
//! Every recorded trace, baseline and golden result is a function of that
//! stream, so the n(n−1)/2 draws are a floor the step can approach but
//! not go under.

use crate::repair;
use dyncode_dynet::adversary::{Adversary, KnowledgeView};
use dyncode_dynet::graph::Graph;
use dyncode_dynet::trace::{graph_from_ids, id_to_edge, num_edge_ids};
use rand::rngs::StdRng;
use rand::RngExt;

/// The edge-Markov adversary. Oblivious: ignores node knowledge.
pub struct EdgeMarkovAdversary {
    p_up: f64,
    p_down: f64,
    /// Sorted edge ids of the chain state (repair edges excluded).
    state: Vec<u64>,
    /// The buffer `evolve` writes the next state into, swapped with
    /// `state` each round so neither is reallocated once grown.
    next: Vec<u64>,
    /// Node count the state was built for (0 = uninitialized).
    n: usize,
}

impl EdgeMarkovAdversary {
    /// Creates the model with birth probability `p_up` and death
    /// probability `p_down` per edge per round.
    ///
    /// # Panics
    /// Panics unless `0 < p_up ≤ 1` and `0 ≤ p_down ≤ 1`.
    pub fn new(p_up: f64, p_down: f64) -> Self {
        assert!(p_up > 0.0 && p_up <= 1.0, "p_up must be in (0, 1]");
        assert!((0.0..=1.0).contains(&p_down), "p_down must be in [0, 1]");
        EdgeMarkovAdversary {
            p_up,
            p_down,
            state: Vec::new(),
            next: Vec::new(),
            n: 0,
        }
    }

    /// The stationary per-edge presence probability
    /// `p_up / (p_up + p_down)`, used to seed round 0 so the chain starts
    /// in (approximate) equilibrium instead of from the empty graph.
    pub fn stationary_p(&self) -> f64 {
        self.p_up / (self.p_up + self.p_down)
    }

    fn init(&mut self, n: usize, rng: &mut StdRng) {
        let p = self.stationary_p();
        self.state = (0..num_edge_ids(n))
            .filter(|_| rng.random_bool(p))
            .collect();
        self.n = n;
    }

    /// One chain step, walked by *runs*: the absent ids below each
    /// present one take birth coins in a loop that looks nothing up, then
    /// the present id takes its death coin — one draw per potential edge
    /// in ascending id order, as if every id were visited in turn.
    fn evolve(&mut self, rng: &mut StdRng) {
        let (p_up, p_down) = (self.p_up, self.p_down);
        let end = num_edge_ids(self.n);
        self.next.clear();
        let mut absent_from = 0;
        // `end` closes the last run; it is no edge and takes no coin.
        for present in self.state.iter().copied().chain([end]) {
            for absent in absent_from..present {
                if rng.random_bool(p_up) {
                    self.next.push(absent);
                }
            }
            if present < end && !rng.random_bool(p_down) {
                self.next.push(present);
            }
            absent_from = present + 1;
        }
        std::mem::swap(&mut self.state, &mut self.next);
    }
}

impl Adversary for EdgeMarkovAdversary {
    fn name(&self) -> String {
        format!("edge-markov({},{})", self.p_up, self.p_down)
    }

    fn topology(&mut self, _round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        let n = view.num_nodes();
        if self.n != n {
            self.init(n, rng);
        } else {
            self.evolve(rng);
        }
        let mut g = graph_from_ids(n, &self.state);
        repair::connect_components(&mut g, rng);
        debug_assert!(self.state.iter().all(|&id| {
            let (u, v) = id_to_edge(id);
            g.has_edge(u, v)
        }));
        g
    }

    fn needs_view(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncode_dynet::csr::CsrTopology;
    use rand::{Rng, SeedableRng};

    /// The coin order is the contract (module header): FNV-1a over every
    /// round's edge list for 64 rounds, and the draw that follows them,
    /// recorded from the one-lookup-per-potential-edge `evolve` and the
    /// `add_edge`-loop graph build before both were replaced.
    #[test]
    fn golden_stream_survives_the_rewrite() {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut adv = EdgeMarkovAdversary::new(0.05, 0.25);
        let view = KnowledgeView::blank(40, 0);
        let mut rng = StdRng::seed_from_u64(18);
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        let mut edges = 0;
        for round in 0..64 {
            let g = adv.topology(round, &view, &mut rng);
            edges += g.num_edges();
            for (u, v) in g.edges() {
                fnv = (fnv ^ u as u64).wrapping_mul(PRIME);
                fnv = (fnv ^ v as u64).wrapping_mul(PRIME);
            }
            fnv = (fnv ^ 0xff).wrapping_mul(PRIME); // round separator
        }
        assert_eq!(edges, 8482);
        assert_eq!(fnv, 0x286a_b2b0_7712_6ed3);
        assert_eq!(rng.next_u64(), 0x03a2_02b2_15d9_d8cb);
    }

    /// A dense, slow chain repeats most rounds exactly; the CSR snapshot
    /// must count as many reused loads as its edge-id diff did (literal
    /// recorded before the diff was deleted).
    #[test]
    fn csr_reuse_on_a_slow_chain_is_what_the_edge_id_diff_counted() {
        let mut adv = EdgeMarkovAdversary::new(0.001, 0.0005);
        let view = KnowledgeView::blank(24, 0);
        let mut rng = StdRng::seed_from_u64(18);
        let mut csr = CsrTopology::new(24);
        for round in 0..64 {
            csr.load(&adv.topology(round, &view, &mut rng));
        }
        assert_eq!(csr.rounds_reused(), 55);
    }

    #[test]
    fn always_connected_and_right_sized() {
        let mut adv = EdgeMarkovAdversary::new(0.05, 0.3);
        let mut rng = StdRng::seed_from_u64(1);
        // n = 0 has no edge ids at all: the id count must not underflow.
        for n in [0usize, 1, 2, 5, 20] {
            let view = KnowledgeView::blank(n, 3);
            for round in 0..25 {
                let g = adv.topology(round, &view, &mut rng);
                assert_eq!(g.num_nodes(), n);
                assert!(g.is_connected(), "n={n} round={round}");
            }
        }
    }

    #[test]
    fn edges_persist_more_than_they_churn() {
        // With p_down small, consecutive rounds share most edges — the
        // whole point of the delta-encoded trace format.
        let mut adv = EdgeMarkovAdversary::new(0.02, 0.05);
        let view = KnowledgeView::blank(24, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let a = adv.topology(0, &view, &mut rng);
        let b = adv.topology(1, &view, &mut rng);
        let shared = a.edges().iter().filter(|&&(u, v)| b.has_edge(u, v)).count();
        assert!(
            shared * 2 > a.num_edges(),
            "most edges should survive one step: {shared}/{}",
            a.num_edges()
        );
        assert_ne!(a.edges(), b.edges(), "but some churn must happen");
    }

    #[test]
    fn stationary_density_is_tracked() {
        let mut adv = EdgeMarkovAdversary::new(0.1, 0.1); // stationary 1/2
        let view = KnowledgeView::blank(30, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let g = adv.topology(0, &view, &mut rng);
        let pairs = 30 * 29 / 2;
        let density = g.num_edges() as f64 / pairs as f64;
        assert!((0.35..0.65).contains(&density), "density {density}");
    }

    #[test]
    #[should_panic(expected = "p_up must be in (0, 1]")]
    fn zero_p_up_rejected() {
        let _ = EdgeMarkovAdversary::new(0.0, 0.5);
    }
}
