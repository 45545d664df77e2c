//! The adversary interface of the dynamic network model.
//!
//! Section 4.1: "in each round the adversary chooses the network topology
//! based on all past actions (and the current state) of the nodes.
//! Following this the nodes then choose random messages (still without
//! knowing their neighbors)." We realize exactly this ordering: the
//! simulator hands the adversary a [`KnowledgeView`] of current node state,
//! the adversary commits a connected topology, and only then do nodes draw
//! their per-round randomness and messages.
//!
//! Most adversaries are *oblivious*: they read nothing of the view but
//! its node count. Building the view costs the cell n token sets a
//! round, so an adversary says whether it reads one
//! ([`Adversary::needs_view`]) and the driver hands the oblivious ones a
//! blank view of the right size instead.
//!
//! The *omniscient* adversary of Section 6 (which knows all future
//! randomness) cannot be expressed through this interface by construction;
//! it is realized separately in `dyncode-rlnc::determinize` as a
//! coefficient-aware search loop.

use crate::bitset::BitSet;
use crate::graph::Graph;
use rand::rngs::StdRng;

/// What an *adaptive* adversary may observe before choosing a topology:
/// the current knowledge state of every node, but not the current round's
/// coins.
#[derive(Clone, Debug)]
pub struct KnowledgeView {
    /// Per node: the set of token indices it can currently
    /// decode/enumerate.
    pub tokens: Vec<BitSet>,
    /// Per node: a scalar knowledge measure (subspace dimension for coding
    /// nodes, token count for forwarding nodes).
    pub dims: Vec<usize>,
    /// Per node: has it locally terminated?
    pub done: Vec<bool>,
}

impl KnowledgeView {
    /// A blank view for `n` nodes and `k` tokens.
    pub fn blank(n: usize, k: usize) -> Self {
        KnowledgeView {
            tokens: vec![BitSet::new(k); n],
            dims: vec![0; n],
            done: vec![false; n],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.tokens.len()
    }
}

/// An adversary: chooses the communication graph of each round.
///
/// Implementations must return a connected graph on exactly
/// `view.num_nodes()` nodes; the simulator validates this and fails the
/// run otherwise (a misbehaving adversary is a bug, not a protocol
/// failure).
pub trait Adversary {
    /// A short human-readable name for reports.
    fn name(&self) -> String;

    /// Chooses the topology for `round`.
    fn topology(&mut self, round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph;

    /// Does [`topology`](Adversary::topology) read anything of its view
    /// besides [`KnowledgeView::num_nodes`]? Constant over a run. When
    /// `false` the driver passes one blank view all run long and never
    /// asks the cell for a real one, so answering `false` and then
    /// reading knowledge is a bug; `true` is always safe. Every adversary
    /// in this workspace answers explicitly (CI counts them) — the
    /// default is for implementations elsewhere.
    fn needs_view(&self) -> bool {
        true
    }
}

/// Wraps any adversary into a T-*stable* one: the inner adversary is
/// consulted only every `t` rounds and its choice is frozen in between
/// (Section 8's stability notion — "the entire network changes only every
/// T steps").
pub struct TStable<A> {
    inner: A,
    t: usize,
    current: Option<Graph>,
}

impl<A: Adversary> TStable<A> {
    /// Makes `inner` T-stable with period `t >= 1`.
    ///
    /// # Panics
    /// Panics if `t == 0`.
    pub fn new(inner: A, t: usize) -> Self {
        assert!(t >= 1, "stability period must be at least 1");
        TStable {
            inner,
            t,
            current: None,
        }
    }

    /// The stability period.
    pub fn period(&self) -> usize {
        self.t
    }
}

impl<A: Adversary> Adversary for TStable<A> {
    fn name(&self) -> String {
        format!("{}-stable({})", self.t, self.inner.name())
    }

    fn topology(&mut self, round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        if round.is_multiple_of(self.t) || self.current.is_none() {
            self.current = Some(self.inner.topology(round, view, rng));
        }
        self.current.clone().expect("just set")
    }

    fn needs_view(&self) -> bool {
        self.inner.needs_view()
    }
}

/// A boxed adversary, for heterogeneous collections in experiment sweeps.
pub type BoxedAdversary = Box<dyn Adversary>;

impl Adversary for BoxedAdversary {
    fn name(&self) -> String {
        (**self).name()
    }

    fn topology(&mut self, round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        (**self).topology(round, view, rng)
    }

    fn needs_view(&self) -> bool {
        (**self).needs_view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversaries::RandomConnectedAdversary;
    use rand::SeedableRng;

    #[test]
    fn t_stable_freezes_topology_for_t_rounds() {
        let mut adv = TStable::new(RandomConnectedAdversary::new(4), 5);
        let view = KnowledgeView::blank(12, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut prev: Option<Graph> = None;
        let mut changes = 0;
        for round in 0..20 {
            let g = adv.topology(round, &view, &mut rng);
            if let Some(p) = &prev {
                if *p != g {
                    changes += 1;
                    assert_eq!(round % 5, 0, "change outside a stability boundary");
                }
            }
            prev = Some(g);
        }
        assert!(
            changes >= 2,
            "the topology should actually change across periods"
        );
    }

    #[test]
    fn blank_view_shape() {
        let v = KnowledgeView::blank(7, 4);
        assert_eq!(v.num_nodes(), 7);
        assert!(v.tokens.iter().all(|t| t.is_empty() && t.capacity() == 4));
        assert!(v.done.iter().all(|&d| !d));
    }
}
