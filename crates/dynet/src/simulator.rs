//! The per-node protocol surface of the KLO dynamic network model
//! (Section 4.1), and its adapter onto the round driver.
//!
//! Round structure, exactly as in the model:
//!
//! 1. The adversary observes node state (a [`KnowledgeView`]) and commits a
//!    **connected** topology for the round.
//! 2. Every node chooses an O(b)-bit message *without knowing its
//!    neighbors* (the compose step receives no topology information).
//! 3. Every node receives the messages of all its neighbors in the
//!    committed graph (anonymous broadcast).
//!
//! That loop is [`run_fast`], the one round driver; [`run`] reaches it by
//! wrapping a [`Protocol`] in [`PerNode`]. The driver meters every
//! message in bits and can enforce a hard per-message budget, which is
//! how the paper's "messages of size O(b)" accounting is kept honest
//! (Section 3 stresses that the coding-header overhead must be paid
//! inside the message).

use crate::adversary::{Adversary, KnowledgeView};
use crate::csr::CsrTopology;
use crate::driver::{check_budget, run_fast, FastCell};
use crate::graph::NodeId;
pub use dyncode_delivery::{
    delivery_rng, registry as delivery_registry, DeliveryModel, DeliverySpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::BorrowMut;

/// A protocol running on the dynamic network: per-node message generation
/// and delivery plus introspection for termination and adversaries.
///
/// # Contract
///
/// * [`compose`](Protocol::compose) and [`deliver`](Protocol::deliver) are
///   invoked once per node per round; implementations must only read/write
///   state belonging to the given node (plus immutable shared config), so
///   that delivery order is immaterial — the model is simultaneous.
/// * `compose` must not depend on the current round's topology (nodes do
///   not know their neighbors when they speak).
/// * [`round_end`](Protocol::round_end) runs after all deliveries of a
///   round and may advance *globally known* phase counters (legitimate
///   because phase schedules depend only on the round number and public
///   parameters n, k, b, d, T).
pub trait Protocol {
    /// The message type broadcast by nodes.
    type Message: Clone;

    /// Number of nodes n.
    fn num_nodes(&self) -> usize;

    /// Number of tokens k being disseminated (for views/stats).
    fn num_tokens(&self) -> usize;

    /// Node `node` chooses its broadcast for `round`; `None` means silence.
    fn compose(&mut self, node: NodeId, round: usize, rng: &mut StdRng) -> Option<Self::Message>;

    /// The size of `msg` on the wire, in bits.
    fn message_bits(&self, msg: &Self::Message) -> u64;

    /// Node `node` receives the round's neighbor messages.
    fn deliver(&mut self, node: NodeId, inbox: &[Self::Message], round: usize, rng: &mut StdRng);

    /// Has `node` locally terminated (it knows all k tokens and may stop)?
    fn node_done(&self, node: NodeId) -> bool;

    /// A snapshot of per-node knowledge for the adversary and statistics.
    fn view(&self) -> KnowledgeView;

    /// Global end-of-round hook (phase counters); defaults to a no-op.
    fn round_end(&mut self, _round: usize, _rng: &mut StdRng) {}
}

/// A registry-built protocol: a per-node [`Protocol`] in a [`PerNode`]
/// cell, erased once, as a [`FastCell`]; its messages stay typed. Kept,
/// with [`run_erased`], only for the call shape of the standalone
/// `benchmark/` package (`build` → `run_erased` → `.view()` /
/// `.num_tokens()`); workspace code runs cells through [`run_fast`].
pub trait ErasedProtocol: FastCell {
    /// Number of tokens k being disseminated.
    fn num_tokens(&self) -> usize;
}

impl<P: Protocol> ErasedProtocol for PerNode<P> {
    fn num_tokens(&self) -> usize {
        self.protocol.num_tokens()
    }
}

/// [`run_fast`] on a registry-built cell: the same `RunResult` as [`run`]
/// on the concrete protocol.
pub fn run_erased(
    protocol: &mut Box<dyn ErasedProtocol + '_>,
    adversary: &mut dyn Adversary,
    config: &SimConfig,
    seed: u64,
) -> RunResult {
    run_fast(protocol.as_mut(), adversary, config, seed)
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Abort (incomplete) after this many rounds.
    pub max_rounds: usize,
    /// If set, panic when any message exceeds this many bits — the strict
    /// O(b) accounting mode.
    pub bit_limit: Option<u64>,
    /// Record a per-round history (costs memory on long runs).
    pub record_history: bool,
    /// Delivery semantics for the broadcast step. The default
    /// ([`DeliverySpec::Reliable`]) plans nothing — no delivery coins
    /// are drawn, byte-identical to the pre-layer simulator. Non-default
    /// models draw from the private [`delivery_rng`] stream, so protocol
    /// and adversary randomness are untouched either way.
    pub delivery: DeliverySpec,
}

impl SimConfig {
    /// A config with the given round cap, permissive bits, no history.
    pub fn with_max_rounds(max_rounds: usize) -> Self {
        SimConfig {
            max_rounds,
            bit_limit: None,
            record_history: false,
            delivery: DeliverySpec::Reliable,
        }
    }

    /// Enables the strict per-message bit limit.
    pub fn strict_bits(mut self, limit: u64) -> Self {
        self.bit_limit = Some(limit);
        self
    }

    /// Enables per-round history recording.
    pub fn recording(mut self) -> Self {
        self.record_history = true;
        self
    }

    /// Selects the delivery model for the broadcast step.
    pub fn with_delivery(mut self, delivery: DeliverySpec) -> Self {
        self.delivery = delivery;
        self
    }
}

/// One row of the per-round history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Edges in the round's topology.
    pub edges: usize,
    /// Bits broadcast this round (sum over nodes; a broadcast is charged
    /// once regardless of the number of receivers, as in the model).
    pub bits: u64,
    /// Minimum per-node knowledge scalar.
    pub min_dim: usize,
    /// Maximum per-node knowledge scalar.
    pub max_dim: usize,
    /// Total decodable tokens summed over nodes.
    pub total_tokens: usize,
    /// Nodes that have locally terminated.
    pub done: usize,
}

/// The outcome of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Rounds executed (= rounds until global termination if `completed`).
    pub rounds: usize,
    /// Did every node terminate within the round cap?
    pub completed: bool,
    /// Total broadcast bits across the run.
    pub total_bits: u64,
    /// The largest single message observed, in bits.
    pub max_message_bits: u64,
    /// Adversary name, for reports.
    pub adversary: String,
    /// Optional per-round history.
    pub history: Vec<RoundRecord>,
}

/// Domain-separation constant for the adversary's private RNG stream
/// (an arbitrary odd 64-bit constant, splitmix64's increment).
const ADVERSARY_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// The adversary's private RNG for `seed` — the exact stream the round
/// driver hands to [`Adversary::topology`], exposed so offline trace
/// recorders (`dyncode-scenarios`) can reproduce the schedule a live run
/// from the same seed would see.
pub fn adversary_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ ADVERSARY_STREAM)
}

/// Any per-node [`Protocol`] as a [`FastCell`]: the adapter through which
/// [`run`] reaches the round driver, and the cell the protocol registry
/// builds for every spec (`core::spec::ProtocolSpec::build`).
///
/// It forwards every protocol call with the arguments, and in the order,
/// the model prescribes — `compose` per node ascending; then `deliver`
/// for **every** node ascending, each inbox in ascending-neighbor order
/// (an empty inbox is still delivered: random-forward refreshes state
/// there); then `round_end` — and touches the RNG nowhere itself. The
/// message and inbox vectors keep their capacity across rounds.
///
/// `H` is how the protocol is held: owned (`PerNode<P>`, the default) or
/// borrowed for one run (`PerNode<P, &mut P>`, what [`run`] builds).
pub struct PerNode<P: Protocol, H: BorrowMut<P> = P> {
    protocol: H,
    /// This round's composed broadcasts, indexed by node.
    msgs: Vec<Option<P::Message>>,
    /// Reused inbox scratch.
    inbox: Vec<P::Message>,
}

impl<P: Protocol> PerNode<P> {
    /// Wraps an owned protocol (fully built and seeded).
    pub fn new(protocol: P) -> Self {
        Self::holding(protocol)
    }
}

impl<P: Protocol, H: BorrowMut<P>> PerNode<P, H> {
    fn holding(protocol: H) -> Self {
        let n = protocol.borrow().num_nodes();
        PerNode {
            protocol,
            msgs: vec![None; n],
            inbox: Vec::new(),
        }
    }
}

impl<P: Protocol, H: BorrowMut<P>> FastCell for PerNode<P, H> {
    fn num_nodes(&self) -> usize {
        self.msgs.len()
    }

    fn compose_all(
        &mut self,
        round: usize,
        rng: &mut StdRng,
        bit_limit: Option<u64>,
    ) -> (u64, u64) {
        let protocol = self.protocol.borrow_mut();
        let (mut round_bits, mut round_max) = (0u64, 0u64);
        for (u, slot) in self.msgs.iter_mut().enumerate() {
            *slot = protocol.compose(u, round, rng);
            if let Some(m) = slot {
                let bits = protocol.message_bits(m);
                check_budget(u, round, bits, bit_limit);
                round_bits += bits;
                round_max = round_max.max(bits);
            }
        }
        (round_bits, round_max)
    }

    fn spoke(&self, node: usize) -> bool {
        self.msgs[node].is_some()
    }

    fn deliver_all(&mut self, topo: &CsrTopology, round: usize, rng: &mut StdRng) {
        let protocol = self.protocol.borrow_mut();
        for u in 0..self.msgs.len() {
            self.inbox.clear();
            // Under a delivery model `topo` is the round's plan, which
            // only routes composed messages; under reliable delivery a
            // silent neighbor contributes nothing.
            self.inbox.extend(
                topo.neighbors(u)
                    .iter()
                    .filter_map(|&v| self.msgs[v as usize].clone()),
            );
            protocol.deliver(u, &self.inbox, round, rng);
        }
    }

    fn round_end(&mut self, round: usize, rng: &mut StdRng) {
        self.protocol.borrow_mut().round_end(round, rng);
    }

    fn all_done(&self) -> bool {
        (0..self.msgs.len()).all(|u| self.protocol.borrow().node_done(u))
    }

    fn view(&self) -> KnowledgeView {
        self.protocol.borrow().view()
    }
}

/// Runs `protocol` against `adversary` from `seed` until every node is
/// done or `config.max_rounds` elapse: [`run_fast`] on the protocol
/// behind a [`PerNode`] adapter, so the round structure, the RNG streams
/// and the panics are the driver's.
///
/// # Panics
/// Panics if the adversary produces a disconnected or wrongly-sized graph,
/// or (in strict mode) if a message exceeds the bit limit.
pub fn run<P: Protocol>(
    protocol: &mut P,
    adversary: &mut dyn Adversary,
    config: &SimConfig,
    seed: u64,
) -> RunResult {
    let mut cell = PerNode::<P, &mut P>::holding(protocol);
    run_fast(&mut cell, adversary, config, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversaries::{RandomConnectedAdversary, ShuffledPathAdversary};
    use crate::bitset::BitSet;

    /// A toy protocol: node 0 holds a flag; every node repeats the flag
    /// once it has heard it. Terminates when everyone has it. This is
    /// 1-token flooding, so it must finish within the dynamic-flooding
    /// bound of n-1 rounds.
    struct Flood {
        n: usize,
        has: Vec<bool>,
    }

    impl Flood {
        fn new(n: usize) -> Self {
            let mut has = vec![false; n];
            has[0] = true;
            Flood { n, has }
        }
    }

    impl Protocol for Flood {
        type Message = ();

        fn num_nodes(&self) -> usize {
            self.n
        }

        fn num_tokens(&self) -> usize {
            1
        }

        fn compose(&mut self, node: NodeId, _round: usize, _rng: &mut StdRng) -> Option<()> {
            self.has[node].then_some(())
        }

        fn message_bits(&self, _msg: &()) -> u64 {
            1
        }

        fn deliver(&mut self, node: NodeId, inbox: &[()], _round: usize, _rng: &mut StdRng) {
            if !inbox.is_empty() {
                self.has[node] = true;
            }
        }

        fn node_done(&self, node: NodeId) -> bool {
            self.has[node]
        }

        fn view(&self) -> KnowledgeView {
            KnowledgeView {
                tokens: self
                    .has
                    .iter()
                    .map(|&h| {
                        let mut s = BitSet::new(1);
                        if h {
                            s.insert(0);
                        }
                        s
                    })
                    .collect(),
                dims: self.has.iter().map(|&h| h as usize).collect(),
                done: self.has.clone(),
            }
        }
    }

    #[test]
    fn flooding_completes_within_n_rounds_under_any_adversary() {
        for n in [2usize, 5, 20, 50] {
            for seed in 0..3u64 {
                let mut p = Flood::new(n);
                let mut adv = ShuffledPathAdversary;
                let cfg = SimConfig::with_max_rounds(2 * n);
                let r = run(&mut p, &mut adv, &cfg, seed);
                assert!(r.completed, "n={n} seed={seed}");
                // Connectivity guarantees ≥1 new node informed per round.
                assert!(r.rounds < n, "n={n}: took {} rounds", r.rounds);
            }
        }
    }

    #[test]
    fn bit_accounting_sums_broadcasts() {
        let mut p = Flood::new(4);
        let mut adv = RandomConnectedAdversary::new(0);
        let cfg = SimConfig::with_max_rounds(10).recording();
        let r = run(&mut p, &mut adv, &cfg, 1);
        assert!(r.completed);
        assert_eq!(r.max_message_bits, 1);
        // Each round, each informed node speaks 1 bit.
        let hist_bits: u64 = r.history.iter().map(|h| h.bits).sum();
        assert_eq!(hist_bits, r.total_bits);
        assert!(r.total_bits >= (r.rounds as u64), "at least node 0 speaks");
        // History dims are monotone in the number of informed nodes.
        for w in r.history.windows(2) {
            assert!(w[1].total_tokens >= w[0].total_tokens);
        }
    }

    #[test]
    #[should_panic(expected = "exceeded the message budget")]
    fn strict_bits_enforced() {
        struct Fat;
        impl Protocol for Fat {
            type Message = ();
            fn num_nodes(&self) -> usize {
                2
            }
            fn num_tokens(&self) -> usize {
                1
            }
            fn compose(&mut self, _n: NodeId, _r: usize, _g: &mut StdRng) -> Option<()> {
                Some(())
            }
            fn message_bits(&self, _m: &()) -> u64 {
                100
            }
            fn deliver(&mut self, _n: NodeId, _i: &[()], _r: usize, _g: &mut StdRng) {}
            fn node_done(&self, _n: NodeId) -> bool {
                false
            }
            fn view(&self) -> KnowledgeView {
                KnowledgeView::blank(2, 1)
            }
        }
        let mut p = Fat;
        let mut adv = RandomConnectedAdversary::new(0);
        let cfg = SimConfig::with_max_rounds(5).strict_bits(64);
        run(&mut p, &mut adv, &cfg, 0);
    }

    #[test]
    fn incomplete_run_reports_round_cap() {
        struct Silent;
        impl Protocol for Silent {
            type Message = ();
            fn num_nodes(&self) -> usize {
                3
            }
            fn num_tokens(&self) -> usize {
                1
            }
            fn compose(&mut self, _n: NodeId, _r: usize, _g: &mut StdRng) -> Option<()> {
                None
            }
            fn message_bits(&self, _m: &()) -> u64 {
                0
            }
            fn deliver(&mut self, _n: NodeId, _i: &[()], _r: usize, _g: &mut StdRng) {}
            fn node_done(&self, _n: NodeId) -> bool {
                false
            }
            fn view(&self) -> KnowledgeView {
                KnowledgeView::blank(3, 1)
            }
        }
        let mut p = Silent;
        let mut adv = RandomConnectedAdversary::new(0);
        let r = run(&mut p, &mut adv, &SimConfig::with_max_rounds(7), 0);
        assert!(!r.completed);
        assert_eq!(r.rounds, 7);
        assert_eq!(r.total_bits, 0);
    }

    /// Logs every call the driver makes. Node u stays silent in the
    /// rounds where `(u + round) % 3 == 0`, and a message is its sender's
    /// id, so an inbox shows who was heard and in which order.
    struct Recorder {
        n: usize,
        rounds_ended: usize,
        log: Vec<Call>,
    }

    #[derive(Debug, PartialEq)]
    enum Call {
        Compose(NodeId),
        Deliver(NodeId, Vec<NodeId>),
        RoundEnd,
    }

    fn speaks(u: NodeId, round: usize) -> bool {
        !(u + round).is_multiple_of(3)
    }

    impl Protocol for Recorder {
        type Message = NodeId;
        fn num_nodes(&self) -> usize {
            self.n
        }
        fn num_tokens(&self) -> usize {
            1
        }
        fn compose(&mut self, u: NodeId, round: usize, _g: &mut StdRng) -> Option<NodeId> {
            self.log.push(Call::Compose(u));
            speaks(u, round).then_some(u)
        }
        fn message_bits(&self, _m: &NodeId) -> u64 {
            1
        }
        fn deliver(&mut self, u: NodeId, inbox: &[NodeId], _r: usize, _g: &mut StdRng) {
            self.log.push(Call::Deliver(u, inbox.to_vec()));
        }
        fn node_done(&self, _u: NodeId) -> bool {
            self.rounds_ended >= 4
        }
        fn view(&self) -> KnowledgeView {
            KnowledgeView::blank(self.n, 1)
        }
        fn round_end(&mut self, _r: usize, _g: &mut StdRng) {
            self.rounds_ended += 1;
            self.log.push(Call::RoundEnd);
        }
    }

    #[test]
    fn the_adapter_keeps_the_per_node_call_order() {
        use crate::trace::RecordingAdversary;
        let n = 7;
        for delivery in [DeliverySpec::Reliable, DeliverySpec::Lossy { eps: 0.4 }] {
            let reliable = delivery.is_default();
            let mut p = Recorder {
                n,
                rounds_ended: 0,
                log: Vec::new(),
            };
            let (mut adv, trace) = RecordingAdversary::new(ShuffledPathAdversary);
            let cfg = SimConfig::with_max_rounds(10).with_delivery(delivery);
            let r = run(&mut p, &mut adv, &cfg, 3);
            assert_eq!((r.rounds, r.completed), (4, true));

            // Per round: n composes ascending, all before the first
            // deliver; n delivers ascending, empty inboxes included; one
            // round_end.
            assert_eq!(p.log.len(), 4 * (2 * n + 1));
            let graphs: Vec<_> = trace.borrow().graphs().collect();
            let mut empty_inboxes = 0;
            for (round, calls) in p.log.chunks(2 * n + 1).enumerate() {
                for u in 0..n {
                    assert_eq!(calls[u], Call::Compose(u), "round {round}");
                    let Call::Deliver(to, inbox) = &calls[n + u] else {
                        panic!(
                            "round {round}: expected deliver({u}), got {:?}",
                            calls[n + u]
                        );
                    };
                    assert_eq!(*to, u, "round {round}");
                    // Ascending-neighbor order: all speaking neighbors
                    // when reliable, a subsequence of them when lossy.
                    let speaking = graphs[round]
                        .neighbors(u)
                        .iter()
                        .copied()
                        .filter(|&v| speaks(v, round));
                    if reliable {
                        assert_eq!(
                            *inbox,
                            speaking.collect::<Vec<_>>(),
                            "round {round} node {u}"
                        );
                    } else {
                        let mut rest = speaking;
                        assert!(
                            inbox.iter().all(|v| rest.any(|w| w == *v)),
                            "round {round} node {u}: {inbox:?}"
                        );
                    }
                    empty_inboxes += inbox.is_empty() as usize;
                }
                assert_eq!(calls[2 * n], Call::RoundEnd, "round {round}");
            }
            assert!(empty_inboxes > 0, "the run must exercise an empty inbox");
        }
    }

    #[test]
    fn erased_run_reproduces_monomorphized_run_exactly() {
        for n in [4usize, 12, 25] {
            for seed in 0..3u64 {
                let cfg = SimConfig::with_max_rounds(2 * n).recording();
                let mut p = Flood::new(n);
                let mut adv = RandomConnectedAdversary::new(1);
                let mono = run(&mut p, &mut adv, &cfg, seed);

                let mut e: Box<dyn ErasedProtocol> = Box::new(PerNode::new(Flood::new(n)));
                let mut adv = RandomConnectedAdversary::new(1);
                let erased = run_erased(&mut e, &mut adv, &cfg, seed);
                assert_eq!(mono, erased, "n={n} seed={seed}");
                assert_eq!((e.num_tokens(), e.view().done), (1, p.view().done));
            }
        }
    }

    #[test]
    fn already_done_protocol_takes_zero_rounds() {
        let mut p = Flood::new(1);
        let mut adv = RandomConnectedAdversary::new(0);
        let r = run(&mut p, &mut adv, &SimConfig::with_max_rounds(5), 0);
        assert!(r.completed);
        assert_eq!(r.rounds, 0);
    }
}
