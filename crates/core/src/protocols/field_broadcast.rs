//! Field-generic (and optionally *deterministic*) k-indexed-broadcast —
//! the Corollary 6.2 regime and the field-size ablation.
//!
//! [`FieldBroadcast<F>`] runs the Lemma 5.3 algorithm over any field:
//! messages cost k·⌈lg q⌉ + d·(symbols) bits, and each delivery is
//! innovative with probability ≥ 1 − 1/q. Two modes:
//!
//! * **Randomized** — fresh coefficients per round (Lemma 5.3 for
//!   general q: "The network coding algorithm with q ≥ 2 …").
//! * **Deterministic** — coefficients come from a
//!   [`CoefficientSchedule`] advice table keyed by (node, round), the
//!   executable analogue of Corollary 6.2's non-uniform advice matrix.
//!   Given the seed, the entire execution is a pure function of the
//!   adversary's choices; over a large field even an adversary that
//!   knows the schedule cannot stall it (Theorem 6.1, exercised
//!   adversarially in `dyncode-rlnc::determinize` and experiment E9).
//!
//! The trade the paper quantifies: bigger q buys innovation probability
//! and omniscient-robustness but costs header width k·lg q inside the
//! message budget. Experiment E15 measures both sides.

use crate::params::Instance;
use dyncode_dynet::adversary::KnowledgeView;
use dyncode_dynet::bitset::BitSet;
use dyncode_dynet::simulator::Protocol;
use dyncode_gf::Field;
use dyncode_rlnc::determinize::CoefficientSchedule;
use dyncode_rlnc::node::DenseNode;
use dyncode_rlnc::packet::DensePacket;
use rand::rngs::StdRng;

/// Indexed broadcast over an arbitrary field `F`.
pub struct FieldBroadcast<F: Field> {
    n: usize,
    k: usize,
    nodes: Vec<DenseNode<F>>,
    /// Expected payloads (for verification): token i as field symbols.
    payloads: Vec<Vec<F>>,
    /// `Some(schedule)` switches to deterministic advice coefficients.
    schedule: Option<CoefficientSchedule>,
}

/// Packs a d-bit token into ⌈d / (bits_per_symbol − 1)⌉ field symbols,
/// using one fewer bit per symbol than the field width so every chunk is
/// a valid canonical representative for any q ≥ 2.
fn token_to_symbols<F: Field>(token: &dyncode_gf::Gf2Vec) -> Vec<F> {
    let chunk = (F::bits_per_symbol() as usize - 1).max(1);
    (0..token.len())
        .step_by(chunk)
        .map(|start| {
            let end = (start + chunk).min(token.len());
            let mut acc = 0u64;
            for i in (start..end).rev() {
                acc = (acc << 1) | token.get(i) as u64;
            }
            F::from_u64(acc)
        })
        .collect()
}

/// Every token of `inst` as `F` symbols ([`token_to_symbols`]), zero-padded
/// to the longest — the payload encoding of [`FieldBroadcast`], and of the
/// fast kernel's symbol-field cells, which must seed identically.
pub(crate) fn symbol_payloads<F: Field>(inst: &Instance) -> Vec<Vec<F>> {
    let mut payloads: Vec<Vec<F>> = inst.tokens.iter().map(token_to_symbols::<F>).collect();
    let payload_len = payloads.iter().map(Vec::len).max().unwrap_or(1);
    for v in &mut payloads {
        v.resize(payload_len, F::ZERO);
    }
    payloads
}

impl<F: Field> FieldBroadcast<F> {
    /// Randomized mode (fresh per-round coefficients).
    pub fn new(inst: &Instance) -> Self {
        FieldBroadcast::build(inst, None)
    }

    /// Deterministic mode: all coefficients from the advice schedule
    /// seeded by `advice_seed` (seed 0 = the canonical advice).
    pub fn deterministic(inst: &Instance, advice_seed: u64) -> Self {
        FieldBroadcast::build(inst, Some(CoefficientSchedule::new(advice_seed)))
    }

    fn build(inst: &Instance, schedule: Option<CoefficientSchedule>) -> Self {
        let p = inst.params;
        let payloads = symbol_payloads::<F>(inst);
        let payload_len = payloads[0].len();
        let mut nodes: Vec<DenseNode<F>> =
            (0..p.n).map(|_| DenseNode::new(p.k, payload_len)).collect();
        for (i, holders) in inst.holders.iter().enumerate() {
            for &u in holders {
                nodes[u].seed_source(i, &payloads[i]);
            }
        }
        FieldBroadcast {
            n: p.n,
            k: p.k,
            nodes,
            payloads,
            schedule,
        }
    }

    /// Wire size of one message: k·⌈lg q⌉ header + payload symbols.
    pub fn wire_bits(&self) -> u64 {
        let payload_len = self.payloads.first().map_or(1, Vec::len);
        (self.k + payload_len) as u64 * F::bits_per_symbol() as u64
    }

    /// Read access to a node's coding state.
    pub fn node(&self, u: usize) -> &DenseNode<F> {
        &self.nodes[u]
    }

    /// Does node `u` hold the exact expected payloads? (Postcondition
    /// check used by tests and the harness.)
    pub fn decoded_correctly(&self, u: usize) -> bool {
        self.nodes[u].decode().as_ref() == Some(&self.payloads)
    }
}

impl<F: Field> Protocol for FieldBroadcast<F> {
    type Message = DensePacket<F>;

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn num_tokens(&self) -> usize {
        self.k
    }

    fn compose(&mut self, node: usize, round: usize, rng: &mut StdRng) -> Option<DensePacket<F>> {
        match &self.schedule {
            Some(s) => {
                let coeffs: Vec<F> = s.coefficients(node, round, self.nodes[node].rank());
                self.nodes[node].emit_with_coefficients(&coeffs)
            }
            None => self.nodes[node].emit(rng),
        }
    }

    fn message_bits(&self, msg: &DensePacket<F>) -> u64 {
        msg.bit_cost()
    }

    fn deliver(&mut self, node: usize, inbox: &[DensePacket<F>], _round: usize, _rng: &mut StdRng) {
        for pkt in inbox {
            self.nodes[node].receive(pkt);
        }
    }

    fn node_done(&self, node: usize) -> bool {
        self.nodes[node].coefficient_rank() == self.k
    }

    fn view(&self) -> KnowledgeView {
        let tokens: Vec<BitSet> = self
            .nodes
            .iter()
            .map(|nd| {
                let mut s = BitSet::new(self.k);
                // Decodable-token view: pivot rows with unit coefficient
                // prefixes, mirroring the GF(2) protocol's view.
                if nd.coefficient_rank() == self.k {
                    for i in 0..self.k {
                        s.insert(i);
                    }
                }
                s
            })
            .collect();
        KnowledgeView {
            dims: self.nodes.iter().map(DenseNode::rank).collect(),
            done: (0..self.n).map(|u| self.node_done(u)).collect(),
            tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Params, Placement};
    use dyncode_dynet::adversaries::{RandomConnectedAdversary, ShuffledPathAdversary};
    use dyncode_dynet::simulator::{run, SimConfig};
    use dyncode_gf::{Gf256, Gf2Vec, Mersenne61};

    #[test]
    fn token_symbol_packing_is_injective() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for x in 0..256u64 {
            let mut t = Gf2Vec::zeros(8);
            for i in 0..8 {
                t.set(i, x >> i & 1 == 1);
            }
            let syms: Vec<Gf256> = token_to_symbols(&t);
            assert!(seen.insert(syms.clone()), "collision at {x}");
            // 8 bits at 7 usable bits/symbol = 2 symbols.
            assert_eq!(syms.len(), 2);
        }
    }

    #[test]
    fn gf256_broadcast_completes_fast() {
        let p = Params::new(24, 24, 8, 256);
        let inst = Instance::generate(p, Placement::OneTokenPerNode, 1);
        let mut proto: FieldBroadcast<Gf256> = FieldBroadcast::new(&inst);
        let mut adv = ShuffledPathAdversary;
        let r = run(&mut proto, &mut adv, &SimConfig::with_max_rounds(2000), 3);
        assert!(r.completed);
        // 1 - 1/256 innovation: essentially every delivery counts; the
        // run should be close to the connectivity bound.
        assert!(r.rounds <= 4 * (p.n + p.k), "{} rounds", r.rounds);
        for u in 0..p.n {
            assert!(proto.decoded_correctly(u));
        }
    }

    #[test]
    fn deterministic_mode_is_reproducible_and_correct() {
        let p = Params::new(12, 12, 6, 800);
        let inst = Instance::generate(p, Placement::OneTokenPerNode, 2);
        let rounds: Vec<usize> = (0..2)
            .map(|_| {
                let mut proto: FieldBroadcast<Mersenne61> = FieldBroadcast::deterministic(&inst, 0);
                let mut adv = RandomConnectedAdversary::new(1);
                let r = run(&mut proto, &mut adv, &SimConfig::with_max_rounds(5000), 9);
                assert!(r.completed);
                for u in 0..p.n {
                    assert!(proto.decoded_correctly(u));
                }
                r.rounds
            })
            .collect();
        assert_eq!(rounds[0], rounds[1], "deterministic algorithm must replay");
    }

    #[test]
    fn header_cost_scales_with_field_width() {
        let p = Params::new(8, 8, 6, 800);
        let inst = Instance::generate(p, Placement::OneTokenPerNode, 3);
        let gf256: FieldBroadcast<Gf256> = FieldBroadcast::new(&inst);
        let m61: FieldBroadcast<Mersenne61> = FieldBroadcast::new(&inst);
        // k = 8 coefficients: 64 bits of header at GF(256), 488 at M61.
        assert!(m61.wire_bits() > 6 * gf256.wire_bits());
    }

    #[test]
    fn strict_budget_enforced_at_wire_size() {
        let p = Params::new(10, 10, 5, 200);
        let inst = Instance::generate(p, Placement::RoundRobin, 4);
        let mut proto: FieldBroadcast<Gf256> = FieldBroadcast::new(&inst);
        let wire = proto.wire_bits();
        let mut adv = ShuffledPathAdversary;
        let r = run(
            &mut proto,
            &mut adv,
            &SimConfig::with_max_rounds(2000).strict_bits(wire),
            5,
        );
        assert!(r.completed);
        assert_eq!(r.max_message_bits, wire);
    }
}
