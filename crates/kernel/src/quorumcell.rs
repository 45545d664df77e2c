//! The quorum family on the fast backend: one flat u32 arena slot per
//! `(node, peer)` pair instead of per-node `Vec`s, delivered-max merges
//! walked over CSR rows.
//!
//! The cell mirrors `dyncode_quorum::QuorumProtocol` exactly — same
//! always-speak compose, same compose-time row snapshot, same max-merge
//! plus single advancement step per delivery, same fixed 32-bits-per-peer
//! wire accounting — and shares the watermark / advancement math with the
//! reference crate ([`dyncode_quorum::watermark_with`],
//! [`dyncode_quorum::advance_own_round`]) so the two backends cannot
//! drift. The family draws no protocol randomness at all, so fast ==
//! reference is structural: both compute the identical deterministic
//! function of the delivered topology sequence.

use dyncode_dynet::adversary::KnowledgeView;
use dyncode_dynet::bitset::BitSet;
use dyncode_dynet::csr::CsrTopology;
use dyncode_dynet::driver::{check_budget, FastCell};
use dyncode_quorum::{advance_own_round, quorum_metrics, QuorumConfig, Round};
use rand::rngs::StdRng;

/// Arena-backed quorum cell: `rounds` holds the n×n `max_rounds` tables
/// row-major (`rounds[u*n + v]` = the latest round node `u` knows peer
/// `v` prevoted), `snap` the compose-time snapshot the round's messages
/// are read from.
pub struct QuorumCell {
    n: usize,
    k: usize,
    cfg: QuorumConfig,
    rounds: Vec<Round>,
    snap: Vec<Round>,
    scratch: Vec<Round>,
}

impl QuorumCell {
    /// A fresh cell: every node has prevoted round 1, ⊥ for every peer.
    /// `k` is carried only for the knowledge-view shape. Panics outside
    /// the `n ≥ 5f+1` regime — the same message as the reference
    /// protocol's constructor.
    pub fn new(n: usize, k: usize, cfg: QuorumConfig) -> Self {
        if let Err(e) = cfg.validate_for(n) {
            panic!("{e}");
        }
        let mut rounds = vec![0; n * n];
        for u in 0..n {
            rounds[u * n + u] = 1;
        }
        QuorumCell {
            n,
            k,
            cfg,
            snap: rounds.clone(),
            rounds,
            scratch: Vec::new(),
        }
    }

    fn row(&self, u: usize) -> &[Round] {
        &self.rounds[u * self.n..(u + 1) * self.n]
    }

    fn node_done(&self, u: usize) -> bool {
        self.cfg.decided(self.row(u), &mut Vec::new())
    }
}

impl FastCell for QuorumCell {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn compose_all(
        &mut self,
        round: usize,
        _rng: &mut StdRng,
        bit_limit: Option<u64>,
    ) -> (u64, u64) {
        // Every node gossips its whole row every round (see the reference
        // compose): snapshot the tables so this round's deliveries read
        // pre-round state, and account 32 bits per (peer, round) entry.
        self.snap.copy_from_slice(&self.rounds);
        let per_msg = (self.n as u64) * u64::from(Round::BITS);
        // Every message has this size, so node 0's is the first over.
        check_budget(0, round, per_msg, bit_limit);
        (per_msg * self.n as u64, per_msg)
    }

    fn deliver_all(&mut self, topo: &CsrTopology, _round: usize, _rng: &mut StdRng) {
        let n = self.n;
        for u in 0..n {
            let row = &mut self.rounds[u * n..(u + 1) * n];
            for &v in topo.neighbors(u) {
                let msg = &self.snap[(v as usize) * n..(v as usize + 1) * n];
                for (slot, &r) in row.iter_mut().zip(msg) {
                    if r > *slot {
                        *slot = r;
                    }
                }
            }
            if let Some(step) =
                advance_own_round(row, u, self.cfg.plus_threshold(), &mut self.scratch)
            {
                quorum_metrics().watermark_advance.record(u64::from(step));
            }
        }
    }

    fn spoke(&self, _node: usize) -> bool {
        // Matches the reference compose, which always returns `Some` —
        // required to keep the per-speaker delivery coin stream aligned.
        true
    }

    fn round_end(&mut self, _round: usize, _rng: &mut StdRng) {
        let decided = (0..self.n).filter(|&u| self.node_done(u)).count();
        quorum_metrics().decided_nodes.set(decided as u64);
    }

    fn all_done(&self) -> bool {
        (0..self.n).all(|u| self.node_done(u))
    }

    fn view(&self) -> KnowledgeView {
        KnowledgeView {
            tokens: vec![BitSet::new(self.k); self.n],
            dims: (0..self.n)
                .map(|u| self.row(u).iter().filter(|&&r| r > 0).count())
                .collect(),
            done: (0..self.n).map(|u| self.node_done(u)).collect(),
        }
    }

    fn history_stats(&self) -> (usize, usize, usize, usize) {
        let dims: Vec<usize> = (0..self.n)
            .map(|u| self.row(u).iter().filter(|&&r| r > 0).count())
            .collect();
        let done = (0..self.n).filter(|&u| self.node_done(u)).count();
        (
            dims.iter().copied().min().unwrap_or(0),
            dims.iter().copied().max().unwrap_or(0),
            0, // the family owns no tokens
            done,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncode_dynet::adversaries::ShuffledPathAdversary;
    use dyncode_dynet::driver::run_fast;
    use dyncode_dynet::simulator::run;
    use dyncode_dynet::simulator::SimConfig;
    use dyncode_quorum::{QuorumGoal, QuorumProtocol};

    fn cfg(f: usize, goal: QuorumGoal) -> QuorumConfig {
        QuorumConfig { f, goal }
    }

    #[test]
    fn fast_cell_matches_the_reference_protocol_bit_for_bit() {
        let n = 12;
        for goal in [
            QuorumGoal::Watermark { rounds: 8 },
            QuorumGoal::Decide { q: 4 },
        ] {
            let sim = SimConfig::with_max_rounds(50 * n * n).recording();
            let mut reference = QuorumProtocol::new(n, n, cfg(2, goal));
            let slow = run(&mut reference, &mut ShuffledPathAdversary, &sim, 5);
            let mut cell = QuorumCell::new(n, n, cfg(2, goal));
            let fast = run_fast(&mut cell, &mut ShuffledPathAdversary, &sim, 5);
            assert_eq!(slow, fast, "{goal:?}");
            assert!(fast.completed);
            // Final state agrees row for row.
            for u in 0..n {
                assert_eq!(reference.row(u), cell.row(u), "node {u}");
            }
        }
    }

    #[test]
    fn strict_bit_accounting_is_32_bits_per_peer() {
        let n = 6;
        let sim = SimConfig::with_max_rounds(1000).strict_bits(32 * n as u64);
        let mut cell = QuorumCell::new(n, n, cfg(1, QuorumGoal::Watermark { rounds: 3 }));
        let r = run_fast(&mut cell, &mut ShuffledPathAdversary, &sim, 1);
        assert!(r.completed);
        assert_eq!(r.max_message_bits, 32 * n as u64);
    }

    #[test]
    #[should_panic(expected = "exceeded the message budget")]
    fn strict_bit_accounting_rejects_an_undersized_budget() {
        let n = 6;
        let sim = SimConfig::with_max_rounds(1000).strict_bits(32 * n as u64 - 1);
        let mut cell = QuorumCell::new(n, n, cfg(1, QuorumGoal::Watermark { rounds: 3 }));
        let _ = run_fast(&mut cell, &mut ShuffledPathAdversary, &sim, 1);
    }

    #[test]
    #[should_panic(expected = "n ≥ 5f+1")]
    fn cell_rejects_f_at_or_above_n_over_5() {
        QuorumCell::new(10, 10, cfg(2, QuorumGoal::Watermark { rounds: 8 }));
    }
}
