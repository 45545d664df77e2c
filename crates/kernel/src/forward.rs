//! The arena-backed token-forwarding cell: both Theorem 2.1 schedules
//! (baseline and T-stable pipelined) with a flat per-round message arena.
//!
//! The reference `TokenForwarding` allocates a `Vec<usize>` message per
//! speaking node per round, and the simulator clones those into a fresh
//! inbox `Vec` per receiving node. Here a round's messages live in one
//! reused `u32` arena indexed by per-node offsets, and delivery walks the
//! CSR neighbors straight into the receivers' known-sets — zero per-round
//! heap growth after warmup. The schedule logic (prefix completion,
//! window filter, phase/window resets) is a line-for-line transcription
//! of the reference protocol, which draws no randomness, so equivalence
//! is purely structural.

use dyncode_dynet::adversary::KnowledgeView;
use dyncode_dynet::bitset::BitSet;
use dyncode_dynet::csr::CsrTopology;
use dyncode_dynet::driver::{check_budget, FastCell};
use rand::rngs::StdRng;

/// The arena-backed forwarding state for all n nodes.
pub struct ForwardCell {
    n: usize,
    k: usize,
    /// Token size in bits (each forwarded token costs d bits).
    d: usize,
    /// Tokens per message, ⌊b/d⌋.
    per_msg: usize,
    /// Tokens retired per phase.
    batch: usize,
    /// Rounds per phase.
    phase_rounds: usize,
    /// Stability window of the pipelining rule; `None` = baseline.
    window: Option<usize>,
    /// Retired-prefix length on the public schedule.
    completed: usize,
    /// Per node: known token indices.
    known: Vec<BitSet>,
    /// Per node: batch tokens already broadcast this window (pipelined
    /// mode only).
    sent: Vec<BitSet>,
    /// Message arena: node `u`'s round broadcast is
    /// `msg_tokens[msg_off[u] .. msg_off[u + 1]]`.
    msg_tokens: Vec<u32>,
    msg_off: Vec<u32>,
}

impl ForwardCell {
    /// A fresh cell for the given schedule. `holders[i]` lists the nodes
    /// initially knowing token `i`; `per_msg` is ⌊b/d⌋ (at least 1).
    ///
    /// # Panics
    /// Panics on an out-of-range holder or zero schedule constants.
    #[allow(clippy::too_many_arguments)] // the schedule's full parameter set
    pub fn new(
        n: usize,
        k: usize,
        d: usize,
        per_msg: usize,
        batch: usize,
        phase_rounds: usize,
        window: Option<usize>,
        holders: &[Vec<usize>],
    ) -> Self {
        assert!(
            per_msg >= 1 && batch >= 1 && phase_rounds >= 1,
            "bad schedule"
        );
        let mut known = vec![BitSet::new(k); n];
        for (i, hs) in holders.iter().enumerate() {
            for &u in hs {
                known[u].insert(i);
            }
        }
        ForwardCell {
            n,
            k,
            d,
            per_msg,
            batch,
            phase_rounds,
            window,
            completed: 0,
            known,
            sent: vec![BitSet::new(k); n],
            msg_tokens: Vec::new(),
            msg_off: vec![0; n + 1],
        }
    }

    /// The retired-prefix length (test surface).
    pub fn completed(&self) -> usize {
        self.completed
    }

    fn node_done(&self, u: usize) -> bool {
        self.completed >= self.k && self.known[u].len() == self.k
    }
}

impl FastCell for ForwardCell {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn spoke(&self, node: usize) -> bool {
        // A nonempty arena slice ⇔ the reference compose returned a
        // nonempty batch ⇔ `Some(chosen)`.
        self.msg_off[node + 1] > self.msg_off[node]
    }

    fn compose_all(
        &mut self,
        round: usize,
        _rng: &mut StdRng,
        bit_limit: Option<u64>,
    ) -> (u64, u64) {
        let mut round_bits = 0u64;
        let mut round_max = 0u64;
        self.msg_tokens.clear();
        self.msg_off[0] = 0;
        for u in 0..self.n {
            let start = self.msg_tokens.len();
            // The next batch: the `batch` smallest known tokens past the
            // retired prefix; in pipelined mode, minus those already sent
            // this window; at most ⌊b/d⌋ chosen — exactly the reference
            // compose (`next_batch` + window filter + take).
            for i in self.known[u].iter().skip(self.completed).take(self.batch) {
                if self.msg_tokens.len() - start == self.per_msg {
                    break;
                }
                if self.window.is_some() && self.sent[u].contains(i) {
                    continue;
                }
                self.msg_tokens.push(i as u32);
            }
            if self.window.is_some() {
                for j in start..self.msg_tokens.len() {
                    let i = self.msg_tokens[j] as usize;
                    self.sent[u].insert(i);
                }
            }
            let chosen = self.msg_tokens.len() - start;
            if chosen > 0 {
                let bits = (chosen * self.d) as u64;
                check_budget(u, round, bits, bit_limit);
                round_bits += bits;
                round_max = round_max.max(bits);
            }
            self.msg_off[u + 1] = self.msg_tokens.len() as u32;
        }
        (round_bits, round_max)
    }

    fn deliver_all(&mut self, topo: &CsrTopology, _round: usize, _rng: &mut StdRng) {
        for u in 0..self.n {
            for &v in topo.neighbors(u) {
                let v = v as usize;
                let (a, b) = (self.msg_off[v] as usize, self.msg_off[v + 1] as usize);
                for j in a..b {
                    let token = self.msg_tokens[j] as usize;
                    self.known[u].insert(token);
                }
            }
        }
    }

    fn round_end(&mut self, round: usize, _rng: &mut StdRng) {
        if let Some(t) = self.window {
            if (round + 1).is_multiple_of(t) {
                for s in &mut self.sent {
                    s.clear();
                }
            }
        }
        if (round + 1).is_multiple_of(self.phase_rounds) {
            self.completed = (self.completed + self.batch).min(self.k);
            for s in &mut self.sent {
                s.clear();
            }
        }
    }

    fn all_done(&self) -> bool {
        self.completed >= self.k && (0..self.n).all(|u| self.known[u].len() == self.k)
    }

    fn view(&self) -> KnowledgeView {
        KnowledgeView {
            tokens: self.known.clone(),
            dims: self.known.iter().map(BitSet::len).collect(),
            done: (0..self.n).map(|u| self.node_done(u)).collect(),
        }
    }

    fn history_stats(&self) -> (usize, usize, usize, usize) {
        let counts: Vec<usize> = self.known.iter().map(BitSet::len).collect();
        let min_dim = counts.iter().copied().min().unwrap_or(0);
        let max_dim = counts.iter().copied().max().unwrap_or(0);
        let total_tokens = counts.iter().sum();
        let done = (0..self.n).filter(|&u| self.node_done(u)).count();
        (min_dim, max_dim, total_tokens, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Node 0 knows everything, batch 4, 2 tokens per message, window 4:
    /// the hand-computed schedule of the reference window-rule test.
    #[test]
    fn window_rule_matches_reference_schedule() {
        let holders: Vec<Vec<usize>> = (0..8).map(|_| vec![0]).collect();
        let mut cell = ForwardCell::new(8, 8, 4, 2, 4, 100, Some(4), &holders);
        let mut rng = StdRng::seed_from_u64(1);
        let msg = |c: &ForwardCell, u: usize| -> Vec<u32> {
            c.msg_tokens[c.msg_off[u] as usize..c.msg_off[u + 1] as usize].to_vec()
        };
        cell.compose_all(0, &mut rng, None);
        assert_eq!(msg(&cell, 0), vec![0, 1]);
        cell.compose_all(1, &mut rng, None);
        assert_eq!(msg(&cell, 0), vec![2, 3]);
        cell.compose_all(2, &mut rng, None);
        assert!(msg(&cell, 0).is_empty(), "batch exhausted");
        for r in 2..4 {
            cell.round_end(r, &mut rng);
        }
        cell.compose_all(4, &mut rng, None);
        assert_eq!(msg(&cell, 0), vec![0, 1], "window reset re-enables");
    }

    #[test]
    fn phase_end_retires_the_batch() {
        let holders: Vec<Vec<usize>> = (0..4).map(|u| vec![u]).collect();
        let mut cell = ForwardCell::new(4, 4, 4, 2, 2, 3, None, &holders);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(cell.completed(), 0);
        cell.round_end(1, &mut rng);
        assert_eq!(cell.completed(), 0, "mid-phase");
        cell.round_end(2, &mut rng);
        assert_eq!(cell.completed(), 2, "phase of 3 rounds retires batch 2");
        cell.round_end(5, &mut rng);
        assert_eq!(cell.completed(), 4);
        assert!(!cell.all_done(), "nodes still missing tokens");
    }
}
