//! The word-packed GF(2) RLNC cell: per-node coding state as one flat
//! `u64` row arena with incremental Gaussian elimination on limb slices.
//!
//! One cell covers both GF(2) coding families of the registry —
//! `indexed-broadcast` (Lemma 5.3 over packed GF(2)) and
//! `field-broadcast(gf2)` — because their dynamics are *identical*: both
//! seed source vectors `e_i ++ payload_i`, both emit a uniformly random
//! span combination (one coin per basis row, in pivot order), both insert
//! received packets into an RREF basis, and both price a message at
//! `k + d` bits. They differ only in the adversary view ([`Gf2ViewMode`]):
//! `field-broadcast` reports all-or-nothing decodability, while
//! `indexed-broadcast` reports per-token availability. Under
//! `field-broadcast(gf2,det=S)` the coins come from each node's advice
//! stream ([`Gf2Cell::with_advice`]) instead of the protocol RNG.
//!
//! The RREF invariant matches `dyncode_gf::{Subspace, Gf2Basis}` exactly
//! (reduce, pivot scan, back-eliminate, pivot-sorted insert — over GF(2)
//! pivot normalization is a no-op), so the span evolution, the per-row
//! coin count of every compose, and hence the whole run are bit-identical
//! to the reference protocols. What changes is the cost model: a row
//! operation is a `limb_xor` over `⌈(k+d)/64⌉` words with no allocation —
//! the reference works element-wise on `Vec<Gf2>` (one byte per
//! coordinate) and clones every packet on receive.

use crate::coefficient_rng;
use dyncode_dynet::adversary::KnowledgeView;
use dyncode_dynet::bitset::BitSet;
use dyncode_dynet::csr::CsrTopology;
use dyncode_dynet::driver::{check_budget, FastCell};
use dyncode_dynet::phase;
use dyncode_gf::bits::{limb_get, limb_leading_one, limb_prefix_ones, limb_xor, limbs_for};
use dyncode_gf::Gf2Vec;
use dyncode_rlnc::determinize::CoefficientSchedule;
use rand::rngs::StdRng;
use rand::RngExt;

/// Which adversary/statistics view the cell reports (the one observable
/// difference between the two GF(2) coding protocols).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gf2ViewMode {
    /// `field-broadcast(gf2)`: a node's token set is all k tokens once
    /// its coefficient projection has full rank, empty before.
    Broadcast,
    /// `indexed-broadcast`: a node's token set is the individually
    /// decodable tokens (basis rows with a unit coefficient prefix).
    Indexed,
}

/// The arena-backed packed GF(2) coding state for all n nodes.
pub struct Gf2Cell {
    n: usize,
    k: usize,
    /// Row width in bits: k coefficient bits + payload bits.
    ambient: usize,
    /// Row width in u64 limbs.
    wpr: usize,
    mode: Gf2ViewMode,
    /// The `det=S` advice table; `None` = randomized mode.
    schedule: Option<CoefficientSchedule>,
    /// Row arena: node `u`'s slot `s` lives at
    /// `rows[(u·k + s)·wpr .. (u·k + s + 1)·wpr]`. Slots are assigned in
    /// insertion order and never move; `order` holds the pivot-sorted
    /// permutation. A node's rank never exceeds k (every packet lies in
    /// the span of the k source vectors), so k slots per node suffice.
    rows: Vec<u64>,
    /// Per node, basis position → row slot (pivot-ascending order).
    order: Vec<u32>,
    /// Per node, basis position → pivot column (strictly increasing).
    pivots: Vec<u32>,
    /// Per node, column → row slot of the basis row pivoting there
    /// (`u32::MAX` = no pivot): the O(1) lookup the reduce loop uses to
    /// jump along `v`'s set bits instead of scanning every basis row.
    pivot_slot: Vec<u32>,
    /// Per node: basis dimension.
    rank: Vec<u32>,
    /// Per node: pivots below k (the coefficient-projection rank).
    coeff_rank: Vec<u32>,
    /// Message arena: node `u`'s current broadcast at
    /// `msgs[u·wpr .. (u+1)·wpr]`, valid iff `has_msg[u]`.
    msgs: Vec<u64>,
    has_msg: Vec<bool>,
    /// Reduce buffer for incoming packets.
    scratch: Vec<u64>,
}

impl Gf2Cell {
    /// A fresh cell: n nodes, k coded indices, `payload_bits`-bit
    /// payloads, reporting views per `mode`. Seed the sources with
    /// [`Gf2Cell::seed_source`] before running.
    pub fn new(n: usize, k: usize, payload_bits: usize, mode: Gf2ViewMode) -> Self {
        let ambient = k + payload_bits;
        let wpr = limbs_for(ambient).max(1);
        Gf2Cell {
            n,
            k,
            ambient,
            wpr,
            mode,
            schedule: None,
            rows: vec![0; n * k * wpr],
            order: vec![0; n * k],
            pivots: vec![0; n * k],
            pivot_slot: vec![u32::MAX; n * ambient],
            rank: vec![0; n],
            coeff_rank: vec![0; n],
            msgs: vec![0; n * wpr],
            has_msg: vec![false; n],
            scratch: vec![0; wpr],
        }
    }

    /// `Some(seed)` makes this `FieldBroadcast::deterministic(_, seed)`:
    /// compose reads the advice table instead of the protocol RNG.
    pub fn with_advice(mut self, seed: Option<u64>) -> Self {
        self.schedule = seed.map(CoefficientSchedule::new);
        self
    }

    /// Seeds `node` with source index `index` and its payload — the
    /// packed analogue of `Gf2Node::seed_source` / `DenseNode::seed_source`.
    ///
    /// # Panics
    /// Panics if the payload width disagrees or `index >= k`.
    pub fn seed_source(&mut self, node: usize, index: usize, payload: &Gf2Vec) {
        assert!(index < self.k, "source index out of range");
        assert_eq!(
            payload.len(),
            self.ambient - self.k,
            "payload width mismatch"
        );
        let packet = Gf2Vec::unit(self.k, index).concat(payload);
        let mut v = packet.words().to_vec();
        v.resize(self.wpr, 0);
        self.insert(node, &mut v);
    }

    /// The basis dimension of `node`.
    pub fn rank(&self, node: usize) -> usize {
        self.rank[node] as usize
    }

    /// The coefficient-projection rank of `node`.
    pub fn coefficient_rank(&self, node: usize) -> usize {
        self.coeff_rank[node] as usize
    }

    /// Basis row `r` (pivot order) of `node`, as a [`Gf2Vec`] — test and
    /// introspection surface, not the hot path.
    pub fn basis_row(&self, node: usize, r: usize) -> Gf2Vec {
        let slot = self.order[node * self.k + r] as usize;
        let base = (node * self.k + slot) * self.wpr;
        Gf2Vec::from_words(self.rows[base..base + self.wpr].to_vec(), self.ambient)
    }

    /// Inserts `v` (a `wpr`-limb packet) into `node`'s basis; returns
    /// `true` iff innovative. `v` is clobbered (it becomes the reduced
    /// row). Identical math to `Subspace::insert` / `Gf2Basis::insert`.
    fn insert(&mut self, node: usize, v: &mut [u64]) -> bool {
        let (k, wpr) = (self.k, self.wpr);
        let obase = node * k;
        let nrank = self.rank[node] as usize;
        let pbase = node * self.ambient;
        // Reduce against the basis by jumping along `v`'s set bits with
        // the pivot→slot lookup. This performs the exact xor sequence of
        // the reference's ascending-pivot scan: an RREF row is zero left
        // of its pivot, so xoring at pivot p clears bit p and can only
        // touch bits beyond it — set bits are met in ascending order, a
        // set bit at a pivot column triggers the same xor the scan would,
        // and a set bit at a non-pivot column is permanent (no later row
        // reaches below its own pivot). The first permanent bit is
        // therefore the reduced vector's leading one.
        let mut new_pivot = None;
        let mut w = 0;
        while w < wpr {
            let mut word = v[w];
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                let b = w * 64 + bit;
                let slot = self.pivot_slot[pbase + b];
                if slot != u32::MAX {
                    let base = (obase + slot as usize) * wpr;
                    limb_xor(v, &self.rows[base..base + wpr]);
                    // Bit b is cleared; bits above it (this word included)
                    // may have flipped — reload the word past bit b.
                    word = if bit == 63 {
                        0
                    } else {
                        v[w] & (!0u64 << (bit + 1))
                    };
                } else {
                    new_pivot.get_or_insert(b);
                    word &= word - 1;
                }
            }
            w += 1;
        }
        let Some(p) = new_pivot else {
            return false;
        };
        debug_assert_eq!(limb_leading_one(v), Some(p));
        // Back-eliminate the new pivot column from existing rows.
        for r in 0..nrank {
            let slot = self.order[obase + r] as usize;
            let base = (obase + slot) * wpr;
            if limb_get(&self.rows[base..base + wpr], p) {
                limb_xor(&mut self.rows[base..base + wpr], v);
            }
        }
        // Insert keeping pivots sorted; the row data takes slot `nrank`.
        assert!(
            nrank < k,
            "rank overflow: packets must lie in the k-dimensional source span"
        );
        let idx = self.pivots[obase..obase + nrank].partition_point(|&q| (q as usize) < p);
        for i in (idx..nrank).rev() {
            self.order[obase + i + 1] = self.order[obase + i];
            self.pivots[obase + i + 1] = self.pivots[obase + i];
        }
        self.order[obase + idx] = nrank as u32;
        self.pivots[obase + idx] = p as u32;
        self.pivot_slot[pbase + p] = nrank as u32;
        let base = (obase + nrank) * wpr;
        self.rows[base..base + wpr].copy_from_slice(v);
        self.rank[node] += 1;
        if p < self.k {
            self.coeff_rank[node] += 1;
        }
        true
    }

    /// Individually decodable tokens of `node` (unit coefficient
    /// prefixes), as set bits inserted into `out`.
    fn available_into(&self, node: usize, out: &mut BitSet) -> usize {
        let obase = node * self.k;
        let mut count = 0;
        for r in 0..self.rank[node] as usize {
            let p = self.pivots[obase + r] as usize;
            if p >= self.k {
                break; // pivots are sorted: the rest are payload pivots
            }
            let slot = self.order[obase + r] as usize;
            let base = (obase + slot) * self.wpr;
            if limb_prefix_ones(&self.rows[base..base + self.wpr], self.k) == 1 {
                out.insert(p);
                count += 1;
            }
        }
        count
    }

    fn node_done(&self, node: usize) -> bool {
        self.coeff_rank[node] as usize == self.k
    }
}

impl FastCell for Gf2Cell {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn spoke(&self, node: usize) -> bool {
        self.has_msg[node]
    }

    fn compose_all(
        &mut self,
        round: usize,
        rng: &mut StdRng,
        bit_limit: Option<u64>,
    ) -> (u64, u64) {
        let wpr = self.wpr;
        let bits = self.ambient as u64;
        let mut round_bits = 0u64;
        let mut round_max = 0u64;
        let mut advice = None;
        for u in 0..self.n {
            let nrank = self.rank[u] as usize;
            if nrank == 0 {
                // A node that has received nothing stays silent — and
                // draws no coins, exactly like the reference emit.
                self.has_msg[u] = false;
                continue;
            }
            let rng = coefficient_rng(self.schedule.as_ref(), u, round, rng, &mut advice);
            self.msgs[u * wpr..(u + 1) * wpr].fill(0);
            let obase = u * self.k;
            for r in 0..nrank {
                // One coin per basis row in pivot order: the exact draw
                // sequence of `random_combination` over GF(2).
                let coin: bool = rng.random();
                if coin {
                    let slot = self.order[obase + r] as usize;
                    let base = (obase + slot) * wpr;
                    // Split the arenas: msgs and rows are disjoint fields.
                    let (msg, row) = (&mut self.msgs, &self.rows);
                    limb_xor(&mut msg[u * wpr..(u + 1) * wpr], &row[base..base + wpr]);
                }
            }
            check_budget(u, round, bits, bit_limit);
            round_bits += bits;
            round_max = round_max.max(bits);
            self.has_msg[u] = true;
        }
        (round_bits, round_max)
    }

    fn deliver_all(&mut self, topo: &CsrTopology, _round: usize, _rng: &mut StdRng) {
        let wpr = self.wpr;
        let timing = phase::active();
        let mut scratch = std::mem::take(&mut self.scratch);
        for u in 0..self.n {
            // Saturation shortcut: every packet lies in the span of the k
            // source vectors, so a node at rank k already holds the full
            // span — no insert can be innovative or change any state, and
            // the whole inbox can be skipped. (The reference pays a full
            // O(rank · len) reduce per packet here; this is where the
            // fast path wins the straggler phase of a run.)
            if self.rank[u] as usize == self.k {
                continue;
            }
            for &v in topo.neighbors(u) {
                let v = v as usize;
                if self.has_msg[v] {
                    scratch.copy_from_slice(&self.msgs[v * wpr..(v + 1) * wpr]);
                    if timing {
                        let t = std::time::Instant::now();
                        self.insert(u, &mut scratch);
                        phase::elim_add(t.elapsed().as_nanos() as u64);
                    } else {
                        self.insert(u, &mut scratch);
                    }
                }
            }
        }
        self.scratch = scratch;
    }

    fn all_done(&self) -> bool {
        (0..self.n).all(|u| self.node_done(u))
    }

    fn view(&self) -> KnowledgeView {
        let mut tokens = Vec::with_capacity(self.n);
        for u in 0..self.n {
            let mut s = BitSet::new(self.k);
            match self.mode {
                Gf2ViewMode::Broadcast => {
                    if self.node_done(u) {
                        for i in 0..self.k {
                            s.insert(i);
                        }
                    }
                }
                Gf2ViewMode::Indexed => {
                    self.available_into(u, &mut s);
                }
            }
            tokens.push(s);
        }
        KnowledgeView {
            dims: self.rank.iter().map(|&r| r as usize).collect(),
            done: (0..self.n).map(|u| self.node_done(u)).collect(),
            tokens,
        }
    }

    fn history_stats(&self) -> (usize, usize, usize, usize) {
        let min_dim = self.rank.iter().copied().min().unwrap_or(0) as usize;
        let max_dim = self.rank.iter().copied().max().unwrap_or(0) as usize;
        let done = (0..self.n).filter(|&u| self.node_done(u)).count();
        let total_tokens = match self.mode {
            Gf2ViewMode::Broadcast => self.k * done,
            Gf2ViewMode::Indexed => {
                let mut scratch = BitSet::new(self.k);
                (0..self.n)
                    .map(|u| self.available_into(u, &mut scratch))
                    .sum()
            }
        };
        (min_dim, max_dim, total_tokens, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncode_gf::{Field, Gf2, Gf2Basis};
    use dyncode_rlnc::node::DenseNode;
    use rand::SeedableRng;

    /// Mirror of the packed reference basis: every insert must agree on
    /// innovation, rank, pivots, and row content. Inputs are random
    /// combinations of k source packets — the only vectors a run can ever
    /// deliver (and what bounds the row arena at k slots per node).
    #[test]
    fn insert_agrees_with_gf2basis() {
        let (k, d) = (6, 9);
        let mut rng = StdRng::seed_from_u64(11);
        let sources: Vec<Gf2Vec> = (0..k)
            .map(|i| Gf2Vec::unit(k, i).concat(&Gf2Vec::random(d, &mut rng)))
            .collect();
        let mut cell = Gf2Cell::new(1, k, d, Gf2ViewMode::Indexed);
        let mut reference = Gf2Basis::new(k + d);
        for _ in 0..60 {
            let mut v = Gf2Vec::zeros(k + d);
            for s in &sources {
                if rng.random() {
                    v.xor_assign(s);
                }
            }
            let mut limbs = v.words().to_vec();
            limbs.resize(cell.wpr, 0);
            let fast = cell.insert(0, &mut limbs);
            let slow = reference.insert(v);
            assert_eq!(fast, slow);
            assert_eq!(cell.rank(0), reference.dim());
            for (r, row) in reference.basis().iter().enumerate() {
                assert_eq!(&cell.basis_row(0, r), row, "row {r}");
            }
            assert_eq!(
                cell.coefficient_rank(0),
                reference.prefix_rank(k),
                "coefficient rank"
            );
        }
    }

    /// Under a schedule compose is the reference's deterministic emit —
    /// `DenseNode::<Gf2>::emit_with_coefficients` on the node's advice
    /// vector, here on two-limb rows — and the shared protocol RNG is
    /// never read.
    #[test]
    fn advice_compose_mirrors_the_reference_emit_and_spares_the_shared_rng() {
        let (k, d, round) = (70, 9, 17);
        let schedule = CoefficientSchedule::new(7);
        let mut rng = StdRng::seed_from_u64(5);
        let payloads: Vec<Gf2Vec> = (0..k).map(|_| Gf2Vec::random(d, &mut rng)).collect();
        // Node 0 holds every source, node 1 a gapped subset, node 2 none.
        let all: Vec<usize> = (0..k).collect();
        let held: [&[usize]; 3] = [&all, &[1, 4, 66], &[]];
        let mut cell =
            Gf2Cell::new(3, k, d, Gf2ViewMode::Broadcast).with_advice(Some(schedule.seed()));
        let mut nodes = vec![DenseNode::<Gf2>::new(k, d); 3];
        for (u, indices) in held.iter().enumerate() {
            for &i in *indices {
                cell.seed_source(u, i, &payloads[i]);
                let symbols: Vec<Gf2> =
                    (0..d).map(|j| Gf2::from_bool(payloads[i].get(j))).collect();
                nodes[u].seed_source(i, &symbols);
            }
        }
        let before = rng.clone();
        cell.compose_all(round, &mut rng, None);
        assert_eq!(rng, before, "advice compose advanced the shared RNG");
        for (u, node) in nodes.iter().enumerate() {
            let coeffs: Vec<Gf2> = schedule.coefficients(u, round, node.rank());
            let expect = node.emit_with_coefficients(&coeffs);
            assert_eq!(cell.spoke(u), expect.is_some(), "node {u}");
            if let Some(packet) = expect {
                let msg = &cell.msgs[u * cell.wpr..(u + 1) * cell.wpr];
                for (i, e) in packet.data.iter().enumerate() {
                    assert_eq!(limb_get(msg, i), !e.is_zero(), "node {u} bit {i}");
                }
            }
        }
    }

    #[test]
    fn seeded_sources_make_node_decodable() {
        let (k, d) = (4, 5);
        let mut rng = StdRng::seed_from_u64(7);
        let payloads: Vec<Gf2Vec> = (0..k).map(|_| Gf2Vec::random(d, &mut rng)).collect();
        let mut cell = Gf2Cell::new(2, k, d, Gf2ViewMode::Indexed);
        for (i, p) in payloads.iter().enumerate() {
            cell.seed_source(0, i, p);
        }
        assert_eq!(cell.rank(0), k);
        assert_eq!(cell.coefficient_rank(0), k);
        assert!(!cell.all_done(), "node 1 has nothing yet");
        let v = cell.view();
        assert_eq!(v.dims, vec![k, 0]);
        assert_eq!(v.tokens[0].len(), k);
        assert!(v.tokens[1].is_empty());
        // Broadcast-mode view is all-or-nothing.
        let mut bc = Gf2Cell::new(1, k, d, Gf2ViewMode::Broadcast);
        bc.seed_source(0, 0, &payloads[0]);
        assert!(bc.view().tokens[0].is_empty(), "not done yet: empty");
    }

    #[test]
    fn zero_packet_is_never_innovative() {
        let mut cell = Gf2Cell::new(1, 3, 3, Gf2ViewMode::Indexed);
        let mut zero = vec![0u64; cell.wpr];
        assert!(!cell.insert(0, &mut zero));
        assert_eq!(cell.rank(0), 0);
    }
}
