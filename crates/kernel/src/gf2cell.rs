//! The word-packed GF(2) RLNC cell: per-node coding state as `u64` row
//! slots with incremental Gaussian elimination on limb slices.
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
//! **Layout: slot = pivot column.** Every packet lies in the span of the
//! k source vectors, and a nonzero vector of that span has a nonzero
//! coefficient part, so every pivot is below k. Node u's basis row with
//! pivot p therefore lives at slot p of a k-slot block, and a k-bit pivot
//! bitmap per node is the whole of the basis bookkeeping: pivot order is
//! bitmap order, and rank is the bitmap's popcount. RREF makes each row
//! zero at every other pivot, so
//!
//! * **reduce** XORs exactly the rows at `v`'s pivot bits, all known
//!   before the first XOR (`v & piv`, no reload per XOR, no lookup);
//! * **back-elimination** only visits rows with a pivot left of the new
//!   one and XORs `v` in branch-free from the new pivot's word;
//! * **compose** draws the coins first, in pivot order, and over every
//!   leading all-ones bitmap word the coin word *is* the message's
//!   coefficient word, so row arithmetic runs only on limbs `[lo..wpr)` —
//!   at saturation with k = 128 one limb of three.
//!
//! The XOR sequences are reorderings of `Subspace`/`Gf2Basis`'s (reduce in
//! pivot order, leading-one scan, back-eliminate, sorted insert — over
//! GF(2) normalization is a no-op), and XOR sums are exact, so spans,
//! pivots, rows, coin counts and hence whole runs are bit-identical to the
//! reference protocols. Against the insertion-order slots this replaced
//! (a pivot-sorted permutation per node, a column-to-slot table, and a
//! reduce that reloaded `v` after every XOR), `coded-binary` `wall_s`
//! fell from 1.22 s to 0.88 s (medians of ten alternating pairs).

use crate::coefficient_rng;
use dyncode_dynet::adversary::KnowledgeView;
use dyncode_dynet::bitset::BitSet;
use dyncode_dynet::csr::CsrTopology;
use dyncode_dynet::driver::{check_budget, FastCell};
use dyncode_dynet::phase;
use dyncode_gf::bits::{limb_leading_one, limb_prefix_ones, limb_xor, limbs_for};
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
    /// Pivot bitmap width in u64 limbs: ⌈k/64⌉.
    kw: usize,
    mode: Gf2ViewMode,
    /// The `det=S` advice table; `None` = randomized mode.
    schedule: Option<CoefficientSchedule>,
    /// Per node, k row slots: the row with pivot `p` at `rows[u][p·wpr..]`
    /// (pivot-less slots are never read). Per-node blocks, not one n·k·wpr
    /// block: a single 1.5 MiB block, freed and re-requested per run, left
    /// `coded-binary`'s peak RSS bimodal (5.4 or 6.4 MiB); these hold 5.1–5.4.
    rows: Vec<Box<[u64]>>,
    /// Per node, `kw` words: bit `p` set iff a basis row pivots at `p`.
    piv: Vec<u64>,
    /// Per node: basis dimension (the bitmap's popcount). Every pivot is
    /// below k, so this is also the coefficient-projection rank.
    rank: Vec<u32>,
    /// Message arena: node `u`'s current broadcast at
    /// `msgs[u·wpr .. (u+1)·wpr]`, valid iff `has_msg[u]`.
    msgs: Vec<u64>,
    has_msg: Vec<bool>,
    /// Reduce buffer for incoming packets.
    scratch: Vec<u64>,
}

/// The set bits of `mask`, ascending, offset by `base`.
#[inline]
fn ones(mut mask: u64, base: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            base + b
        })
    })
}

impl Gf2Cell {
    /// A fresh cell: n nodes, k coded indices, `payload_bits`-bit
    /// payloads, reporting views per `mode`. Seed the sources with
    /// [`Gf2Cell::seed_source`] before running.
    pub fn new(n: usize, k: usize, payload_bits: usize, mode: Gf2ViewMode) -> Self {
        let ambient = k + payload_bits;
        let wpr = limbs_for(ambient).max(1);
        let kw = limbs_for(k);
        Gf2Cell {
            n,
            k,
            ambient,
            wpr,
            kw,
            mode,
            schedule: None,
            rows: (0..n).map(|_| vec![0; k * wpr].into()).collect(),
            piv: vec![0; n * kw],
            rank: vec![0; n],
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

    /// `node`'s pivot columns, ascending (basis order).
    fn pivots(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        let piv = &self.piv[node * self.kw..(node + 1) * self.kw];
        piv.iter().enumerate().flat_map(|(w, &m)| ones(m, w * 64))
    }

    /// Node `node`'s row at slot (= pivot column) `p`.
    fn row(&self, node: usize, p: usize) -> &[u64] {
        &self.rows[node][p * self.wpr..(p + 1) * self.wpr]
    }

    /// Basis row `r` (pivot order) of `node`, as a [`Gf2Vec`] — test and
    /// introspection surface, not the hot path.
    pub fn basis_row(&self, node: usize, r: usize) -> Gf2Vec {
        let p = self.pivots(node).nth(r).expect("row index below rank");
        Gf2Vec::from_words(self.row(node, p).to_vec(), self.ambient)
    }

    /// Inserts `v` (a `wpr`-limb packet) into `node`'s basis; returns
    /// `true` iff innovative. `v` is clobbered (it becomes the reduced
    /// row). Identical math to `Subspace::insert` / `Gf2Basis::insert`.
    fn insert(&mut self, node: usize, v: &mut [u64]) -> bool {
        let (k, kw, wpr) = (self.k, self.kw, self.wpr);
        let piv = &mut self.piv[node * kw..(node + 1) * kw];
        let rows = &mut self.rows[node];
        // Reduce: an RREF row is zero at every other pivot, so the rows
        // the reference's pivot-order scan XORs are exactly those at
        // `v`'s pivot bits, and XORing one leaves `v`'s other pivot bits
        // alone — each word's selection `v[w] & piv[w]` is read once, up
        // front. Over the leading all-ones bitmap words every column is a
        // pivot and reduces to zero, so the XORs start at limb `lo`.
        let lo = piv.iter().take_while(|&&m| m == !0).count();
        for w in 0..kw {
            for p in ones(v[w] & piv[w], w * 64) {
                limb_xor(&mut v[lo..], &rows[p * wpr + lo..(p + 1) * wpr]);
            }
        }
        v[..lo].fill(0);
        let Some(p) = limb_leading_one(v) else {
            return false;
        };
        assert!(
            p < k,
            "pivot beyond the coefficients: packets must lie in the source span"
        );
        // Back-eliminate column p: only rows pivoting left of p can hold
        // it (a row is zero before its pivot), and `v` is zero before p,
        // so each row takes `v`'s limbs from p's word on, masked by its
        // bit p — no branch.
        let (pw, pb) = (p / 64, p % 64);
        for (w, &m) in piv[..=pw].iter().enumerate() {
            let left = if w == pw { m & ((1u64 << pb) - 1) } else { m };
            for q in ones(left, w * 64) {
                let row = &mut rows[q * wpr + pw..(q + 1) * wpr];
                let mask = 0u64.wrapping_sub((row[0] >> pb) & 1);
                for (x, y) in row.iter_mut().zip(&v[pw..]) {
                    *x ^= y & mask;
                }
            }
        }
        rows[p * wpr..(p + 1) * wpr].copy_from_slice(v);
        piv[pw] |= 1 << pb;
        self.rank[node] += 1;
        true
    }

    /// Individually decodable tokens of `node` (unit coefficient
    /// prefixes), as set bits inserted into `out`.
    fn available_into(&self, node: usize, out: &mut BitSet) -> usize {
        let mut count = 0;
        for p in self.pivots(node) {
            if limb_prefix_ones(self.row(node, p), self.k) == 1 {
                out.insert(p);
                count += 1;
            }
        }
        count
    }

    fn node_done(&self, node: usize) -> bool {
        self.rank[node] as usize == self.k
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
        let (kw, wpr) = (self.kw, self.wpr);
        let bits = self.ambient as u64;
        let mut round_bits = 0u64;
        let mut round_max = 0u64;
        let mut advice = None;
        for u in 0..self.n {
            if self.rank[u] == 0 {
                // A node that has received nothing stays silent — and
                // draws no coins, exactly like the reference emit.
                self.has_msg[u] = false;
                continue;
            }
            let rng = coefficient_rng(self.schedule.as_ref(), u, round, rng, &mut advice);
            let piv = &self.piv[u * kw..(u + 1) * kw];
            let rows = &self.rows[u];
            let msg = &mut self.msgs[u * wpr..(u + 1) * wpr];
            msg.fill(0);
            // Over a leading all-ones bitmap word, row p contributes
            // exactly bit p (it is zero at every other pivot), so the
            // coin word is the message word; rows add limbs [lo..) only.
            let lo = piv.iter().take_while(|&&m| m == !0).count();
            for w in 0..kw {
                // One coin per basis row, ascending pivots: the exact draw
                // sequence of `random_combination` over GF(2).
                let mut coins = 0u64;
                for p in ones(piv[w], 0) {
                    coins |= u64::from(rng.random::<bool>()) << p;
                }
                if w < lo {
                    msg[w] = coins;
                }
                for p in ones(coins, w * 64) {
                    limb_xor(&mut msg[lo..], &rows[p * wpr + lo..(p + 1) * wpr]);
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
            if self.node_done(u) {
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
    use dyncode_gf::bits::limb_get;
    use dyncode_gf::{Field, Gf2, Gf2Basis};
    use dyncode_rlnc::node::DenseNode;
    use rand::SeedableRng;

    /// k source packets `e_i ++ payload_i` with random d-bit payloads.
    fn sources(k: usize, d: usize, rng: &mut StdRng) -> Vec<Gf2Vec> {
        (0..k)
            .map(|i| Gf2Vec::unit(k, i).concat(&Gf2Vec::random(d, rng)))
            .collect()
    }

    /// Inserts a random combination of `sources[i]` over `indices` into
    /// node 0 of `cell` and into `reference`; both must agree on
    /// innovation, rank, pivots and row content, and — every pivot being
    /// a coefficient column — the rank is the coefficient-projection rank.
    fn insert_both(
        cell: &mut Gf2Cell,
        reference: &mut Gf2Basis,
        sources: &[Gf2Vec],
        indices: impl Iterator<Item = usize>,
        rng: &mut StdRng,
    ) {
        let mut v = Gf2Vec::zeros(cell.ambient);
        for i in indices {
            if rng.random() {
                v.xor_assign(&sources[i]);
            }
        }
        let mut limbs = v.words().to_vec();
        limbs.resize(cell.wpr, 0);
        assert_eq!(cell.insert(0, &mut limbs), reference.insert(v));
        assert_eq!(cell.rank(0), reference.dim());
        for (r, row) in reference.basis().iter().enumerate() {
            assert_eq!(&cell.basis_row(0, r), row, "row {r}");
        }
        assert_eq!(
            cell.rank(0),
            reference.prefix_rank(cell.k),
            "coefficient rank"
        );
    }

    /// Mirror of the packed reference basis on random combinations of the
    /// k source packets — the only vectors a run can ever deliver — from
    /// one limb up to k = 128 (the coefficient/payload boundary on a limb
    /// boundary) and k = 130 (three coefficient limbs), through
    /// saturation.
    #[test]
    fn insert_agrees_with_gf2basis() {
        for (k, d) in [(6, 9), (128, 9), (130, 5)] {
            let mut rng = StdRng::seed_from_u64(11);
            let sources = sources(k, d, &mut rng);
            let mut cell = Gf2Cell::new(1, k, d, Gf2ViewMode::Indexed);
            let mut reference = Gf2Basis::new(k + d);
            for _ in 0..k + 40 {
                insert_both(&mut cell, &mut reference, &sources, 0..k, &mut rng);
            }
            assert_eq!(cell.rank(0), k, "k = {k} saturates");
        }
    }

    /// A gapped bitmap — sources 0, 63, 64 and 100 withheld, so no
    /// bitmap word is all ones and every reduce and back-elimination
    /// takes the general path across three coefficient limbs — then the
    /// gaps filled, re-enabling the leading-full-word shortcut.
    #[test]
    fn gapped_bitmap_inserts_mirror_gf2basis_and_refill() {
        let (k, d) = (130, 7);
        let gaps = [0, 63, 64, 100];
        let mut rng = StdRng::seed_from_u64(19);
        let sources = sources(k, d, &mut rng);
        let mut cell = Gf2Cell::new(1, k, d, Gf2ViewMode::Indexed);
        let mut reference = Gf2Basis::new(k + d);
        for _ in 0..k + 20 {
            let held = (0..k).filter(|i| !gaps.contains(i));
            insert_both(&mut cell, &mut reference, &sources, held, &mut rng);
        }
        assert_eq!(cell.rank(0), k - gaps.len(), "gapped basis");
        for &g in &gaps {
            assert!(!limb_get(&cell.piv[..cell.kw], g), "gap {g} has no pivot");
        }
        assert_compose_matches_rows(&mut cell, 3);
        for _ in 0..20 {
            insert_both(&mut cell, &mut reference, &sources, 0..k, &mut rng);
        }
        assert_eq!(cell.rank(0), k, "gaps filled, saturated");
    }

    /// Node 0's composed message equals the explicit per-row combination
    /// `Σ coin_r · row_r` of its basis rows in pivot order, under a cloned
    /// RNG, and both sides drew the same number of coins.
    fn assert_compose_matches_rows(cell: &mut Gf2Cell, seed: u64) {
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = rng_a.clone();
        let mut expect = Gf2Vec::zeros(cell.ambient);
        for r in 0..cell.rank(0) {
            if rng_a.random() {
                expect.xor_assign(&cell.basis_row(0, r));
            }
        }
        let (bits, _) = cell.compose_all(0, &mut rng_b, None);
        assert_eq!(bits, cell.ambient as u64 * cell.n as u64);
        assert_eq!(rng_a, rng_b, "draw counts must match");
        let msg = Gf2Vec::from_words(cell.msgs[..cell.wpr].to_vec(), cell.ambient);
        assert_eq!(msg, expect, "rank {}", cell.rank(0));
    }

    /// The leading-full-word compose shortcut against the explicit
    /// combination: at contiguous rank 64 (`lo` = 1 with nothing past
    /// it), at contiguous rank 100 (`lo` = 1, a partial second word), and
    /// at rank k = 128 (`lo` = 2: both coefficient limbs are coin words,
    /// rows add the payload limb only).
    #[test]
    fn saturated_compose_matches_general_combination() {
        let (k, d) = (128, 9);
        let mut rng = StdRng::seed_from_u64(17);
        let mut cell = Gf2Cell::new(1, k, d, Gf2ViewMode::Broadcast);
        let mut seeded = 0;
        for rank in [64, 100, k] {
            for i in seeded..rank {
                cell.seed_source(0, i, &Gf2Vec::random(d, &mut rng));
            }
            seeded = rank;
            assert_eq!(cell.rank(0), rank);
            assert_compose_matches_rows(&mut cell, 23 + rank as u64);
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
