//! The dense-field RLNC cell: per-node coding state over an arbitrary
//! [`Field`], with packed message arenas — the fast backend for the
//! prime fields, `field-broadcast(gf257|m61[,det=S])`.
//! GF(2^8) gets the dedicated bit-planar
//! [`Gf256Cell`](crate::gf256cell::Gf256Cell) instead; this cell still
//! supports it (the tests pin the mirror property on all three fields).
//!
//! The reference protocol keeps one `Subspace<F>` per node and allocates a
//! `DensePacket<F>` (plus an `Rc` and an inbox `Vec`) per message per
//! neighbor per round. This cell keeps the same reduced-row-echelon bases
//! in per-node row arenas that grow one row per innovative insert, and
//! stores every composed packet bit-packed at ⌈lg q⌉ bits per symbol in
//! one flat `u64` arena ([`dyncode_gf::pack`]'s chunked-LE layout), so a
//! round performs zero allocations after warmup. What it does less of
//! than the reference path:
//!
//! * **one reduction per symbol, not one per multiply.** The bases are in
//!   reduced row echelon form, so the coefficients that reduce an incoming
//!   packet `v` are `v[p_r]` at every pivot — all known before the first
//!   row operation, exactly like compose's drawn coefficients. Reduce and
//!   compose are therefore each one gather of `(slot, pivot, coefficient)`
//!   terms and one [`Field::combine_rows`], which GF(257) and M61 override
//!   to sum raw products in wide lanes and reduce once per symbol (M61:
//!   one Mersenne fold per 32 terms). Back-elimination is a rank-1 update
//!   — every touched symbol gets exactly one product — so it has nothing
//!   to defer and stays on [`Field::axpy`];
//! * every row operation starts at the row's pivot (rows are zero before
//!   it), where `Subspace` pays full-length rows;
//! * a node whose span is already full (rank k) skips its whole inbox —
//!   no insert against a full basis can be innovative or change state, and
//!   inserts draw no coins, so the skip is bit-invisible.
//!
//! **Equivalence.** The insert computes what `Subspace::insert` computes
//! (reduce against every pivot, leading-index scan, pivot normalization,
//! back-elimination, pivot-sorted insert) — field arithmetic is exact, so
//! summing the reduction's products in another order yields the same row
//! — and compose draws exactly one `F::random` per basis row in pivot
//! order — the draw sequence of `vector::random_combination` and, read
//! from an advice stream, of `CoefficientSchedule::coefficients` — so runs
//! are bit-identical to the reference `FieldBroadcast<F>` under the
//! kernel contract.

use crate::coefficient_rng;
use dyncode_dynet::adversary::KnowledgeView;
use dyncode_dynet::bitset::BitSet;
use dyncode_dynet::csr::CsrTopology;
use dyncode_dynet::driver::{check_budget, FastCell};
use dyncode_dynet::phase;
use dyncode_gf::{pack, vector, Field};
use dyncode_rlnc::determinize::CoefficientSchedule;
use rand::rngs::StdRng;

/// One node's basis: a slot-major row arena plus the pivot-sorted
/// indirection. Slots are assigned in insertion order and never move.
#[derive(Clone, Debug)]
struct NodeBasis<F> {
    /// Row slot `s` lives at `rows[s·ambient .. (s+1)·ambient]`; grows one
    /// row per innovative insert (total memory is O(Σ ranks), not n·k).
    rows: Vec<F>,
    /// Basis position (pivot-ascending) → row slot.
    order: Vec<u32>,
    /// Basis position → pivot column, strictly increasing.
    pivots: Vec<u32>,
}

/// The arena-backed dense-field coding state for all n nodes.
pub struct DenseCell<F: Field> {
    n: usize,
    k: usize,
    /// Row width in symbols: k coefficients + payload symbols.
    ambient: usize,
    /// Packed message width in `u64` words.
    wpm: usize,
    /// The `det=S` advice table; `None` = randomized mode.
    schedule: Option<CoefficientSchedule>,
    nodes: Vec<NodeBasis<F>>,
    /// Per node: pivots below k (the coefficient-projection rank).
    coeff_rank: Vec<u32>,
    /// Message arena: node `u`'s packed broadcast at
    /// `msgs[u·wpm .. (u+1)·wpm]`, valid iff `has_msg[u]`.
    msgs: Vec<u64>,
    has_msg: Vec<bool>,
    /// Delivery-time symbol arena: each sender's message is unpacked here
    /// once per round instead of once per receiver (a node of degree d
    /// would otherwise decode the same packet d times).
    unpacked: Vec<F>,
    /// Compose/unpack buffer, `ambient` symbols.
    scratch: Vec<F>,
    /// Gathered `(slot, pivot, coefficient)` terms of the reduction or
    /// composition in flight, at most k of them.
    terms: Vec<(u32, u32, F)>,
}

impl<F: Field> DenseCell<F> {
    /// A fresh cell: n nodes, k coded indices, `payload_len`-symbol
    /// payloads. Seed the sources with [`DenseCell::seed_source`] before
    /// running.
    pub fn new(n: usize, k: usize, payload_len: usize) -> Self {
        let ambient = k + payload_len;
        let wpm = pack::packed_words(ambient, F::bits_per_symbol()).max(1);
        DenseCell {
            n,
            k,
            ambient,
            wpm,
            schedule: None,
            nodes: vec![
                NodeBasis {
                    rows: Vec::new(),
                    order: Vec::new(),
                    pivots: Vec::new(),
                };
                n
            ],
            coeff_rank: vec![0; n],
            msgs: vec![0; n * wpm],
            has_msg: vec![false; n],
            unpacked: vec![F::ZERO; n * ambient],
            scratch: vec![F::ZERO; ambient],
            terms: Vec::with_capacity(k),
        }
    }

    /// `Some(seed)` makes this `FieldBroadcast::deterministic(_, seed)`:
    /// compose reads the advice table instead of the protocol RNG.
    pub fn with_advice(mut self, seed: Option<u64>) -> Self {
        self.schedule = seed.map(CoefficientSchedule::new);
        self
    }

    /// Seeds `node` with source index `index` and its payload — the arena
    /// analogue of `DenseNode::seed_source`.
    ///
    /// # Panics
    /// Panics if the payload width disagrees or `index >= k`.
    pub fn seed_source(&mut self, node: usize, index: usize, payload: &[F]) {
        assert!(index < self.k, "source index out of range");
        assert_eq!(
            payload.len(),
            self.ambient - self.k,
            "payload width mismatch"
        );
        let mut v = std::mem::take(&mut self.scratch);
        v.fill(F::ZERO);
        v[index] = F::ONE;
        v[self.k..].copy_from_slice(payload);
        self.insert(node, &mut v);
        self.scratch = v;
    }

    /// The basis dimension of `node`.
    pub fn rank(&self, node: usize) -> usize {
        self.nodes[node].order.len()
    }

    /// The coefficient-projection rank of `node`.
    pub fn coefficient_rank(&self, node: usize) -> usize {
        self.coeff_rank[node] as usize
    }

    /// Basis row `r` (pivot order) of `node` — test and introspection
    /// surface, not the hot path.
    pub fn basis_row(&self, node: usize, r: usize) -> Vec<F> {
        let st = &self.nodes[node];
        let slot = st.order[r] as usize;
        st.rows[slot * self.ambient..(slot + 1) * self.ambient].to_vec()
    }

    /// Inserts `v` (an `ambient`-symbol packet) into `node`'s basis;
    /// returns `true` iff innovative. `v` is clobbered (it becomes the
    /// normalized new row). Identical math to `Subspace::insert`.
    fn insert(&mut self, node: usize, v: &mut [F]) -> bool {
        let (k, ambient) = (self.k, self.ambient);
        let st = &mut self.nodes[node];
        // Reduce against the whole basis at once. Row r is the only one
        // nonzero in its pivot column p_r (RREF), so reducing by one row
        // never changes `v` at another row's pivot: the coefficient a
        // row-by-row reduction would meet at row r is `v[p_r]` as
        // delivered. Every row is zero before its pivot (its leading
        // index), so each term starts there.
        let terms = &mut self.terms;
        terms.clear();
        for (&slot, &p) in st.order.iter().zip(&st.pivots) {
            let c = v[p as usize];
            if !c.is_zero() {
                terms.push((slot, p, c.neg()));
            }
        }
        F::combine_rows(v, &st.rows, ambient, terms);
        debug_assert!(
            st.pivots.iter().all(|&q| v[q as usize].is_zero()),
            "reduced row must vanish at every pivot column"
        );
        let Some(p) = vector::leading_index(v) else {
            return false;
        };
        // Normalize the new pivot to 1 (`v` is zero before `p`).
        let inv = v[p].inv().expect("leading entry nonzero");
        vector::scale(&mut v[p..], inv);
        // Back-eliminate the new pivot column from existing rows; `v` is
        // zero before `p`, so only entries from `p` on can change.
        for r in 0..st.order.len() {
            let slot = st.order[r] as usize;
            let row = &mut st.rows[slot * ambient + p..(slot + 1) * ambient];
            let c = row[0];
            if !c.is_zero() {
                F::axpy(row, &v[p..], c.neg());
            }
        }
        debug_assert!(
            st.rows.iter().skip(p).step_by(ambient).all(|c| c.is_zero()),
            "existing rows must vanish at the new pivot column"
        );
        // Insert keeping pivots sorted; the row data takes the next slot.
        let nrank = st.order.len();
        assert!(
            nrank < k,
            "rank overflow: packets must lie in the k-dimensional source span"
        );
        let idx = st.pivots.partition_point(|&q| (q as usize) < p);
        st.order.insert(idx, nrank as u32);
        st.pivots.insert(idx, p as u32);
        st.rows.extend_from_slice(v);
        if p < k {
            self.coeff_rank[node] += 1;
        }
        true
    }

    fn node_done(&self, node: usize) -> bool {
        self.coeff_rank[node] as usize == self.k
    }
}

impl<F: Field> FastCell for DenseCell<F> {
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
        let (ambient, wpm) = (self.ambient, self.wpm);
        let bits = ambient as u64 * F::bits_per_symbol() as u64;
        let mut round_bits = 0u64;
        let mut round_max = 0u64;
        let mut msg = std::mem::take(&mut self.scratch);
        let mut terms = std::mem::take(&mut self.terms);
        let mut advice = None;
        for u in 0..self.n {
            let st = &self.nodes[u];
            if st.order.is_empty() {
                // Nothing received: stay silent and draw no coefficients,
                // exactly like the reference emit.
                self.has_msg[u] = false;
                continue;
            }
            let rng = coefficient_rng(self.schedule.as_ref(), u, round, rng, &mut advice);
            // One coefficient per basis row in pivot order — the draw
            // sequence of `random_combination`; zero coefficients are
            // skipped, as `scale_add` does, and each term starts at the
            // row's pivot (rows are zero before their pivot).
            terms.clear();
            for (&slot, &p) in st.order.iter().zip(&st.pivots) {
                let c = F::random(rng);
                if !c.is_zero() {
                    terms.push((slot, p, c));
                }
            }
            msg.fill(F::ZERO);
            F::combine_rows(&mut msg, &st.rows, ambient, &terms);
            check_budget(u, round, bits, bit_limit);
            round_bits += bits;
            round_max = round_max.max(bits);
            pack::pack(&msg, &mut self.msgs[u * wpm..(u + 1) * wpm]);
            self.has_msg[u] = true;
        }
        self.scratch = msg;
        self.terms = terms;
        (round_bits, round_max)
    }

    fn deliver_all(&mut self, topo: &CsrTopology, _round: usize, _rng: &mut StdRng) {
        let (wpm, ambient) = (self.wpm, self.ambient);
        // Decode each sender's packed message once; every receiver then
        // starts from a plain symbol copy.
        let mut unpacked = std::mem::take(&mut self.unpacked);
        for v in 0..self.n {
            if self.has_msg[v] {
                pack::unpack(
                    &self.msgs[v * wpm..(v + 1) * wpm],
                    &mut unpacked[v * ambient..(v + 1) * ambient],
                );
            }
        }
        let timing = phase::active();
        let mut scratch = std::mem::take(&mut self.scratch);
        for u in 0..self.n {
            // Saturation shortcut: at rank k the node holds the full
            // source span, so no insert can be innovative or change any
            // row (reducing an in-span vector yields zero), and inserts
            // draw no coins — skipping the inbox is bit-invisible.
            if self.nodes[u].order.len() == self.k {
                continue;
            }
            for &v in topo.neighbors(u) {
                let v = v as usize;
                if self.has_msg[v] {
                    scratch.copy_from_slice(&unpacked[v * ambient..(v + 1) * ambient]);
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
        self.unpacked = unpacked;
    }

    fn all_done(&self) -> bool {
        (0..self.n).all(|u| self.node_done(u))
    }

    fn view(&self) -> KnowledgeView {
        // Mirror of `FieldBroadcast::view`: all-or-nothing decodability.
        let tokens: Vec<BitSet> = (0..self.n)
            .map(|u| {
                let mut s = BitSet::new(self.k);
                if self.node_done(u) {
                    for i in 0..self.k {
                        s.insert(i);
                    }
                }
                s
            })
            .collect();
        KnowledgeView {
            dims: (0..self.n).map(|u| self.rank(u)).collect(),
            done: (0..self.n).map(|u| self.node_done(u)).collect(),
            tokens,
        }
    }

    fn history_stats(&self) -> (usize, usize, usize, usize) {
        let min_dim = (0..self.n).map(|u| self.rank(u)).min().unwrap_or(0);
        let max_dim = (0..self.n).map(|u| self.rank(u)).max().unwrap_or(0);
        let done = (0..self.n).filter(|&u| self.node_done(u)).count();
        (min_dim, max_dim, self.k * done, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncode_gf::{Gf256, Gf257, Mersenne61, Subspace};
    use dyncode_rlnc::node::DenseNode;
    use rand::{rngs::StdRng, SeedableRng};

    /// Mirror of the reference basis: every insert must agree with
    /// `Subspace::insert` on innovation, rank, pivots, and row content.
    /// Inputs are random combinations of k source packets — the only
    /// vectors a run can deliver.
    fn insert_agrees_with_subspace<F: Field>(seed: u64, k: usize) {
        let d = 7;
        let mut rng = StdRng::seed_from_u64(seed);
        let sources: Vec<Vec<F>> = (0..k)
            .map(|i| {
                let mut v = vec![F::ZERO; k + d];
                v[i] = F::ONE;
                for s in v[k..].iter_mut() {
                    *s = F::random(&mut rng);
                }
                v
            })
            .collect();
        let mut cell: DenseCell<F> = DenseCell::new(1, k, d);
        let mut reference: Subspace<F> = Subspace::new(k + d);
        for _ in 0..k + 55 {
            let mut v = vec![F::ZERO; k + d];
            for s in &sources {
                F::axpy(&mut v, s, F::random(&mut rng));
            }
            let fast = cell.insert(0, &mut v.clone());
            let slow = reference.insert(v);
            assert_eq!(fast, slow);
            assert_eq!(cell.rank(0), reference.dim());
            for (r, row) in reference.basis().iter().enumerate() {
                assert_eq!(&cell.basis_row(0, r), row, "row {r}");
            }
            assert_eq!(cell.coefficient_rank(0), reference.prefix_rank(k));
        }
    }

    #[test]
    fn insert_mirrors_subspace_over_every_dense_field() {
        // k = 40 takes the reduction past 32 gathered terms, where M61's
        // deferred reduction folds mid-sum.
        for k in [5, 40] {
            insert_agrees_with_subspace::<Gf256>(11, k);
            insert_agrees_with_subspace::<Gf257>(12, k);
            insert_agrees_with_subspace::<Mersenne61>(13, k);
        }
    }

    /// Under a schedule compose is the reference's deterministic emit —
    /// `DenseNode::emit_with_coefficients` on the node's advice vector —
    /// and the shared protocol RNG is never read.
    fn advice_compose_agrees_with_dense_node<F: Field>() {
        let (k, d, round) = (6, 3, 17);
        let schedule = CoefficientSchedule::new(7);
        let mut rng = StdRng::seed_from_u64(5);
        let payloads: Vec<Vec<F>> = (0..k)
            .map(|_| (0..d).map(|_| F::random(&mut rng)).collect())
            .collect();
        // Node 0 holds every source, node 1 a gapped subset, node 2 none.
        let held: [&[usize]; 3] = [&[0, 1, 2, 3, 4, 5], &[1, 4], &[]];
        let mut cell = DenseCell::<F>::new(3, k, d).with_advice(Some(schedule.seed()));
        let mut nodes = vec![DenseNode::<F>::new(k, d); 3];
        for (u, indices) in held.iter().enumerate() {
            for &i in *indices {
                cell.seed_source(u, i, &payloads[i]);
                nodes[u].seed_source(i, &payloads[i]);
            }
        }
        let before = rng.clone();
        cell.compose_all(round, &mut rng, None);
        assert_eq!(rng, before, "advice compose advanced the shared RNG");
        for (u, node) in nodes.iter().enumerate() {
            let coeffs: Vec<F> = schedule.coefficients(u, round, node.rank());
            let expect = node.emit_with_coefficients(&coeffs);
            assert_eq!(cell.spoke(u), expect.is_some(), "node {u}");
            if let Some(packet) = expect {
                let mut got = vec![F::ZERO; k + d];
                pack::unpack(&cell.msgs[u * cell.wpm..(u + 1) * cell.wpm], &mut got);
                assert_eq!(got, packet.data, "node {u}");
            }
        }
    }

    #[test]
    fn advice_compose_mirrors_the_reference_emit_and_spares_the_shared_rng() {
        advice_compose_agrees_with_dense_node::<Gf257>();
        advice_compose_agrees_with_dense_node::<Mersenne61>();
    }

    #[test]
    fn seeded_sources_make_node_decodable() {
        let (k, d) = (4, 3);
        let mut rng = StdRng::seed_from_u64(7);
        let payloads: Vec<Vec<Gf256>> = (0..k)
            .map(|_| (0..d).map(|_| Gf256::random(&mut rng)).collect())
            .collect();
        let mut cell: DenseCell<Gf256> = DenseCell::new(2, k, d);
        for (i, p) in payloads.iter().enumerate() {
            cell.seed_source(0, i, p);
        }
        assert_eq!(cell.rank(0), k);
        assert_eq!(cell.coefficient_rank(0), k);
        assert!(!cell.all_done(), "node 1 has nothing yet");
        let v = cell.view();
        assert_eq!(v.dims, vec![k, 0]);
        assert_eq!(v.tokens[0].len(), k, "done view is all-or-nothing");
        assert!(v.tokens[1].is_empty());
        assert_eq!(cell.history_stats(), (0, k, k, 1));
    }

    #[test]
    fn zero_packet_is_never_innovative() {
        let mut cell: DenseCell<Gf257> = DenseCell::new(1, 3, 2);
        let mut zero = vec![Gf257::ZERO; 5];
        assert!(!cell.insert(0, &mut zero));
        assert_eq!(cell.rank(0), 0);
    }
}
