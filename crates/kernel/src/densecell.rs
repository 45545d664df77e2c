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
//! round performs zero allocations after warmup.
//!
//! **Each node stores its basis in its own column order, pivots first.**
//! Slot s is the s-th row inserted and its pivot sits at position s;
//! `cols` maps positions to natural columns, so at rank r positions
//! `[0, r)` are the pivots and `[r, ambient)` the free columns. Every
//! packet lies in the k-dimensional source span, whose nonzero vectors
//! have a nonzero coefficient part, so every pivot is below k: payload
//! columns never move and `cols` covers the k coefficient positions only.
//! An RREF row is then e_s on `[0, r)`, and the row operations touch only
//! the free positions:
//!
//! * **reduce** gathers the packet through `cols`; its entries at `[0, r)`
//!   are exactly the reduce coefficients, known before the first row
//!   operation, so the reduction is one [`Field::combine_rows`] of
//!   `(slot, coefficient)` terms, which GF(257) and M61 override to sum raw
//!   products in wide lanes and reduce once per symbol (M61: per 32 terms);
//! * the **new pivot**, the free position with the smallest natural column
//!   and a nonzero entry, is swapped to position r (in `cols`, the packet
//!   and each row), normalized, and back-eliminated from every row by one
//!   rank-1 [`Field::axpy`], which `GfP` fuses into a single branch-free
//!   reduction per symbol;
//! * **compose** writes each row's coin to its slot's position — the
//!   message's entry there — combines only the free positions (at rank k:
//!   the payload alone) and scatters through `cols` for packing;
//! * a node whose span is already full (rank k) skips its whole inbox —
//!   no insert against a full basis can be innovative or change state, and
//!   inserts draw no coins, so the skip is bit-invisible.
//!
//! **Equivalence.** The insert computes what `Subspace::insert` computes
//! (reduce, leading-index scan, normalization, back-elimination,
//! pivot-sorted insert) on permuted columns — field arithmetic is exact,
//! so reordering sums or skipping products by a known zero yields the
//! same row — and compose draws one `F::random` per basis row in pivot
//! order, the draw sequence of `vector::random_combination` and, from an
//! advice stream, of `CoefficientSchedule::coefficients`. Runs are
//! bit-identical to the reference `FieldBroadcast<F>` (kernel contract).

use crate::coefficient_rng;
use dyncode_dynet::adversary::KnowledgeView;
use dyncode_dynet::bitset::BitSet;
use dyncode_dynet::csr::CsrTopology;
use dyncode_dynet::driver::{check_budget, FastCell};
use dyncode_dynet::phase;
use dyncode_gf::{pack, vector, Field};
use dyncode_rlnc::determinize::CoefficientSchedule;
use rand::rngs::StdRng;

/// One node's basis in its own column order (module doc).
#[derive(Clone, Debug)]
struct NodeBasis<F> {
    /// Slot `s` (the s-th row inserted, pivot at position s) lives at
    /// `rows[s·ambient .. (s+1)·ambient]`, position-indexed; grows one row
    /// per innovative insert (total memory is O(Σ ranks), not n·k).
    rows: Vec<F>,
    /// Position → natural column over the k coefficient positions (the
    /// payload positions are their own columns).
    cols: Vec<u32>,
    /// Slots in pivot-ascending order: compose's coin order.
    order: Vec<u32>,
}

impl<F: Field> NodeBasis<F> {
    fn rank(&self) -> usize {
        self.order.len()
    }

    /// Inserts the natural-order packet `src`; returns `true` iff
    /// innovative. `w` (`ambient` symbols) and `terms` are work buffers.
    /// Identical math to `Subspace::insert` (module doc).
    fn insert(&mut self, src: &[F], w: &mut [F], terms: &mut Vec<(u32, F)>) -> bool {
        let (k, ambient, r) = (self.cols.len(), w.len(), self.rank());
        for (x, &c) in w[..k].iter_mut().zip(&self.cols) {
            *x = src[c as usize];
        }
        w[k..].copy_from_slice(&src[k..]);
        // Reduce against the whole basis at once: row s is the only one
        // nonzero at position s (RREF), so its coefficient is `w[s]`.
        terms.clear();
        for (s, &c) in w[..r].iter().enumerate() {
            if !c.is_zero() {
                terms.push((s as u32, c.neg()));
            }
        }
        F::combine_rows(&mut w[r..], &self.rows, ambient, terms);
        // The leading column is a free coefficient one (pivots are < k).
        let Some(j) = (r..k)
            .filter(|&j| !w[j].is_zero())
            .min_by_key(|&j| self.cols[j])
        else {
            assert!(vector::is_zero(&w[k..]), "packet outside the source span");
            return false;
        };
        self.cols.swap(j, r);
        w.swap(j, r);
        for row in self.rows.chunks_exact_mut(ambient) {
            row.swap(j, r);
        }
        // Normalize, then back-eliminate: one rank-1 update per row.
        let inv = w[r].inv().expect("pivot entry nonzero");
        vector::scale(&mut w[r..], inv);
        for row in self.rows.chunks_exact_mut(ambient) {
            let c = row[r];
            if !c.is_zero() {
                F::axpy(&mut row[r..], &w[r..], c.neg());
            }
        }
        w[..r].fill(F::ZERO);
        let p = self.cols[r];
        let at = self.order.partition_point(|&s| self.cols[s as usize] < p);
        self.order.insert(at, r as u32);
        self.rows.extend_from_slice(w);
        true
    }

    /// Writes the position-ordered `w` into `out` in natural column order.
    fn scatter(&self, w: &[F], out: &mut [F]) {
        let k = self.cols.len();
        for (&c, &x) in self.cols.iter().zip(&w[..k]) {
            out[c as usize] = x;
        }
        out[k..].copy_from_slice(&w[k..]);
    }
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
    /// Message arena: node `u`'s packed broadcast at
    /// `msgs[u·wpm .. (u+1)·wpm]`, valid iff `has_msg[u]`.
    msgs: Vec<u64>,
    has_msg: Vec<bool>,
    /// Delivery-time symbol arena: each sender's message is unpacked here
    /// once per round instead of once per receiver (a node of degree d
    /// would otherwise decode the same packet d times).
    unpacked: Vec<F>,
    /// The row in flight in its node's column order, `ambient` symbols.
    w: Vec<F>,
    /// A natural-order row (compose's message, a seeded source).
    msg: Vec<F>,
    /// Gathered `(slot, coefficient)` terms of the reduction or
    /// composition in flight, at most k of them.
    terms: Vec<(u32, F)>,
}

impl<F: Field> DenseCell<F> {
    /// A fresh cell: n nodes, k coded indices, `payload_len`-symbol
    /// payloads. Seed the sources with [`DenseCell::seed_source`] before
    /// running.
    pub fn new(n: usize, k: usize, payload_len: usize) -> Self {
        let ambient = k + payload_len;
        let wpm = pack::packed_words(ambient, F::bits_per_symbol()).max(1);
        let node = NodeBasis {
            rows: Vec::new(),
            cols: (0..k as u32).collect(),
            order: Vec::new(),
        };
        DenseCell {
            n,
            k,
            ambient,
            wpm,
            schedule: None,
            nodes: vec![node; n],
            msgs: vec![0; n * wpm],
            has_msg: vec![false; n],
            unpacked: vec![F::ZERO; n * ambient],
            w: vec![F::ZERO; ambient],
            msg: vec![F::ZERO; ambient],
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
        self.msg.fill(F::ZERO);
        self.msg[index] = F::ONE;
        self.msg[self.k..].copy_from_slice(payload);
        self.nodes[node].insert(&self.msg, &mut self.w, &mut self.terms);
    }

    /// The basis dimension of `node`; every pivot is below k, so this is
    /// also its coefficient-projection rank.
    pub fn rank(&self, node: usize) -> usize {
        self.nodes[node].rank()
    }

    /// Basis row `r` (pivot order) of `node` in natural column order —
    /// test and introspection surface, not the hot path.
    pub fn basis_row(&self, node: usize, r: usize) -> Vec<F> {
        let (st, a) = (&self.nodes[node], self.ambient);
        let slot = st.order[r] as usize;
        let mut row = vec![F::ZERO; a];
        st.scatter(&st.rows[slot * a..(slot + 1) * a], &mut row);
        row
    }

    fn node_done(&self, node: usize) -> bool {
        self.rank(node) == self.k
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
        let mut advice = None;
        for u in 0..self.n {
            let st = &self.nodes[u];
            let r = st.rank();
            if r == 0 {
                // Nothing received: stay silent and draw no coefficients,
                // exactly like the reference emit.
                self.has_msg[u] = false;
                continue;
            }
            let rng = coefficient_rng(self.schedule.as_ref(), u, round, rng, &mut advice);
            // One coefficient per basis row in pivot order — the draw
            // sequence of `random_combination` — written to its slot's
            // position (row s is e_s on `[0, r)`); zero coefficients are
            // skipped, as `scale_add` does.
            self.terms.clear();
            for &s in &st.order {
                let c = F::random(rng);
                self.w[s as usize] = c;
                if !c.is_zero() {
                    self.terms.push((s, c));
                }
            }
            self.w[r..].fill(F::ZERO);
            F::combine_rows(&mut self.w[r..], &st.rows, ambient, &self.terms);
            st.scatter(&self.w, &mut self.msg);
            check_budget(u, round, bits, bit_limit);
            round_bits += bits;
            round_max = round_max.max(bits);
            pack::pack(&self.msg, &mut self.msgs[u * wpm..(u + 1) * wpm]);
            self.has_msg[u] = true;
        }
        (round_bits, round_max)
    }

    fn deliver_all(&mut self, topo: &CsrTopology, _round: usize, _rng: &mut StdRng) {
        let (wpm, ambient) = (self.wpm, self.ambient);
        // Decode each sender's packed message once; every receiver then
        // gathers from the plain symbols.
        for v in 0..self.n {
            if self.has_msg[v] {
                pack::unpack(
                    &self.msgs[v * wpm..(v + 1) * wpm],
                    &mut self.unpacked[v * ambient..(v + 1) * ambient],
                );
            }
        }
        let timing = phase::active();
        for u in 0..self.n {
            let st = &mut self.nodes[u];
            // Saturation shortcut: at rank k the node holds the full
            // source span, so no insert can be innovative or change any
            // row (reducing an in-span vector yields zero), and inserts
            // draw no coins — skipping the inbox is bit-invisible.
            if st.rank() == self.k {
                continue;
            }
            for &v in topo.neighbors(u) {
                let v = v as usize;
                if self.has_msg[v] {
                    let src = &self.unpacked[v * ambient..(v + 1) * ambient];
                    let t = timing.then(std::time::Instant::now);
                    st.insert(src, &mut self.w, &mut self.terms);
                    if let Some(t) = t {
                        phase::elim_add(t.elapsed().as_nanos() as u64);
                    }
                }
            }
        }
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

    /// k source packets `(e_i | random payload)`, `d` payload symbols.
    fn sources<F: Field>(k: usize, d: usize, rng: &mut StdRng) -> Vec<Vec<F>> {
        (0..k)
            .map(|i| {
                let mut v = vector::random_vec(k + d, rng);
                v[..k].copy_from_slice(&vector::unit_vec(k, i));
                v
            })
            .collect()
    }

    /// A random combination of the `picked` sources — the only vectors a
    /// run can deliver.
    fn combination<F: Field>(sources: &[Vec<F>], picked: &[usize], rng: &mut StdRng) -> Vec<F> {
        let mut v = vec![F::ZERO; sources[0].len()];
        for &i in picked {
            vector::scale_add(&mut v, &sources[i], F::random(rng));
        }
        v
    }

    /// Inserts `v` into node 0 of `cell` and into `reference`: both must
    /// agree on innovation, rank, pivots, and row content.
    fn insert_both<F: Field>(cell: &mut DenseCell<F>, reference: &mut Subspace<F>, v: Vec<F>) {
        let fast = cell.nodes[0].insert(&v, &mut cell.w, &mut cell.terms);
        assert_eq!(fast, reference.insert(v));
        assert_eq!(cell.rank(0), reference.dim());
        assert_eq!(cell.rank(0), reference.prefix_rank(cell.k));
        for (r, row) in reference.basis().iter().enumerate() {
            assert_eq!(&cell.basis_row(0, r), row, "row {r}");
        }
    }

    /// Mirror of the reference basis over random combinations of all k
    /// sources, through saturation.
    fn insert_agrees_with_subspace<F: Field>(seed: u64, k: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sources = sources::<F>(k, 7, &mut rng);
        let all: Vec<usize> = (0..k).collect();
        let mut cell: DenseCell<F> = DenseCell::new(1, k, 7);
        let mut reference: Subspace<F> = Subspace::new(k + 7);
        for _ in 0..k + 55 {
            let v = combination(&sources, &all, &mut rng);
            insert_both(&mut cell, &mut reference, v);
        }
    }

    #[test]
    fn insert_mirrors_subspace_over_every_dense_field() {
        // k = 40 takes the reduction past 32 gathered terms, where M61's
        // deferred reduction folds mid-sum; at k = 130 the row is wider
        // than M61's 128-column lane block.
        for k in [5, 40, 130] {
            insert_agrees_with_subspace::<Gf256>(11, k);
            insert_agrees_with_subspace::<Gf257>(12, k);
            insert_agrees_with_subspace::<Mersenne61>(13, k);
        }
    }

    /// Pivots that arrive out of column order: seeded sources {1, 4, 7},
    /// then combinations whose leading column is not the first free
    /// position, so every new pivot is swapped in from j ≠ r and later
    /// reduces gather through a permuted `cols`.
    #[test]
    fn gapped_pivots_mirror_subspace() {
        let (k, d) = (10, 3);
        let mut rng = StdRng::seed_from_u64(21);
        let sources = sources::<Gf257>(k, d, &mut rng);
        let mut cell = DenseCell::<Gf257>::new(1, k, d);
        let mut reference = Subspace::new(k + d);
        for i in [1, 4, 7] {
            cell.seed_source(0, i, &sources[i][k..]);
            reference.insert(sources[i].clone());
        }
        // {9} alone leads at a column where the {5, 9} row is nonzero, so
        // the swap moves a live entry of an existing row.
        let picks: [&[usize]; 6] = [&[5, 9], &[4, 8], &[0, 3, 7], &[1, 4, 7], &[9], &[2, 6, 8]];
        for picked in picks {
            insert_both(
                &mut cell,
                &mut reference,
                combination(&sources, picked, &mut rng),
            );
        }
        let all: Vec<usize> = (0..k).collect();
        while cell.rank(0) < k {
            insert_both(
                &mut cell,
                &mut reference,
                combination(&sources, &all, &mut rng),
            );
        }
    }

    /// At rank k the basis is `(I | P)`, so compose combines the payload
    /// columns only: the message is the coins in pivot order followed by
    /// their combination of the payloads, drawn from the shared RNG one
    /// coin per row. Sources are seeded in reverse, so slot order is not
    /// pivot order.
    fn saturated_compose_is_the_coins_in_pivot_order<F: Field>() {
        let (k, d) = (12, 5);
        let mut rng = StdRng::seed_from_u64(33);
        let sources = sources::<F>(k, d, &mut rng);
        let mut cell = DenseCell::<F>::new(1, k, d);
        for i in (0..k).rev() {
            cell.seed_source(0, i, &sources[i][k..]);
        }
        let mut coins = rng.clone();
        cell.compose_all(3, &mut rng, None);
        let all: Vec<usize> = (0..k).collect();
        let want = combination(&sources, &all, &mut coins);
        assert_eq!(rng, coins, "compose drew other than one coin per row");
        let mut got = vec![F::ZERO; k + d];
        pack::unpack(&cell.msgs[..cell.wpm], &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn saturated_compose_writes_the_coins_in_pivot_order() {
        saturated_compose_is_the_coins_in_pivot_order::<Gf257>();
        saturated_compose_is_the_coins_in_pivot_order::<Mersenne61>();
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
        let zero = vec![Gf257::ZERO; 5];
        assert!(!cell.nodes[0].insert(&zero, &mut cell.w, &mut cell.terms));
        assert_eq!(cell.rank(0), 0);
    }
}
