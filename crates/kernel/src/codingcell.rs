//! The one RLNC coding cell: the round skeleton shared by every field,
//! generic over the [`RowAlgebra`] that stores and eliminates the rows.
//!
//! The paper's coded algorithm is the same over every GF(q): each node
//! broadcasts a uniformly random combination of its basis and inserts
//! what it hears into an RREF basis. [`CodingCell`] is that algorithm
//! once — the silent rank-0 node, the coin source, bit accounting, the
//! ascending-neighbour delivery with its saturation skip, and the
//! decodability view — and an algebra is only the row layout:
//! [`Gf2Rows`](crate::gf2cell::Gf2Rows) (word-packed, slot = pivot),
//! [`Gf256Rows`](crate::gf256cell::Gf256Rows) (bit-planar) and
//! [`DenseRows<F>`](crate::densecell::DenseRows) (each node's own column
//! order, for the prime fields). The algebra is a type parameter, so
//! every row operation is monomorphised.
//!
//! **What the skeleton guarantees the reference protocols** (`FieldBroadcast`,
//! `IndexedBroadcast`):
//!
//! * a node with rank 0 stays silent and draws no coins;
//! * a node with rank r ≥ 1 draws exactly r coins, one per basis row in
//!   pivot order — from the protocol RNG, or under `det=S` from its
//!   advice stream with the protocol RNG untouched — and its message
//!   costs `msg_bits` whatever its content;
//! * deliveries insert per receiver in ascending neighbour order, and a
//!   node at rank k skips its inbox: every packet lies in the span of the
//!   k source vectors, so against a full basis no insert is innovative or
//!   changes a row, and inserts draw no coins — the skip is
//!   bit-invisible.
//!
//! Every algebra's insert computes what `Subspace::insert` computes
//! (reduce, leading-index scan, normalization, back-elimination,
//! pivot-sorted insert) with its operations reordered, and field
//! arithmetic is exact, so runs are bit-identical to the reference.

use dyncode_dynet::adversary::KnowledgeView;
use dyncode_dynet::bitset::BitSet;
use dyncode_dynet::csr::CsrTopology;
use dyncode_dynet::driver::{check_budget, FastCell};
use dyncode_dynet::phase;
use dyncode_rlnc::determinize::CoefficientSchedule;
use rand::rngs::StdRng;

/// One field's row layout for all n nodes: each node's RREF basis, the
/// compose body and the insert. Messages live in the cell's `u64` arena,
/// `msg_words` words per node, in whatever encoding the algebra chooses.
///
/// Implementations mark the per-round methods `#[inline]`: the generic
/// skeleton is compiled in the crate that names `CodingCell<A>`
/// (`core::runner`), and its calls back into the algebra's crate inline
/// only with the hint (without it `coded-binary` `wall_s` read ≈ 5 %
/// higher on a 2-core x86-64 host, median of nine alternating runs).
pub trait RowAlgebra {
    /// A source payload, as [`CodingCell::seed_source`] takes it.
    type Payload: ?Sized;

    /// Arena words per message.
    fn msg_words(&self) -> usize;

    /// Wire size of one message in bits: ⌈lg q⌉ · (k + payload symbols).
    fn msg_bits(&self) -> u64;

    /// The basis dimension of `node` (every pivot is below k, so this is
    /// also its coefficient-projection rank).
    fn rank(&self, node: usize) -> usize;

    /// Inserts source vector `e_index ++ payload` into `node`'s basis.
    ///
    /// # Panics
    /// Panics if the payload width disagrees.
    fn seed(&mut self, node: usize, index: usize, payload: &Self::Payload);

    /// Writes into `msg` a random combination of `node`'s basis (rank ≥
    /// 1), one coin per basis row in pivot order from `rng`.
    fn compose(&mut self, node: usize, rng: &mut StdRng, msg: &mut [u64]);

    /// Called once per round before the first [`RowAlgebra::receive`],
    /// with the arena and who spoke.
    fn before_delivery(&mut self, _msgs: &[u64], _spoke: &[bool]) {}

    /// Inserts `sender`'s message `msg` into `node`'s basis.
    fn receive(&mut self, node: usize, sender: usize, msg: &[u64]);

    /// Per-token decodability: calls `each` on every token `node` can
    /// decode on its own and returns `true`, or returns `false` without
    /// a call for the all-or-nothing view (`field-broadcast`: every token
    /// once the node is done, none before).
    fn each_decodable(&self, _node: usize, _each: impl FnMut(usize)) -> bool {
        false
    }
}

/// The arena-backed RLNC state for all n nodes over the algebra `A`.
pub struct CodingCell<A> {
    n: usize,
    k: usize,
    /// The `det=S` advice table; `None` = randomized mode.
    schedule: Option<CoefficientSchedule>,
    pub(crate) rows: A,
    /// Message arena: node `u`'s broadcast at `msgs[u·w .. (u+1)·w]`
    /// (`w` = `msg_words`), valid iff `has_msg[u]`.
    msgs: Vec<u64>,
    has_msg: Vec<bool>,
}

impl<A: RowAlgebra> CodingCell<A> {
    /// A fresh cell of n nodes and k coded indices over `rows`.
    pub(crate) fn over(n: usize, k: usize, rows: A) -> Self {
        let msgs = vec![0; n * rows.msg_words()];
        CodingCell {
            n,
            k,
            schedule: None,
            rows,
            msgs,
            has_msg: vec![false; n],
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
    pub fn seed_source(&mut self, node: usize, index: usize, payload: &A::Payload) {
        assert!(index < self.k, "source index out of range");
        self.rows.seed(node, index, payload);
    }

    /// The basis dimension of `node`.
    pub fn rank(&self, node: usize) -> usize {
        self.rows.rank(node)
    }

    /// `node`'s message slot in the arena.
    #[cfg(test)]
    pub(crate) fn message(&self, node: usize) -> &[u64] {
        let w = self.rows.msg_words();
        &self.msgs[node * w..(node + 1) * w]
    }

    fn node_done(&self, node: usize) -> bool {
        self.rows.rank(node) == self.k
    }

    /// The tokens `node` reports to the adversary, each passed to `each`;
    /// returns their count.
    fn tokens(&self, node: usize, mut each: impl FnMut(usize)) -> usize {
        let mut count = 0;
        let per_token = self.rows.each_decodable(node, |i| {
            each(i);
            count += 1;
        });
        if per_token || !self.node_done(node) {
            return count;
        }
        (0..self.k).for_each(each);
        self.k
    }
}

impl<A: RowAlgebra> FastCell for CodingCell<A> {
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
        let (w, bits) = (self.rows.msg_words(), self.rows.msg_bits());
        let mut round_bits = 0u64;
        let mut round_max = 0u64;
        let mut advice = None;
        for u in 0..self.n {
            // A node that has received nothing stays silent — and draws
            // no coins, exactly like the reference emit.
            self.has_msg[u] = self.rows.rank(u) > 0;
            if !self.has_msg[u] {
                continue;
            }
            // Under a `det=S` schedule the coins come from the node's
            // advice stream, parked in a stack slot; the shared protocol
            // RNG is then never advanced, as in the reference.
            let coins = match &self.schedule {
                Some(s) => advice.insert(s.rng(u, round)),
                None => &mut *rng,
            };
            let msg = &mut self.msgs[u * w..(u + 1) * w];
            self.rows.compose(u, coins, msg);
            check_budget(u, round, bits, bit_limit);
            round_bits += bits;
            round_max = round_max.max(bits);
        }
        (round_bits, round_max)
    }

    fn deliver_all(&mut self, topo: &CsrTopology, _round: usize, _rng: &mut StdRng) {
        let w = self.rows.msg_words();
        self.rows.before_delivery(&self.msgs, &self.has_msg);
        let timing = phase::active();
        for u in 0..self.n {
            // Saturation skip (module doc): a rank-k node absorbs nothing.
            if self.node_done(u) {
                continue;
            }
            for &v in topo.neighbors(u) {
                let v = v as usize;
                if self.has_msg[v] {
                    let t = timing.then(std::time::Instant::now);
                    self.rows.receive(u, v, &self.msgs[v * w..(v + 1) * w]);
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
        KnowledgeView {
            dims: (0..self.n).map(|u| self.rank(u)).collect(),
            done: (0..self.n).map(|u| self.node_done(u)).collect(),
            tokens: (0..self.n)
                .map(|u| {
                    let mut s = BitSet::new(self.k);
                    self.tokens(u, |i| {
                        s.insert(i);
                    });
                    s
                })
                .collect(),
        }
    }

    fn history_stats(&self) -> (usize, usize, usize, usize) {
        let min_dim = (0..self.n).map(|u| self.rank(u)).min().unwrap_or(0);
        let max_dim = (0..self.n).map(|u| self.rank(u)).max().unwrap_or(0);
        let done = (0..self.n).filter(|&u| self.node_done(u)).count();
        let total_tokens = (0..self.n).map(|u| self.tokens(u, |_| {})).sum();
        (min_dim, max_dim, total_tokens, done)
    }
}

/// The skeleton's tests, written once over the algebra: each algebra's
/// module runs them through its own `#[test]` under the name it always
/// had, with its [`SymbolRows`] view.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dyncode_gf::{vector, Field, Subspace};
    use dyncode_rlnc::node::DenseNode;
    use rand::SeedableRng;

    /// Symbol-level access to an algebra's rows and messages.
    pub(crate) trait SymbolRows: RowAlgebra + Sized {
        /// The field the algebra's rows are over.
        type F: Field;

        /// `symbols` in the algebra's seeding encoding.
        fn payload(symbols: &[Self::F]) -> Box<Self::Payload>;

        /// Inserts the symbol vector `v` into `node`'s basis; `true` iff
        /// innovative.
        fn insert_symbols(&mut self, node: usize, v: &[Self::F]) -> bool;

        /// Basis row `r` (pivot order) of `node`, in natural column order.
        fn row_symbols(&self, node: usize, r: usize) -> Vec<Self::F>;

        /// An arena message, as symbols.
        fn message_symbols(&self, msg: &[u64]) -> Vec<Self::F>;
    }

    /// k source vectors `e_i ++ payload_i` with random d-symbol payloads.
    pub(crate) fn sources<F: Field>(k: usize, d: usize, rng: &mut StdRng) -> Vec<Vec<F>> {
        (0..k)
            .map(|i| {
                let mut v = vector::unit_vec(k, i);
                v.extend((0..d).map(|_| F::random(rng)));
                v
            })
            .collect()
    }

    /// A random combination of the `picked` sources — the only vectors a
    /// run can deliver.
    pub(crate) fn combination<F: Field>(
        sources: &[Vec<F>],
        picked: impl IntoIterator<Item = usize>,
        rng: &mut StdRng,
    ) -> Vec<F> {
        let mut v = vec![F::ZERO; sources[0].len()];
        for i in picked {
            vector::scale_add(&mut v, &sources[i], F::random(rng));
        }
        v
    }

    /// Inserts `v` into node 0 of `cell` and into `reference`: both must
    /// agree on innovation, rank, pivots and row content, and — every
    /// pivot being a coefficient column — the rank is the
    /// coefficient-projection rank.
    pub(crate) fn insert_both<A: SymbolRows>(
        cell: &mut CodingCell<A>,
        reference: &mut Subspace<A::F>,
        v: Vec<A::F>,
    ) {
        assert_eq!(cell.rows.insert_symbols(0, &v), reference.insert(v));
        assert_eq!(cell.rank(0), reference.dim());
        assert_eq!(cell.rank(0), reference.prefix_rank(cell.k));
        for (r, row) in reference.basis().iter().enumerate() {
            assert_eq!(&cell.rows.row_symbols(0, r), row, "row {r}");
        }
    }

    /// Mirror of the reference basis over random combinations of all k
    /// sources (7 payload symbols), through saturation.
    pub(crate) fn insert_mirrors_subspace<A: SymbolRows>(
        new: impl Fn(usize, usize, usize) -> CodingCell<A>,
        seed: u64,
        k: usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sources = sources::<A::F>(k, 7, &mut rng);
        let mut cell = new(1, k, 7);
        let mut reference = Subspace::new(k + 7);
        for _ in 0..k + 55 {
            let v = combination(&sources, 0..k, &mut rng);
            insert_both(&mut cell, &mut reference, v);
        }
        assert_eq!(cell.rank(0), k, "k = {k} saturates");
    }

    /// Node 0's composed message (node 0 alone, rank ≥ 1) equals the
    /// explicit combination `Σ coin_r · row_r` of its basis rows in pivot
    /// order under a cloned RNG, both sides drew the same number of
    /// coins, and the message is priced `msg_bits`.
    pub(crate) fn assert_compose_matches_rows<A: SymbolRows>(cell: &mut CodingCell<A>, seed: u64) {
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = rng_a.clone();
        let rank = cell.rank(0);
        let mut expect = vec![A::F::ZERO; cell.rows.row_symbols(0, 0).len()];
        for r in 0..rank {
            let c = A::F::random(&mut rng_a);
            vector::scale_add(&mut expect, &cell.rows.row_symbols(0, r), c);
        }
        let bits = cell.rows.msg_bits();
        assert_eq!(cell.compose_all(0, &mut rng_b, None), (bits, bits));
        assert_eq!(rng_a, rng_b, "draw counts must match");
        let msg = cell.rows.message_symbols(cell.message(0));
        assert_eq!(msg, expect, "rank {rank}");
    }

    /// Compose against the explicit combination as node 0 is seeded stage
    /// by stage: contiguous ranks 64 (GF(2)'s leading-full-word shortcut
    /// at `lo` = 1 with nothing past it) and 100 (`lo` = 1, a partial
    /// second word), then k = 128 (`lo` = 2: the coefficient limbs are
    /// all coin words); saturation at k % 64 == 0 (GF(2^8)'s one-word
    /// contiguous shortcut); and sources seeded in reverse, so slot order
    /// is not pivot order (the dense cell's own column order). At rank k
    /// the basis is `(I | P)` — row r is source r — so each message is the
    /// coins in pivot order followed by their combination of the payloads.
    pub(crate) fn saturated_compose_matches_general_combination<A: SymbolRows>(
        new: impl Fn(usize, usize, usize) -> CodingCell<A>,
    ) {
        let cases: [(usize, usize, Vec<Vec<usize>>); 3] = [
            (
                128,
                9,
                vec![(0..64).collect(), (64..100).collect(), (100..128).collect()],
            ),
            (64, 3, vec![(0..64).collect()]),
            (12, 5, vec![(0..12).rev().collect()]),
        ];
        for (k, d, stages) in cases {
            let mut rng = StdRng::seed_from_u64(17);
            let sources = sources::<A::F>(k, d, &mut rng);
            let mut cell = new(1, k, d);
            let mut seeded = 0;
            for stage in stages {
                for &i in &stage {
                    cell.seed_source(0, i, &A::payload(&sources[i][k..]));
                }
                seeded += stage.len();
                assert_eq!(cell.rank(0), seeded, "k = {k}");
                assert_compose_matches_rows(&mut cell, 23 + seeded as u64);
            }
            for (r, source) in sources.iter().enumerate() {
                assert_eq!(&cell.rows.row_symbols(0, r), source, "k = {k}, row {r}");
            }
        }
    }

    /// Under a schedule compose is the reference's deterministic emit —
    /// `DenseNode::emit_with_coefficients` on the node's advice vector —
    /// and the shared protocol RNG is never read. Node 0 holds every
    /// source (at k = 70 the contiguous shortcut with `lo` = 1), node 1 a
    /// gapped subset (the general path; at k = 70 across the word
    /// boundary), node 2 none (silent).
    pub(crate) fn advice_compose_mirrors_the_reference_emit_and_spares_the_shared_rng<
        A: SymbolRows,
    >(
        new: impl Fn(usize, usize, usize) -> CodingCell<A>,
    ) {
        let all: Vec<usize> = (0..70).collect();
        let cases: [(usize, usize, [&[usize]; 3]); 2] = [
            (70, 9, [&all, &[1, 4, 66], &[]]),
            (6, 3, [&all[..6], &[1, 4], &[]]),
        ];
        let round = 17;
        for (k, d, held) in cases {
            let schedule = CoefficientSchedule::new(7);
            let mut rng = StdRng::seed_from_u64(5);
            let sources = sources::<A::F>(k, d, &mut rng);
            let mut cell = new(3, k, d).with_advice(Some(schedule.seed()));
            let mut nodes = vec![DenseNode::<A::F>::new(k, d); 3];
            for (u, indices) in held.iter().enumerate() {
                for &i in *indices {
                    cell.seed_source(u, i, &A::payload(&sources[i][k..]));
                    nodes[u].seed_source(i, &sources[i][k..]);
                }
            }
            let before = rng.clone();
            cell.compose_all(round, &mut rng, None);
            assert_eq!(rng, before, "advice compose advanced the shared RNG");
            for (u, node) in nodes.iter().enumerate() {
                let coeffs: Vec<A::F> = schedule.coefficients(u, round, node.rank());
                let expect = node.emit_with_coefficients(&coeffs);
                assert_eq!(cell.spoke(u), expect.is_some(), "k = {k}, node {u}");
                if let Some(packet) = expect {
                    let msg = cell.rows.message_symbols(cell.message(u));
                    assert_eq!(msg, packet.data, "k = {k}, node {u}");
                }
            }
        }
    }

    /// Node 0 holds every source, node 1 source 0 alone, node 2 nothing:
    /// the view and the history row agree with the algebra's view, where
    /// `lone` is what node 1 reports (empty for all-or-nothing views).
    pub(crate) fn seeded_sources_make_node_decodable<A: SymbolRows>(
        new: impl Fn(usize, usize, usize) -> CodingCell<A>,
        lone: &[usize],
    ) {
        let (k, d) = (4, 3);
        let mut rng = StdRng::seed_from_u64(7);
        let sources = sources::<A::F>(k, d, &mut rng);
        let mut cell = new(3, k, d);
        for (i, source) in sources.iter().enumerate() {
            cell.seed_source(0, i, &A::payload(&source[k..]));
        }
        cell.seed_source(1, 0, &A::payload(&sources[0][k..]));
        assert_eq!(cell.rank(0), k);
        assert!(!cell.all_done(), "nodes 1 and 2 are not done");
        let v = cell.view();
        assert_eq!(v.dims, [k, 1, 0]);
        assert_eq!(v.done, [true, false, false]);
        assert_eq!(v.tokens[0].len(), k);
        assert_eq!(v.tokens[1].iter().collect::<Vec<_>>(), lone);
        assert!(v.tokens[2].is_empty());
        assert_eq!(cell.history_stats(), (0, k, k + lone.len(), 1));
    }

    pub(crate) fn zero_packet_is_never_innovative<A: SymbolRows>(
        new: impl Fn(usize, usize, usize) -> CodingCell<A>,
    ) {
        let (k, d) = (3, 2);
        let mut cell = new(1, k, d);
        assert!(!cell.rows.insert_symbols(0, &vec![A::F::ZERO; k + d]));
        assert_eq!(cell.rank(0), 0);
    }
}
