//! The dense-field row algebra over an arbitrary [`Field`], with packed
//! messages — the fast backend for the prime fields,
//! `field-broadcast(gf257|m61[,det=S])`. GF(2^8) gets the dedicated
//! bit-planar [`Gf256Rows`](crate::gf256cell::Gf256Rows) instead; these
//! rows still support it (the tests pin the mirror property on all three
//! fields).
//!
//! The reference protocol keeps one `Subspace<F>` per node and allocates a
//! `DensePacket<F>` (plus an `Rc` and an inbox `Vec`) per message per
//! neighbor per round. These rows keep the same reduced-row-echelon bases
//! in per-node row arenas that grow one row per innovative insert, and
//! every composed packet is stored bit-packed at ⌈lg q⌉ bits per symbol
//! in the cell's `u64` arena ([`dyncode_gf::pack`]'s chunked-LE layout),
//! so a round performs zero allocations after warmup.
//!
//! **Each node stores its basis in its own column order, pivots first.**
//! Slot s is the s-th row inserted and its pivot sits at position s;
//! `cols` maps positions to natural columns, so at rank r positions
//! `[0, r)` are the pivots and `[r, ambient)` the free columns. Every
//! pivot is below k, so payload columns never move and `cols` covers the
//! k coefficient positions only. An RREF row is then e_s on `[0, r)`, and
//! the row operations touch only the free positions:
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
//! * **delivery** unpacks each sender's message once per round, before
//!   the first insert, instead of once per receiver.

use crate::codingcell::{CodingCell, RowAlgebra};
use dyncode_gf::{pack, vector, Field};
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

/// The dense-field coding cell over `F`.
pub type DenseCell<F> = CodingCell<DenseRows<F>>;

/// Every node's dense-field basis, each in its own column order.
pub struct DenseRows<F: Field> {
    k: usize,
    /// Row width in symbols: k coefficients + payload symbols.
    ambient: usize,
    /// Packed message width in `u64` words.
    wpm: usize,
    nodes: Vec<NodeBasis<F>>,
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
    /// payloads. Seed the sources with [`CodingCell::seed_source`] before
    /// running.
    pub fn new(n: usize, k: usize, payload_len: usize) -> Self {
        let ambient = k + payload_len;
        let node = NodeBasis {
            rows: Vec::new(),
            cols: (0..k as u32).collect(),
            order: Vec::new(),
        };
        let rows = DenseRows {
            k,
            ambient,
            wpm: pack::packed_words(ambient, F::bits_per_symbol()).max(1),
            nodes: vec![node; n],
            unpacked: vec![F::ZERO; n * ambient],
            w: vec![F::ZERO; ambient],
            msg: vec![F::ZERO; ambient],
            terms: Vec::with_capacity(k),
        };
        CodingCell::over(n, k, rows)
    }
}

impl<F: Field> RowAlgebra for DenseRows<F> {
    type Payload = [F];

    #[inline]
    fn msg_words(&self) -> usize {
        self.wpm
    }

    #[inline]
    fn msg_bits(&self) -> u64 {
        self.ambient as u64 * F::bits_per_symbol() as u64
    }

    #[inline]
    fn rank(&self, node: usize) -> usize {
        self.nodes[node].rank()
    }

    fn seed(&mut self, node: usize, index: usize, payload: &[F]) {
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

    #[inline]
    fn compose(&mut self, node: usize, rng: &mut StdRng, msg: &mut [u64]) {
        let st = &self.nodes[node];
        let r = st.rank();
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
        F::combine_rows(&mut self.w[r..], &st.rows, self.ambient, &self.terms);
        st.scatter(&self.w, &mut self.msg);
        pack::pack(&self.msg, msg);
    }

    fn before_delivery(&mut self, msgs: &[u64], spoke: &[bool]) {
        let (wpm, ambient) = (self.wpm, self.ambient);
        for v in (0..spoke.len()).filter(|&v| spoke[v]) {
            pack::unpack(
                &msgs[v * wpm..(v + 1) * wpm],
                &mut self.unpacked[v * ambient..(v + 1) * ambient],
            );
        }
    }

    #[inline]
    fn receive(&mut self, node: usize, sender: usize, _msg: &[u64]) {
        let src = &self.unpacked[sender * self.ambient..(sender + 1) * self.ambient];
        self.nodes[node].insert(src, &mut self.w, &mut self.terms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codingcell::tests::{self as shared, combination, insert_both, sources, SymbolRows};
    use dyncode_gf::{Gf256, Gf257, Mersenne61, Subspace};
    use rand::SeedableRng;

    impl<F: Field> SymbolRows for DenseRows<F> {
        type F = F;

        fn payload(symbols: &[F]) -> Box<[F]> {
            symbols.into()
        }

        fn insert_symbols(&mut self, node: usize, v: &[F]) -> bool {
            self.nodes[node].insert(v, &mut self.w, &mut self.terms)
        }

        fn row_symbols(&self, node: usize, r: usize) -> Vec<F> {
            let (st, a) = (&self.nodes[node], self.ambient);
            let slot = st.order[r] as usize;
            let mut row = vec![F::ZERO; a];
            st.scatter(&st.rows[slot * a..(slot + 1) * a], &mut row);
            row
        }

        fn message_symbols(&self, msg: &[u64]) -> Vec<F> {
            let mut symbols = vec![F::ZERO; self.ambient];
            pack::unpack(msg, &mut symbols);
            symbols
        }
    }

    #[test]
    fn insert_mirrors_subspace_over_every_dense_field() {
        // k = 40 takes the reduction past 32 gathered terms, where M61's
        // deferred reduction folds mid-sum; at k = 130 the row is wider
        // than M61's 128-column lane block.
        for k in [5, 40, 130] {
            shared::insert_mirrors_subspace(DenseCell::<Gf256>::new, 11, k);
            shared::insert_mirrors_subspace(DenseCell::<Gf257>::new, 12, k);
            shared::insert_mirrors_subspace(DenseCell::<Mersenne61>::new, 13, k);
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
            let v = combination(&sources, picked.iter().copied(), &mut rng);
            insert_both(&mut cell, &mut reference, v);
        }
        while cell.rank(0) < k {
            let v = combination(&sources, 0..k, &mut rng);
            insert_both(&mut cell, &mut reference, v);
        }
    }

    #[test]
    fn saturated_compose_writes_the_coins_in_pivot_order() {
        shared::saturated_compose_matches_general_combination(DenseCell::<Gf256>::new);
        shared::saturated_compose_matches_general_combination(DenseCell::<Gf257>::new);
        shared::saturated_compose_matches_general_combination(DenseCell::<Mersenne61>::new);
    }

    #[test]
    fn advice_compose_mirrors_the_reference_emit_and_spares_the_shared_rng() {
        use shared::advice_compose_mirrors_the_reference_emit_and_spares_the_shared_rng as check;
        check(DenseCell::<Gf256>::new);
        check(DenseCell::<Gf257>::new);
        check(DenseCell::<Mersenne61>::new);
    }

    #[test]
    fn seeded_sources_make_node_decodable() {
        shared::seeded_sources_make_node_decodable(DenseCell::<Gf256>::new, &[]);
        shared::seeded_sources_make_node_decodable(DenseCell::<Gf257>::new, &[]);
        shared::seeded_sources_make_node_decodable(DenseCell::<Mersenne61>::new, &[]);
    }

    #[test]
    fn zero_packet_is_never_innovative() {
        shared::zero_packet_is_never_innovative(DenseCell::<Gf256>::new);
        shared::zero_packet_is_never_innovative(DenseCell::<Gf257>::new);
        shared::zero_packet_is_never_innovative(DenseCell::<Mersenne61>::new);
    }
}
