//! The word-packed GF(2) row algebra: per-node coding state as `u64` row
//! slots with incremental Gaussian elimination on limb slices.
//!
//! One cell covers both GF(2) coding families of the registry —
//! `indexed-broadcast` (Lemma 5.3 over packed GF(2)) and
//! `field-broadcast(gf2)` — because their dynamics are *identical*: both
//! seed source vectors `e_i ++ payload_i` and price a message at `k + d`
//! bits. They differ only in the adversary view ([`Gf2ViewMode`]):
//! `field-broadcast` reports all-or-nothing decodability, while
//! `indexed-broadcast` reports per-token availability.
//!
//! **Layout: slot = pivot column.** Every pivot is below k, so node u's
//! basis row with pivot p lives at slot p of a k-slot block, and a k-bit
//! pivot bitmap per node is the whole of the basis bookkeeping: pivot
//! order is bitmap order, and rank is the bitmap's popcount. RREF makes
//! each row zero at every other pivot, so
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
//! Over GF(2) normalization is a no-op. Against the insertion-order slots
//! this replaced (a pivot-sorted permutation per node, a column-to-slot
//! table, and a reduce that reloaded `v` after every XOR), `coded-binary`
//! `wall_s` fell from 1.22 s to 0.88 s (medians of ten alternating pairs).

use crate::codingcell::{CodingCell, RowAlgebra};
use dyncode_gf::bits::{limb_leading_one, limb_prefix_ones, limb_xor, limbs_for};
use dyncode_gf::Gf2Vec;
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

/// The packed GF(2) coding cell.
pub type Gf2Cell = CodingCell<Gf2Rows>;

/// Every node's packed GF(2) basis, slot = pivot.
pub struct Gf2Rows {
    k: usize,
    /// Row width in bits: k coefficient bits + payload bits.
    ambient: usize,
    /// Row width in u64 limbs.
    wpr: usize,
    /// Pivot bitmap width in u64 limbs: ⌈k/64⌉.
    kw: usize,
    mode: Gf2ViewMode,
    /// Per node, k row slots: the row with pivot `p` at `rows[u][p·wpr..]`
    /// (pivot-less slots are never read). Per-node blocks, not one n·k·wpr
    /// block: a single 1.5 MiB block, freed and re-requested per run, left
    /// `coded-binary`'s peak RSS bimodal (5.4 or 6.4 MiB); these hold 5.1–5.4.
    rows: Vec<Box<[u64]>>,
    /// Per node, `kw` words: bit `p` set iff a basis row pivots at `p`.
    piv: Vec<u64>,
    /// Per node: basis dimension (the bitmap's popcount).
    rank: Vec<u32>,
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
    /// [`CodingCell::seed_source`] before running.
    pub fn new(n: usize, k: usize, payload_bits: usize, mode: Gf2ViewMode) -> Self {
        let ambient = k + payload_bits;
        let wpr = limbs_for(ambient).max(1);
        let kw = limbs_for(k);
        let rows = Gf2Rows {
            k,
            ambient,
            wpr,
            kw,
            mode,
            rows: (0..n).map(|_| vec![0; k * wpr].into()).collect(),
            piv: vec![0; n * kw],
            rank: vec![0; n],
            scratch: vec![0; wpr],
        };
        CodingCell::over(n, k, rows)
    }
}

impl Gf2Rows {
    /// `node`'s pivot columns, ascending (basis order).
    fn pivots(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        let piv = &self.piv[node * self.kw..(node + 1) * self.kw];
        piv.iter().enumerate().flat_map(|(w, &m)| ones(m, w * 64))
    }

    /// Node `node`'s row at slot (= pivot column) `p`.
    fn row(&self, node: usize, p: usize) -> &[u64] {
        &self.rows[node][p * self.wpr..(p + 1) * self.wpr]
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
}

impl RowAlgebra for Gf2Rows {
    type Payload = Gf2Vec;

    #[inline]
    fn msg_words(&self) -> usize {
        self.wpr
    }

    #[inline]
    fn msg_bits(&self) -> u64 {
        self.ambient as u64
    }

    #[inline]
    fn rank(&self, node: usize) -> usize {
        self.rank[node] as usize
    }

    fn seed(&mut self, node: usize, index: usize, payload: &Gf2Vec) {
        assert_eq!(
            payload.len(),
            self.ambient - self.k,
            "payload width mismatch"
        );
        let mut v = Gf2Vec::unit(self.k, index).concat(payload).words().to_vec();
        v.resize(self.wpr, 0);
        self.insert(node, &mut v);
    }

    #[inline]
    fn compose(&mut self, node: usize, rng: &mut StdRng, msg: &mut [u64]) {
        let (kw, wpr) = (self.kw, self.wpr);
        let piv = &self.piv[node * kw..(node + 1) * kw];
        let rows = &self.rows[node];
        msg.fill(0);
        // Over a leading all-ones bitmap word, row p contributes exactly
        // bit p (it is zero at every other pivot), so the coin word is the
        // message word; rows add limbs [lo..) only.
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
    }

    #[inline]
    fn receive(&mut self, node: usize, _sender: usize, msg: &[u64]) {
        let mut v = std::mem::take(&mut self.scratch);
        v.copy_from_slice(msg);
        self.insert(node, &mut v);
        self.scratch = v;
    }

    /// `indexed-broadcast`'s view: the tokens with a unit coefficient
    /// prefix row.
    fn each_decodable(&self, node: usize, mut each: impl FnMut(usize)) -> bool {
        if self.mode == Gf2ViewMode::Broadcast {
            return false;
        }
        for p in self.pivots(node) {
            if limb_prefix_ones(self.row(node, p), self.k) == 1 {
                each(p);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codingcell::tests::{
        self as shared, assert_compose_matches_rows, combination, sources, SymbolRows,
    };
    use dyncode_gf::bits::limb_get;
    use dyncode_gf::{Field, Gf2, Gf2Basis};
    use rand::SeedableRng;

    impl SymbolRows for Gf2Rows {
        type F = Gf2;

        fn payload(symbols: &[Gf2]) -> Box<Gf2Vec> {
            let bits: Vec<bool> = symbols.iter().map(|s| !s.is_zero()).collect();
            Box::new(Gf2Vec::from_bools(&bits))
        }

        fn insert_symbols(&mut self, node: usize, v: &[Gf2]) -> bool {
            let mut limbs = Self::payload(v).words().to_vec();
            limbs.resize(self.wpr, 0);
            self.insert(node, &mut limbs)
        }

        fn row_symbols(&self, node: usize, r: usize) -> Vec<Gf2> {
            let p = self.pivots(node).nth(r).expect("row index below rank");
            self.message_symbols(self.row(node, p))
        }

        fn message_symbols(&self, msg: &[u64]) -> Vec<Gf2> {
            (0..self.ambient)
                .map(|i| Gf2::from_bool(limb_get(msg, i)))
                .collect()
        }
    }

    const VIEWS: [Gf2ViewMode; 2] = [Gf2ViewMode::Broadcast, Gf2ViewMode::Indexed];

    /// Inserts `v` into node 0 of `cell` and into `reference`: both must
    /// agree on innovation, rank, pivots and row content, and — every
    /// pivot being a coefficient column — the rank is the
    /// coefficient-projection rank.
    fn insert_both(cell: &mut Gf2Cell, reference: &mut Gf2Basis, v: Vec<Gf2>) {
        let rows = &mut cell.rows;
        assert_eq!(
            rows.insert_symbols(0, &v),
            reference.insert(*Gf2Rows::payload(&v))
        );
        assert_eq!(rows.rank(0), reference.dim());
        assert_eq!(rows.rank(0), reference.prefix_rank(rows.k));
        for (r, row) in reference.basis().iter().enumerate() {
            let row = rows.message_symbols(row.words());
            assert_eq!(rows.row_symbols(0, r), row, "row {r}");
        }
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
            let sources = sources::<Gf2>(k, d, &mut rng);
            let mut cell = Gf2Cell::new(1, k, d, Gf2ViewMode::Indexed);
            let mut reference = Gf2Basis::new(k + d);
            for _ in 0..k + 40 {
                let v = combination(&sources, 0..k, &mut rng);
                insert_both(&mut cell, &mut reference, v);
            }
            assert_eq!(cell.rank(0), k, "k = {k} saturates");
        }
    }

    /// A gapped bitmap — sources 0, 63, 64 and 100 withheld, so no
    /// bitmap word is all ones and every reduce, back-elimination and
    /// compose takes the general path across three coefficient limbs —
    /// then the gaps filled, re-enabling the leading-full-word shortcut.
    #[test]
    fn gapped_bitmap_inserts_mirror_gf2basis_and_refill() {
        let (k, d) = (130, 7);
        let gaps = [0, 63, 64, 100];
        let mut rng = StdRng::seed_from_u64(19);
        let sources = sources::<Gf2>(k, d, &mut rng);
        let mut cell = Gf2Cell::new(1, k, d, Gf2ViewMode::Indexed);
        let mut reference = Gf2Basis::new(k + d);
        for _ in 0..k + 20 {
            let held = (0..k).filter(|i| !gaps.contains(i));
            let v = combination(&sources, held, &mut rng);
            insert_both(&mut cell, &mut reference, v);
        }
        assert_eq!(cell.rank(0), k - gaps.len(), "gapped basis");
        for &g in &gaps {
            assert!(
                !limb_get(&cell.rows.piv[..cell.rows.kw], g),
                "gap {g} has no pivot"
            );
        }
        assert_compose_matches_rows(&mut cell, 3);
        for _ in 0..20 {
            let v = combination(&sources, 0..k, &mut rng);
            insert_both(&mut cell, &mut reference, v);
        }
        assert_eq!(cell.rank(0), k, "gaps filled, saturated");
    }

    #[test]
    fn saturated_compose_matches_general_combination() {
        for mode in VIEWS {
            shared::saturated_compose_matches_general_combination(|n, k, d| {
                Gf2Cell::new(n, k, d, mode)
            });
        }
    }

    #[test]
    fn advice_compose_mirrors_the_reference_emit_and_spares_the_shared_rng() {
        for mode in VIEWS {
            shared::advice_compose_mirrors_the_reference_emit_and_spares_the_shared_rng(
                |n, k, d| Gf2Cell::new(n, k, d, mode),
            );
        }
    }

    /// Broadcast-mode views are all-or-nothing; the indexed view reports
    /// a lone seeded source as decodable.
    #[test]
    fn seeded_sources_make_node_decodable() {
        for (mode, lone) in [
            (Gf2ViewMode::Broadcast, &[][..]),
            (Gf2ViewMode::Indexed, &[0]),
        ] {
            shared::seeded_sources_make_node_decodable(|n, k, d| Gf2Cell::new(n, k, d, mode), lone);
        }
    }

    #[test]
    fn zero_packet_is_never_innovative() {
        for mode in VIEWS {
            shared::zero_packet_is_never_innovative(|n, k, d| Gf2Cell::new(n, k, d, mode));
        }
    }
}
