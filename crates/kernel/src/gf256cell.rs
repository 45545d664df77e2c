//! The bit-planar GF(2^8) row algebra — the fast backend for
//! `field-broadcast(gf256[,det=S])`.
//!
//! [`DenseRows`](crate::densecell::DenseRows) keeps one byte per symbol
//! and routes row operations through the log/antilog product table; at
//! the kernel's row lengths that is one L1 table load per byte, and the
//! reference backend's per-entry `mul` loop is only ~30% slower — not
//! enough of a gap to pay for a second backend. These rows are stored
//! *bit-planar* instead: plane `j` holds bit `j` of every symbol,
//! packed 64 symbols per `u64` word, so a row of `ambient` symbols is
//! 8 × ⌈ambient/64⌉ words. Multiplication by a constant `c` is a GF(2)-
//! linear map on the 8 planes — `y_j = Σ_i M_c[i,j]·x_i` where column
//! `i` of `M_c` is the byte `c·x^i` — so a whole-row axpy is at most 64
//! (on average ~32) word-wide XORs per 64 symbols: register arithmetic
//! instead of table lookups, with no per-symbol branches.
//!
//! **Contiguous-pivot shortcut.** A random in-span packet reduces to a
//! leading index at the first uncovered column w.p. 1 − 1/q, so a node's
//! pivots are almost always exactly `0..rank`. RREF then pins row `j`'s
//! support to `{j} ∪ [rank..ambient)` — the interior columns are all
//! other rows' pivots — with two payoffs: the elimination coefficients
//! are all readable up front (word-wide, via an 8×8 bit-block
//! transpose), and at high rank the whole reduce *bit-slices*:
//! `c·row = Σ_b bit_b(c)·(x^b·row)`, so rows fold into eight XOR
//! accumulators (straight-line word XORs, no per-row plane-mask decode)
//! and the monomial multiplications happen once. Back-elimination
//! bit-slices the other way — the eight products `x^b·v` are formed once
//! and rows XOR in the ones their coefficient selects. Compose at
//! contiguous rank writes the drawn coefficients directly and pays row
//! arithmetic only on the tail words `[rank/64..w)`; at rank k this is
//! the classic saturated `(I | P)` compose, O(k + k·payload) instead of
//! O(k·ambient).
//!
//! Each node keeps its rows in insertion slots behind a pivot-sorted
//! `order`/`pivots` indirection; messages stay bit-planar in the arena
//! (the bit accounting is ⌈lg q⌉ · ambient either way). GF(2^8) addition
//! is XOR on every plane, so each planar op equals the symbol-wise op of
//! `Subspace::insert` exactly.

use crate::codingcell::{CodingCell, RowAlgebra};
use dyncode_gf::{Field, Gf256};
use rand::rngs::StdRng;

/// `dst ^= c · src` on bit-planar rows of `w` words per plane, restricted
/// to words `[lo..w)` of every plane (callers pass the pivot word of a
/// leading-zero row, or `0` for the whole row).
///
/// Walks destination planes outermost and folds the contributing source
/// planes four at a time, so each destination word is loaded and stored
/// ⌈popcount/4⌉ times (~1 on average) instead of once per contributing
/// plane. The plane-feed masks come from GF(2^8)'s precomputed
/// [`Gf256::plane_masks`] table.
#[inline]
fn plane_axpy(dst: &mut [u64], src: &[u64], c: u8, w: usize, lo: usize) {
    if c == 0 {
        return;
    }
    let masks = Gf256(c).plane_masks();
    for (j, dplane) in dst.chunks_exact_mut(w).enumerate() {
        let mut mask = masks[j] as u32;
        let d = &mut dplane[lo..];
        while mask != 0 {
            let i1 = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let s1 = &src[i1 * w + lo..(i1 + 1) * w];
            if mask == 0 {
                for (dt, a) in d.iter_mut().zip(s1) {
                    *dt ^= *a;
                }
                break;
            }
            let i2 = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let s2 = &src[i2 * w + lo..(i2 + 1) * w];
            if mask == 0 {
                for ((dt, a), b) in d.iter_mut().zip(s1).zip(s2) {
                    *dt ^= *a ^ *b;
                }
                break;
            }
            let i3 = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let s3 = &src[i3 * w + lo..(i3 + 1) * w];
            if mask == 0 {
                for (((dt, a), b), e) in d.iter_mut().zip(s1).zip(s2).zip(s3) {
                    *dt ^= *a ^ *b ^ *e;
                }
                break;
            }
            let i4 = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let s4 = &src[i4 * w + lo..(i4 + 1) * w];
            for ((((dt, a), b), e), f) in d.iter_mut().zip(s1).zip(s2).zip(s3).zip(s4) {
                *dt ^= *a ^ *b ^ *e ^ *f;
            }
        }
    }
}

/// The symbol at index `idx`, gathered across the 8 planes.
#[inline]
fn get_sym(planes: &[u64], w: usize, idx: usize) -> u8 {
    let (word, bit) = (idx / 64, idx % 64);
    let mut b = 0u8;
    for j in 0..8 {
        b |= (((planes[j * w + word] >> bit) & 1) as u8) << j;
    }
    b
}

/// Transposes a `u64` viewed as an 8×8 bit matrix (byte `r` is row `r`,
/// so bit `8r + c` maps to bit `8c + r`) — the classic three-step
/// delta-swap transpose.
#[inline]
fn transpose8x8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00aa_00aa_00aa_00aa;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_cccc_0000_cccc;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_f0f0_f0f0;
    x ^= t ^ (t << 28);
    x
}

/// Gathers symbols `[0..count)` of a planar row into `out` bytes, whole
/// words at a time: each group of 8 symbols is one 8×8 bit-block
/// transpose (byte lane `l` of the 8 plane words), ~5× cheaper than 8
/// masked plane reads per symbol via [`get_sym`]. `out` must hold
/// `count` rounded up to a multiple of 64 bytes.
#[inline]
fn gather_syms(planes: &[u64], w: usize, count: usize, out: &mut [u8]) {
    for t in 0..count.div_ceil(64) {
        let mut lanes = [0u64; 8];
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = planes[j * w + t];
        }
        for l in 0..8 {
            let mut x = 0u64;
            for (j, &lane) in lanes.iter().enumerate() {
                x |= ((lane >> (8 * l)) & 0xff) << (8 * j);
            }
            let y = transpose8x8(x);
            out[t * 64 + l * 8..t * 64 + l * 8 + 8].copy_from_slice(&y.to_le_bytes());
        }
    }
}

/// Sets the symbol at `idx` to `c`; the position must currently be zero.
#[inline]
fn set_sym(planes: &mut [u64], w: usize, idx: usize, c: u8) {
    let (word, bit) = (idx / 64, idx % 64);
    for j in 0..8 {
        planes[j * w + word] |= (((c >> j) & 1) as u64) << bit;
    }
}

/// The index of the first nonzero symbol: the planar analogue of
/// `vector::leading_index`. Symbols live at ascending bit positions in
/// chunked-LE order, so the first set bit of the OR of all planes is the
/// leading symbol.
#[inline]
fn leading(planes: &[u64], w: usize) -> Option<usize> {
    for t in 0..w {
        let mut or = 0u64;
        for j in 0..8 {
            or |= planes[j * w + t];
        }
        if or != 0 {
            return Some(t * 64 + or.trailing_zeros() as usize);
        }
    }
    None
}

/// One node's basis: a slot-major planar row arena plus the pivot-sorted
/// indirection.
#[derive(Clone, Debug)]
struct NodeBasis {
    /// Row slot `s` lives at `rows[s·rw .. (s+1)·rw]` (`rw = 8w` words).
    rows: Vec<u64>,
    /// Basis position (pivot-ascending) → row slot.
    order: Vec<u32>,
    /// Basis position → pivot column, strictly increasing.
    pivots: Vec<u32>,
}

/// The bit-planar GF(2^8) coding cell.
pub type Gf256Cell = CodingCell<Gf256Rows>;

/// Every node's bit-planar GF(2^8) basis.
pub struct Gf256Rows {
    k: usize,
    /// Row width in symbols: k coefficients + payload symbols.
    ambient: usize,
    /// Words per bit-plane: ⌈ambient/64⌉.
    w: usize,
    /// Words per row: 8 planes.
    rw: usize,
    nodes: Vec<NodeBasis>,
    /// Delivery buffer, one planar row.
    scratch: Vec<u64>,
    /// Normalization buffer, one planar row.
    scratch2: Vec<u64>,
    /// Coefficient gather buffer for the contiguous reduce: one byte
    /// per ambient column, rounded up to whole 64-symbol words.
    cscratch: Vec<u8>,
    /// Eight planar rows of bit-sliced accumulators for the
    /// high-rank reduce and back-elimination.
    bacc: Vec<u64>,
}

/// Ranks below this use the per-row axpy paths; from here up the
/// bit-sliced accumulation wins (its fixed cost — zeroing the
/// accumulators and eight monomial axpys — amortizes over the rows).
const BITSLICE_MIN_RANK: usize = 32;

impl Gf256Cell {
    /// A fresh cell: n nodes, k coded indices, `payload_len`-symbol
    /// payloads. Seed the sources with [`CodingCell::seed_source`] before
    /// running.
    pub fn new(n: usize, k: usize, payload_len: usize) -> Self {
        let ambient = k + payload_len;
        let w = ambient.div_ceil(64);
        let rw = 8 * w;
        let node = NodeBasis {
            rows: Vec::new(),
            order: Vec::new(),
            pivots: Vec::new(),
        };
        let rows = Gf256Rows {
            k,
            ambient,
            w,
            rw,
            nodes: vec![node; n],
            scratch: vec![0; rw],
            scratch2: vec![0; rw],
            cscratch: vec![0; w * 64],
            bacc: vec![0; 8 * rw],
        };
        CodingCell::over(n, k, rows)
    }
}

impl Gf256Rows {
    /// Inserts `v` (a planar `ambient`-symbol packet) into `node`'s basis;
    /// returns `true` iff innovative. `v` is clobbered (it becomes the
    /// normalized new row). Identical math to `Subspace::insert` — in
    /// characteristic 2 the reduce/back-eliminate coefficient `-c` is `c`.
    fn insert(&mut self, node: usize, v: &mut [u64]) -> bool {
        let (k, w, rw) = (self.k, self.w, self.rw);
        let mut tmp = std::mem::take(&mut self.scratch2);
        let mut coeffs = std::mem::take(&mut self.cscratch);
        let mut acc = std::mem::take(&mut self.bacc);
        let st = &mut self.nodes[node];
        // Reduce against the basis in pivot order. Every stored row is
        // zero before its pivot column (the pivot is its leading index,
        // an invariant back-elimination preserves: a new pivot only ever
        // rewrites columns at or after itself in rows with smaller
        // pivots), so each axpy starts at the pivot's word — the
        // reference `Subspace` pays full-length row ops instead.
        let nrank = st.order.len();
        if nrank > 0 && st.pivots[nrank - 1] as usize == nrank - 1 {
            // Contiguous pivots 0..nrank — the overwhelmingly common
            // state, since a random in-span packet reduces to a leading
            // index at the first uncovered column w.p. 1 − 1/q. RREF
            // then pins each row's support to {own pivot} ∪ [nrank..):
            // every column < nrank is some row's pivot, and rows are
            // zero at every other row's pivot. Two consequences, both
            // bit-exact:
            //  * elimination coefficients never change mid-reduce
            //    (row j is zero at pivot i ≠ j), so they can all be
            //    gathered up front — word-wide via [`gather_syms`]
            //    instead of one masked plane read per symbol;
            //  * with the coefficients in hand the whole reduce is one
            //    XOR sum, `v ^= Σ_r c_r·row_r`, which bit-slicing
            //    regroups exactly: `c·row = Σ_b bit_b(c)·(x^b·row)`,
            //    so each row is XOR-folded into the accumulators of
            //    its coefficient's set bits — straight-line word XORs,
            //    no per-row plane-mask decode — and the eight monomial
            //    multiplications happen once at the end. XOR sums
            //    reassociate freely, so the result is bit-identical to
            //    the sequential reduce.
            gather_syms(v, w, nrank, &mut coeffs);
            if nrank >= BITSLICE_MIN_RANK {
                acc.fill(0);
                for (r, &c) in coeffs.iter().enumerate().take(nrank) {
                    if c != 0 {
                        let slot = st.order[r] as usize;
                        let row = &st.rows[slot * rw..(slot + 1) * rw];
                        let mut cb = c as u32;
                        while cb != 0 {
                            let b = cb.trailing_zeros() as usize;
                            cb &= cb - 1;
                            for (x, y) in acc[b * rw..(b + 1) * rw].iter_mut().zip(row) {
                                *x ^= *y;
                            }
                        }
                    }
                }
                for b in 0..8 {
                    plane_axpy(v, &acc[b * rw..(b + 1) * rw], 1 << b, w, 0);
                }
            } else {
                // Below the bit-slice break-even: per-row tail axpys
                // from lo = nrank/64 (columns < lo·64 are all pivots
                // and eliminate exactly to zero, so the prefix words
                // are zeroed wholesale).
                let lo = nrank / 64;
                for (r, &c) in coeffs.iter().enumerate().take(nrank) {
                    if c != 0 {
                        let slot = st.order[r] as usize;
                        plane_axpy(v, &st.rows[slot * rw..(slot + 1) * rw], c, w, lo);
                    }
                }
                for plane in 0..8 {
                    v[plane * w..plane * w + lo].fill(0);
                }
            }
        } else {
            for r in 0..nrank {
                let p = st.pivots[r] as usize;
                let c = get_sym(v, w, p);
                if c != 0 {
                    let slot = st.order[r] as usize;
                    plane_axpy(v, &st.rows[slot * rw..(slot + 1) * rw], c, w, p / 64);
                }
            }
        }
        let Some(p) = leading(v, w) else {
            self.scratch2 = tmp;
            self.cscratch = coeffs;
            self.bacc = acc;
            return false;
        };
        // Normalize the new pivot to 1: scale is axpy into a zero row
        // (`v` is zero before `p`, so the product is too).
        let inv = Gf256(get_sym(v, w, p))
            .inv()
            .expect("leading entry nonzero");
        tmp.fill(0);
        plane_axpy(&mut tmp, v, inv.0, w, p / 64);
        v.copy_from_slice(&tmp);
        // Back-eliminate the new pivot column from existing rows; `v` is
        // zero before `p`, so only words from `p` on can change. At high
        // rank this is bit-sliced the other way around: the eight
        // monomial products x^b·v are formed once, and each row XORs in
        // the products its coefficient's bits select — c·v is their
        // exact XOR sum.
        if st.order.len() >= BITSLICE_MIN_RANK {
            acc.fill(0);
            for b in 0..8 {
                plane_axpy(&mut acc[b * rw..(b + 1) * rw], v, 1 << b, w, p / 64);
            }
            for r in 0..st.order.len() {
                let slot = st.order[r] as usize;
                let row = &mut st.rows[slot * rw..(slot + 1) * rw];
                let mut cb = get_sym(row, w, p) as u32;
                while cb != 0 {
                    let b = cb.trailing_zeros() as usize;
                    cb &= cb - 1;
                    for (x, y) in row.iter_mut().zip(&acc[b * rw..(b + 1) * rw]) {
                        *x ^= *y;
                    }
                }
            }
        } else {
            for r in 0..st.order.len() {
                let slot = st.order[r] as usize;
                let row = &mut st.rows[slot * rw..(slot + 1) * rw];
                let c = get_sym(row, w, p);
                if c != 0 {
                    plane_axpy(row, v, c, w, p / 64);
                }
            }
        }
        // Insert keeping pivots sorted; the row data takes the next slot.
        assert!(
            p < k,
            "pivot beyond the coefficients: packets must lie in the source span"
        );
        let nrank = st.order.len();
        let idx = st.pivots.partition_point(|&q| (q as usize) < p);
        st.order.insert(idx, nrank as u32);
        st.pivots.insert(idx, p as u32);
        st.rows.extend_from_slice(v);
        self.scratch2 = tmp;
        self.cscratch = coeffs;
        self.bacc = acc;
        true
    }
}

impl RowAlgebra for Gf256Rows {
    type Payload = [Gf256];

    #[inline]
    fn msg_words(&self) -> usize {
        self.rw
    }

    #[inline]
    fn msg_bits(&self) -> u64 {
        self.ambient as u64 * Gf256::bits_per_symbol() as u64
    }

    #[inline]
    fn rank(&self, node: usize) -> usize {
        self.nodes[node].order.len()
    }

    fn seed(&mut self, node: usize, index: usize, payload: &[Gf256]) {
        assert_eq!(
            payload.len(),
            self.ambient - self.k,
            "payload width mismatch"
        );
        let mut v = std::mem::take(&mut self.scratch);
        v.fill(0);
        set_sym(&mut v, self.w, index, 1);
        for (i, s) in payload.iter().enumerate() {
            set_sym(&mut v, self.w, self.k + i, s.0);
        }
        self.insert(node, &mut v);
        self.scratch = v;
    }

    #[inline]
    fn compose(&mut self, node: usize, rng: &mut StdRng, msg: &mut [u64]) {
        let (w, rw) = (self.w, self.rw);
        let st = &self.nodes[node];
        let nrank = st.order.len();
        msg.fill(0);
        if st.pivots[nrank - 1] as usize == nrank - 1 {
            // Contiguous-pivot shortcut (saturation is the nrank = k
            // case). With pivots exactly 0..nrank, RREF pins row j's
            // support to {j} ∪ [nrank..): the drawn coefficients ARE
            // the combination's first nrank symbols, and only the
            // tail words [lo·64..) need row arithmetic. A row whose
            // pivot bit sits inside the tail word range contributes
            // it through its axpy; pivots below lo·64 are set
            // directly — each column < nrank is touched by exactly
            // one row, so the disjoint writes compose exactly.
            let lo = nrank / 64;
            for j in 0..nrank {
                // Same draw sequence as the general path.
                let c = Gf256::random(rng);
                if c.0 != 0 {
                    if j < lo * 64 {
                        set_sym(msg, w, j, c.0);
                    }
                    let slot = st.order[j] as usize;
                    plane_axpy(msg, &st.rows[slot * rw..(slot + 1) * rw], c.0, w, lo);
                }
            }
        } else {
            for r in 0..nrank {
                // One coefficient per basis row in pivot order — the
                // draw sequence of `random_combination`; the axpy
                // skips zero coefficients, as `scale_add` does, and
                // starts at the row's pivot word (rows are zero
                // before their pivot).
                let c = Gf256::random(rng);
                if c.0 != 0 {
                    let slot = st.order[r] as usize;
                    let p = st.pivots[r] as usize;
                    plane_axpy(msg, &st.rows[slot * rw..(slot + 1) * rw], c.0, w, p / 64);
                }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codingcell::tests::{
        self as shared, assert_compose_matches_rows, combination, insert_both, sources, SymbolRows,
    };
    use dyncode_gf::{vector, Subspace};
    use rand::{rngs::StdRng, SeedableRng};

    impl SymbolRows for Gf256Rows {
        type F = Gf256;

        fn payload(symbols: &[Gf256]) -> Box<[Gf256]> {
            symbols.into()
        }

        fn insert_symbols(&mut self, node: usize, v: &[Gf256]) -> bool {
            let mut planar = vec![0u64; self.rw];
            for (i, s) in v.iter().enumerate() {
                set_sym(&mut planar, self.w, i, s.0);
            }
            self.insert(node, &mut planar)
        }

        fn row_symbols(&self, node: usize, r: usize) -> Vec<Gf256> {
            let st = &self.nodes[node];
            let slot = st.order[r] as usize;
            self.message_symbols(&st.rows[slot * self.rw..(slot + 1) * self.rw])
        }

        fn message_symbols(&self, msg: &[u64]) -> Vec<Gf256> {
            (0..self.ambient)
                .map(|i| Gf256(get_sym(msg, self.w, i)))
                .collect()
        }
    }

    #[test]
    fn planar_axpy_matches_symbolwise_axpy() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..50 {
            use rand::RngExt;
            let len = rng.random_range(1..200usize);
            let w = len.div_ceil(64);
            let src: Vec<Gf256> = (0..len).map(|_| Gf256::random(&mut rng)).collect();
            let mut dst: Vec<Gf256> = (0..len).map(|_| Gf256::random(&mut rng)).collect();
            let c = Gf256::random(&mut rng);
            let mut psrc = vec![0u64; 8 * w];
            let mut pdst = vec![0u64; 8 * w];
            for (i, s) in src.iter().enumerate() {
                set_sym(&mut psrc, w, i, s.0);
            }
            for (i, d) in dst.iter().enumerate() {
                set_sym(&mut pdst, w, i, d.0);
            }
            plane_axpy(&mut pdst, &psrc, c.0, w, 0);
            Gf256::axpy(&mut dst, &src, c);
            for (i, d) in dst.iter().enumerate() {
                assert_eq!(get_sym(&pdst, w, i), d.0, "symbol {i}, c={c:?}");
            }
        }
    }

    #[test]
    fn gather_syms_matches_per_symbol_reads() {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(43);
        for &(w, count) in &[(1usize, 1usize), (1, 64), (2, 65), (3, 100), (9, 517)] {
            let planes: Vec<u64> = (0..8 * w).map(|_| rng.random()).collect();
            let mut out = vec![0u8; count.div_ceil(64) * 64];
            gather_syms(&planes, w, count, &mut out);
            for (i, &b) in out.iter().enumerate().take(count) {
                assert_eq!(b, get_sym(&planes, w, i), "w={w} count={count} sym {i}");
            }
        }
    }

    #[test]
    fn planar_leading_matches_vector_leading_index() {
        let w = 3;
        let mut planes = vec![0u64; 8 * w];
        assert_eq!(leading(&planes, w), None);
        set_sym(&mut planes, w, 149, 0x40);
        assert_eq!(leading(&planes, w), Some(149));
        set_sym(&mut planes, w, 67, 0x01);
        assert_eq!(leading(&planes, w), Some(67));
        let symbols: Vec<Gf256> = (0..3 * 64).map(|i| Gf256(get_sym(&planes, w, i))).collect();
        assert_eq!(vector::leading_index(&symbols), Some(67));
    }

    /// Below and above the bit-slice break-even rank, and past one plane
    /// word.
    #[test]
    fn insert_mirrors_subspace() {
        for k in [5, 40, 130] {
            shared::insert_mirrors_subspace(Gf256Cell::new, 11, k);
        }
    }

    /// Contiguous pivots past the 64-symbol word boundary: combinations
    /// of sources 0..k−1 drive the contig reduce (lo = 1 once rank ≥ 64)
    /// and the partial contiguous-pivot compose shortcut at rank k−1;
    /// both must mirror the reference exactly.
    #[test]
    fn contiguous_pivots_across_word_boundary_mirror_subspace() {
        let (k, d) = (80, 5);
        let mut rng = StdRng::seed_from_u64(29);
        let sources = sources::<Gf256>(k, d, &mut rng);
        let mut cell = Gf256Cell::new(1, k, d);
        let mut reference = Subspace::new(k + d);
        // Combinations that exclude the last source: pivots fill 0..k−1
        // contiguously, never saturating, and rank crosses 64.
        for _ in 0..90 {
            let v = combination(&sources, 0..k - 1, &mut rng);
            insert_both(&mut cell, &mut reference, v);
        }
        assert_eq!(cell.rank(0), k - 1, "contiguous partial rank");
        assert_compose_matches_rows(&mut cell, 31);
    }

    /// A pivot gap (no source 0 yet) forces the non-contiguous fallback
    /// at every rank — including past the word boundary — and filling
    /// the gap later re-enables the contiguous path; the basis must
    /// mirror the reference throughout.
    #[test]
    fn pivot_gap_falls_back_and_refills_mirroring_subspace() {
        let (k, d) = (80, 5);
        let mut rng = StdRng::seed_from_u64(37);
        let sources = sources::<Gf256>(k, d, &mut rng);
        let mut cell = Gf256Cell::new(1, k, d);
        let mut reference = Subspace::new(k + d);
        // Phase 1: combinations that skip source 0 — pivots 1..k, a gap
        // at column 0, so every reduce takes the general path.
        for _ in 0..90 {
            let v = combination(&sources, 1..k, &mut rng);
            insert_both(&mut cell, &mut reference, v);
        }
        assert_eq!(cell.rank(0), k - 1, "gapped basis at rank k-1");
        // Phase 2: combinations including source 0 fill the gap (pivot 0)
        // and saturate; inserts after saturation reduce to zero.
        for _ in 0..4 {
            let v = combination(&sources, 0..k, &mut rng);
            insert_both(&mut cell, &mut reference, v);
        }
        assert_eq!(cell.rank(0), k, "gap filled, saturated");
    }

    #[test]
    fn saturated_compose_matches_general_combination() {
        shared::saturated_compose_matches_general_combination(Gf256Cell::new);
    }

    #[test]
    fn advice_compose_mirrors_the_reference_emit_and_spares_the_shared_rng() {
        shared::advice_compose_mirrors_the_reference_emit_and_spares_the_shared_rng(Gf256Cell::new);
    }

    #[test]
    fn seeded_sources_make_node_decodable() {
        shared::seeded_sources_make_node_decodable(Gf256Cell::new, &[]);
    }

    #[test]
    fn zero_packet_is_never_innovative() {
        shared::zero_packet_is_never_innovative(Gf256Cell::new);
    }
}
