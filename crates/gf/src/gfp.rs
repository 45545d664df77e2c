//! Prime fields GF(p) for odd primes, via a const-generic modulus.
//!
//! The derandomization results (Section 6) need field sizes far beyond
//! GF(2^8): Theorem 6.1 picks q = n^Ω(k) so that a union bound over all
//! compact adversarial "witnesses" goes through. No machine can represent
//! n^Ω(k)-sized fields, but the *operational* content — an omniscient
//! adversary cannot make random combinations collapse when 1/q is tiny — is
//! exercised faithfully by [`Mersenne61`] (q = 2^61 − 1), whose 2^-61
//! per-hop failure probability is far below anything an experiment at
//! simulatable scales can exploit. Small primes ([`Gf257`], [`Gf65537`])
//! cover the intermediate regime of the field-size experiments (E9/E11).

use crate::field::{combine_rows_by_axpy, trailing_offset, Field};
use rand::{Rng, RngExt};

/// An element of GF(P) for a prime `P < 2^63`. The value is kept reduced in
/// `0..P`.
///
/// `P` must be prime; [`GfP::order`] and inversion rely on Fermat's little
/// theorem. Debug builds assert primality once per process for small `P`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct GfP<const P: u64>(u64);

/// GF(257): the smallest prime field able to index a byte plus one.
pub type Gf257 = GfP<257>;
/// GF(65537): the Fermat-prime field F_4.
pub type Gf65537 = GfP<65537>;
/// GF(2^61 − 1): the Mersenne-prime field standing in for the paper's
/// "large q" derandomization regime.
pub type Mersenne61 = GfP<2_305_843_009_213_693_951>;

/// The Mersenne-61 modulus, named so `mul` can branch on it per-instance.
const MERSENNE61_P: u64 = 2_305_843_009_213_693_951;

/// Most terms [`Field::combine_rows`] may add to one GF(257) symbol before
/// it must reduce: the sums are kept in the `u64` representative itself, a
/// reduced start is ≤ 256 and every raw product is ≤ 256², so this many
/// terms cannot wrap the lane.
const GF257_DEFER_TERMS: usize = ((u64::MAX - 256) / (256 * 256)) as usize;

/// Most M61 terms between two Mersenne folds of a `u128` lane: a folded
/// lane is below 2^68 and every raw product below 2^122, so 32 of them
/// stay below 2^127 + 2^68 < 2^128 (a round count inside the limit, not
/// the tight one).
const M61_FOLD_TERMS: usize = 32;

/// Columns per pass of the M61 combine — the `u128` lanes live in a
/// fixed stack block of this many entries, whatever the row width.
const M61_BLOCK_COLS: usize = 128;

impl<const P: u64> GfP<P> {
    /// Builds an element from an already-reduced representative.
    ///
    /// # Panics
    /// Panics if `value >= P`.
    pub fn new(value: u64) -> Self {
        assert!(value < P, "representative {value} out of range for GF({P})");
        GfP(value)
    }

    /// The canonical representative.
    pub fn value(self) -> u64 {
        self.0
    }

    /// `d + c·s` reduced once, for reduced representatives — `mul` and
    /// the fused [`Field::axpy`]. Branching on the const modulus lets each
    /// instantiation keep only its own reduction path after constant
    /// folding. A generic `u128 %` compiles to a full 128-bit division on
    /// the row-operation hot path; both special moduli admit branch-free,
    /// division-free reductions.
    #[inline(always)]
    fn mul_add(d: u64, c: u64, s: u64) -> u64 {
        if P == MERSENNE61_P {
            // Mersenne reduction: 2^61 ≡ 1 (mod p). x < 2^122, so the first
            // fold leaves y < 2^62, the second at most p + 1, and `min`
            // against the wrapped `r − p` is the conditional subtract.
            let x = d as u128 + c as u128 * s as u128;
            let y = (x & MERSENNE61_P as u128) as u64 + (x >> 61) as u64;
            let r = (y & MERSENNE61_P) + (y >> 61);
            r.min(r.wrapping_sub(P))
        } else if P == 257 {
            // 2^8 ≡ −1 (mod 257): t ≤ 256 + 256² splits as hi·2^8 + lo ≡
            // lo − hi, lifted by 257 into r ∈ [0, 512]; (r + 255) >> 9 is
            // 1 exactly when r ≥ 257.
            let t = d + c * s;
            let r = (t & 0xff) + 257 - (t >> 8);
            r - 257 * ((r + 255) >> 9)
        } else {
            ((d as u128 + c as u128 * s as u128) % P as u128) as u64
        }
    }

    /// GF(257) [`Field::combine_rows`]: raw products summed in place in the
    /// `u64` representatives (unreduced only inside this call), one `%`
    /// per symbol per [`GF257_DEFER_TERMS`] terms.
    fn combine_rows_gf257(dst: &mut [Self], arena: &[Self], stride: usize, terms: &[(u32, Self)]) {
        let off = trailing_offset(dst, stride);
        for chunk in terms.chunks(GF257_DEFER_TERMS) {
            for &(slot, c) in chunk {
                let row = slot as usize * stride;
                for (d, s) in dst.iter_mut().zip(&arena[row + off..row + stride]) {
                    // Both factors are < 2^9; saying so lets the compiler
                    // use the 32×32→64 vector multiply.
                    d.0 += (c.0 as u32 as u64) * (s.0 as u32 as u64);
                }
            }
            for d in dst.iter_mut() {
                d.0 %= P;
            }
        }
    }

    /// M61 [`Field::combine_rows`]: `u128` products summed per column in a
    /// stack block, Mersenne-folded every [`M61_FOLD_TERMS`] terms and
    /// fully reduced once at the end.
    fn combine_rows_m61(dst: &mut [Self], arena: &[Self], stride: usize, terms: &[(u32, Self)]) {
        let off = trailing_offset(dst, stride);
        let fold = |x: u128| (x & MERSENNE61_P as u128) + (x >> 61);
        let mut lanes = [0u128; M61_BLOCK_COLS];
        for b0 in (0..dst.len()).step_by(M61_BLOCK_COLS) {
            let b1 = (b0 + M61_BLOCK_COLS).min(dst.len());
            let acc = &mut lanes[..b1 - b0];
            for (a, d) in acc.iter_mut().zip(&dst[b0..b1]) {
                *a = d.0 as u128;
            }
            for chunk in terms.chunks(M61_FOLD_TERMS) {
                for &(slot, c) in chunk {
                    let row = slot as usize * stride + off;
                    for (a, s) in acc.iter_mut().zip(&arena[row + b0..row + b1]) {
                        *a += c.0 as u128 * s.0 as u128;
                    }
                }
                for a in acc.iter_mut() {
                    *a = fold(*a);
                }
            }
            for (d, &a) in dst[b0..b1].iter_mut().zip(acc.iter()) {
                // Two more folds bring a < 2^68 lane to at most p.
                let r = fold(fold(a)) as u64;
                d.0 = if r >= P { r - P } else { r };
            }
        }
    }
}

impl<const P: u64> core::fmt::Debug for GfP<P> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl<const P: u64> Field for GfP<P> {
    const ZERO: Self = GfP(0);
    const ONE: Self = GfP(1);

    fn order() -> u128 {
        P as u128
    }

    fn add(self, rhs: Self) -> Self {
        let s = self.0 + rhs.0; // P < 2^63 so this cannot overflow u64
        GfP(if s >= P { s - P } else { s })
    }

    fn sub(self, rhs: Self) -> Self {
        GfP(if self.0 >= rhs.0 {
            self.0 - rhs.0
        } else {
            self.0 + P - rhs.0
        })
    }

    fn mul(self, rhs: Self) -> Self {
        GfP(Self::mul_add(0, self.0, rhs.0))
    }

    fn axpy(dst: &mut [Self], src: &[Self], c: Self) {
        // A rank-1 update pays one product per symbol, so there is nothing
        // to defer — but the add folds into the product's one reduction.
        assert_eq!(dst.len(), src.len(), "axpy length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            d.0 = Self::mul_add(d.0, c.0, s.0);
        }
    }

    fn combine_rows(dst: &mut [Self], arena: &[Self], stride: usize, terms: &[(u32, Self)]) {
        // Same const-modulus branch as `mul_add`: both special moduli leave
        // room above a raw product to add many of them before reducing, so
        // a symbol pays one reduction per call (M61: per 32 terms) instead
        // of one per multiply.
        if P == MERSENNE61_P {
            Self::combine_rows_m61(dst, arena, stride, terms);
        } else if P == 257 {
            Self::combine_rows_gf257(dst, arena, stride, terms);
        } else {
            combine_rows_by_axpy(dst, arena, stride, terms);
        }
    }

    fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            None
        } else {
            Some(self.pow(P - 2))
        }
    }

    fn from_u64(x: u64) -> Self {
        // Already-reduced values (the common case: unpacking symbols that
        // were packed from canonical representatives) skip the division.
        GfP(if x < P { x } else { x % P })
    }

    fn to_u64(self) -> u64 {
        self.0
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        GfP(rng.random_range(0..P))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn small_prime_arithmetic_exhaustive() {
        type F5 = GfP<5>;
        for a in 0..5u64 {
            for b in 0..5u64 {
                assert_eq!(F5::from_u64(a).add(F5::from_u64(b)).value(), (a + b) % 5);
                assert_eq!(F5::from_u64(a).mul(F5::from_u64(b)).value(), (a * b) % 5);
                assert_eq!(
                    F5::from_u64(a).sub(F5::from_u64(b)).value(),
                    (a + 5 - b) % 5
                );
            }
        }
    }

    #[test]
    fn mersenne61_inverse_round_trips() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..100 {
            let a = Mersenne61::random_nonzero(&mut rng);
            assert_eq!(a.mul(a.inv().unwrap()), Mersenne61::ONE);
        }
    }

    #[test]
    fn mersenne61_no_overflow_near_modulus() {
        let p = 2_305_843_009_213_693_951u64;
        let a = Mersenne61::new(p - 1);
        assert_eq!(a.add(a).value(), p - 2);
        // (p-1)^2 mod p = 1
        assert_eq!(a.mul(a), Mersenne61::ONE);
        assert_eq!(a.sub(Mersenne61::new(0)), a);
        assert_eq!(Mersenne61::new(0).sub(a).value(), 1);
    }

    /// The fused single-reduction `axpy` against `d.add(c.mul(s))` over a
    /// whole `src` row.
    fn assert_fused_axpy<const P: u64>(d: u64, c: u64, src: &[GfP<P>]) {
        let (d, c) = (GfP::<P>::new(d), GfP::<P>::new(c));
        let mut dst = vec![d; src.len()];
        GfP::<P>::axpy(&mut dst, src, c);
        for (got, &s) in dst.iter().zip(src) {
            assert_eq!(*got, d.add(c.mul(s)), "{d:?} + {c:?}·{s:?}");
        }
    }

    #[test]
    fn gf257_fast_reduction_matches_generic_modulo_exhaustively() {
        // The byte-split path is locked against the old `%` implementation
        // over the entire 257 × 257 multiplication table, and the fused
        // `axpy` over every (c, s) from the extreme starting values.
        let src: Vec<Gf257> = (0..257).map(Gf257::new).collect();
        for a in 0..257u64 {
            for b in 0..257u64 {
                assert_eq!(
                    Gf257::new(a).mul(Gf257::new(b)).value(),
                    (a * b) % 257,
                    "{a} * {b} mod 257"
                );
            }
            for d in [0, 1, 255, 256] {
                assert_fused_axpy(d, a, &src);
            }
        }
    }

    /// Boundary M61 representatives where the shift-add folds are tightest.
    const M61_EDGES: [u64; 8] = {
        let p = MERSENNE61_P;
        [0, 1, 2, (1 << 31) - 1, 1 << 31, p / 2, p - 2, p - 1]
    };

    #[test]
    fn mersenne61_fast_reduction_matches_generic_modulo_at_edges() {
        let p = MERSENNE61_P;
        let src = M61_EDGES.map(Mersenne61::new);
        for a in M61_EDGES {
            for b in M61_EDGES {
                assert_eq!(
                    Mersenne61::new(a).mul(Mersenne61::new(b)).value(),
                    ((a as u128 * b as u128) % p as u128) as u64,
                    "{a} * {b} mod 2^61-1"
                );
                // The fused `axpy` with the edges in all three positions.
                assert_fused_axpy(a, b, &src);
            }
        }
    }

    proptest::proptest! {
        /// Randomized lock of the Mersenne shift-add reductions (`mul` and
        /// the fused `axpy`) against the old generic `u128 %` implementation.
        #[test]
        fn mersenne61_fast_reduction_matches_generic_modulo(
            a in 0u64..MERSENNE61_P,
            b in 0u64..MERSENNE61_P,
            d in 0u64..MERSENNE61_P,
        ) {
            let p = MERSENNE61_P;
            proptest::prop_assert_eq!(
                Mersenne61::new(a).mul(Mersenne61::new(b)).value(),
                ((a as u128 * b as u128) % p as u128) as u64
            );
            assert_fused_axpy(d, a, &[Mersenne61::new(b)]);
        }
    }

    /// `combine_rows` against its defining `axpy` fold on the trailing
    /// `width` columns of three rows, every entry `p − 1 − (i mod 3)`:
    /// `count` terms cycle over the rows, every `zero_every`-th coefficient
    /// is zero and the rest are p − 1 — the largest sums the lanes see.
    fn assert_combine_is_axpy_fold<const P: u64>(
        stride: usize,
        width: usize,
        count: usize,
        zero_every: usize,
    ) {
        let arena: Vec<_> = (0..3 * stride).map(|i| GfP(P - 1 - i as u64 % 3)).collect();
        let zero = |t: usize| t % zero_every == zero_every - 1;
        let terms: Vec<_> = (0..count)
            .map(|t| ((t % 3) as u32, GfP(if zero(t) { 0 } else { P - 1 })))
            .collect();
        let mut got = arena[..width].to_vec();
        let mut want = got.clone();
        GfP::<P>::combine_rows(&mut got, &arena, stride, &terms);
        combine_rows_by_axpy(&mut want, &arena, stride, &terms);
        assert_eq!(got, want, "{count} terms over GF({P}), width {width}");
    }

    #[test]
    fn m61_combine_rows_is_exact_across_every_fold_boundary() {
        // Narrow, exactly one block, and wider than the lane block; the
        // trailing widths reach both sides of the accumulator block edge.
        for stride in [7, M61_BLOCK_COLS, M61_BLOCK_COLS + 37] {
            let widths = [
                0,
                1,
                M61_BLOCK_COLS - 1,
                M61_BLOCK_COLS,
                M61_BLOCK_COLS + 1,
                stride,
            ];
            for width in widths.into_iter().filter(|&w| w <= stride) {
                for count in [0, 1, 31, 32, 33, 64, 65, 1000] {
                    assert_combine_is_axpy_fold::<MERSENNE61_P>(stride, width, count, usize::MAX);
                    assert_combine_is_axpy_fold::<MERSENNE61_P>(stride, width, count, 3);
                }
            }
        }
    }

    #[test]
    fn gf257_combine_rows_is_exact_past_two_to_the_sixteen_terms() {
        // One past what a 32-bit lane of 2^16-sized products could hold.
        for count in [0, 1, 257, (1 << 16) + 1] {
            for width in [1, 5, 19] {
                assert_combine_is_axpy_fold::<257>(width + 2, width, count, usize::MAX);
                assert_combine_is_axpy_fold::<257>(width + 2, width, count, 5);
            }
        }
    }

    #[test]
    fn deferred_reduction_bounds_are_what_the_lanes_can_hold() {
        // GF(257): a reduced start plus DEFER raw products fits a u64 lane,
        // one more product does not.
        let worst = 256u128 + GF257_DEFER_TERMS as u128 * (256 * 256);
        assert!(worst <= u64::MAX as u128);
        assert!(worst + 256 * 256 > u64::MAX as u128);
        // M61: a folded lane plus FOLD raw products fits a u128 lane.
        let folded = (1u128 << 61) + (u128::MAX >> 61);
        let product = (MERSENNE61_P as u128 - 1) * (MERSENNE61_P as u128 - 1);
        assert!(product
            .checked_mul(M61_FOLD_TERMS as u128)
            .and_then(|sum| sum.checked_add(folded))
            .is_some());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn m61_combine_rows_rejects_a_slot_outside_the_arena() {
        let arena = vec![Mersenne61::ONE; 2 * 4];
        let mut dst = vec![Mersenne61::ZERO; 1];
        Mersenne61::combine_rows(&mut dst, &arena, 4, &[(2, Mersenne61::ONE)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_out_of_range() {
        let _ = Gf257::new(257);
    }

    #[test]
    fn random_is_in_range_and_varied() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let x = Gf257::random(&mut rng);
            assert!(x.value() < 257);
            seen.insert(x.value());
        }
        assert!(seen.len() > 100, "random sampling looks degenerate");
    }
}
