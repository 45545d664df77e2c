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

use crate::field::{combine_rows_by_axpy, Field};
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

    /// GF(257) [`Field::combine_rows`]: raw products summed in place in the
    /// `u64` representatives (unreduced only inside this call), one `%`
    /// per symbol per [`GF257_DEFER_TERMS`] terms.
    fn combine_rows_gf257(
        dst: &mut [Self],
        arena: &[Self],
        stride: usize,
        terms: &[(u32, u32, Self)],
    ) {
        assert_eq!(dst.len(), stride, "combine_rows width mismatch");
        for chunk in terms.chunks(GF257_DEFER_TERMS) {
            for &(slot, start, c) in chunk {
                let (slot, start) = (slot as usize, start as usize);
                let row = &arena[slot * stride + start..(slot + 1) * stride];
                for (d, s) in dst[start..].iter_mut().zip(row) {
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
    fn combine_rows_m61(
        dst: &mut [Self],
        arena: &[Self],
        stride: usize,
        terms: &[(u32, u32, Self)],
    ) {
        assert_eq!(dst.len(), stride, "combine_rows width mismatch");
        for &(slot, start, _) in terms {
            assert!(
                start as usize <= stride && (slot as usize + 1) * stride <= arena.len(),
                "combine_rows term ({slot}, {start}) out of range"
            );
        }
        let fold = |x: u128| (x & MERSENNE61_P as u128) + (x >> 61);
        let mut lanes = [0u128; M61_BLOCK_COLS];
        for b0 in (0..stride).step_by(M61_BLOCK_COLS) {
            let b1 = (b0 + M61_BLOCK_COLS).min(stride);
            let acc = &mut lanes[..b1 - b0];
            for (a, d) in acc.iter_mut().zip(&dst[b0..b1]) {
                *a = d.0 as u128;
            }
            for chunk in terms.chunks(M61_FOLD_TERMS) {
                for &(slot, start, c) in chunk {
                    let (slot, lo) = (slot as usize, (start as usize).max(b0));
                    if lo >= b1 {
                        continue;
                    }
                    let row = &arena[slot * stride + lo..slot * stride + b1];
                    for (a, s) in acc[lo - b0..].iter_mut().zip(row) {
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
        // Branching on the const modulus lets each instantiation keep only
        // its own reduction path after constant folding. A generic `u128 %`
        // compiles to a full 128-bit division on the row-operation hot
        // path; both special moduli admit division-free reductions.
        if P == MERSENNE61_P {
            // Mersenne reduction: 2^61 ≡ 1 (mod p), so fold the high bits
            // down twice (the first fold leaves a value < 2^62) and finish
            // with one conditional subtract.
            let wide = self.0 as u128 * rhs.0 as u128;
            let folded = (wide & MERSENNE61_P as u128) as u64 + (wide >> 61) as u64;
            let folded = (folded & MERSENNE61_P) + (folded >> 61);
            GfP(if folded >= P { folded - P } else { folded })
        } else if P == 257 {
            // 2^8 ≡ −1 (mod 257): for a product x ≤ 256², the byte split
            // x = hi·2^8 + lo reduces to lo − hi, lifted into 0..257 by
            // adding 257 and one conditional subtract.
            let x = self.0 * rhs.0;
            let r = (x & 0xff) + 257 - (x >> 8);
            GfP(if r >= 257 { r - 257 } else { r })
        } else {
            GfP(((self.0 as u128 * rhs.0 as u128) % P as u128) as u64)
        }
    }

    fn combine_rows(dst: &mut [Self], arena: &[Self], stride: usize, terms: &[(u32, u32, Self)]) {
        // Same const-modulus branch as `mul`: both special moduli leave
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

    #[test]
    fn gf257_fast_reduction_matches_generic_modulo_exhaustively() {
        // The byte-split path is locked against the old `%` implementation
        // over the entire 257 × 257 multiplication table.
        for a in 0..257u64 {
            for b in 0..257u64 {
                assert_eq!(
                    Gf257::new(a).mul(Gf257::new(b)).value(),
                    (a * b) % 257,
                    "{a} * {b} mod 257"
                );
            }
        }
    }

    #[test]
    fn mersenne61_fast_reduction_matches_generic_modulo_at_edges() {
        let p = 2_305_843_009_213_693_951u64;
        // Boundary representatives where the shift-add folds are tightest.
        let edges = [0, 1, 2, (1 << 31) - 1, 1 << 31, p / 2, p - 2, p - 1];
        for &a in &edges {
            for &b in &edges {
                assert_eq!(
                    Mersenne61::new(a).mul(Mersenne61::new(b)).value(),
                    ((a as u128 * b as u128) % p as u128) as u64,
                    "{a} * {b} mod 2^61-1"
                );
            }
        }
    }

    proptest::proptest! {
        /// Randomized lock of the Mersenne shift-add reduction against the
        /// old generic `u128 %` implementation.
        #[test]
        fn mersenne61_fast_reduction_matches_generic_modulo(
            a in 0u64..2_305_843_009_213_693_951,
            b in 0u64..2_305_843_009_213_693_951,
        ) {
            let p = 2_305_843_009_213_693_951u64;
            proptest::prop_assert_eq!(
                Mersenne61::new(a).mul(Mersenne61::new(b)).value(),
                ((a as u128 * b as u128) % p as u128) as u64
            );
        }
    }

    /// `combine_rows` against its defining `axpy` fold, from a `dst` of
    /// all `fill` over an arena of all `fill`.
    fn assert_combine_is_axpy_fold<const P: u64>(
        width: usize,
        rows: usize,
        fill: GfP<P>,
        terms: &[(u32, u32, GfP<P>)],
    ) {
        let arena = vec![fill; rows * width];
        let mut got = vec![fill; width];
        let mut want = got.clone();
        GfP::<P>::combine_rows(&mut got, &arena, width, terms);
        combine_rows_by_axpy(&mut want, &arena, width, terms);
        assert_eq!(got, want, "{} terms over GF({P})", terms.len());
    }

    /// `count` terms cycling over three rows, with start columns that
    /// include 0, the row end and — for a wide row — both sides of the
    /// accumulator block edge; every `zero_every`-th coefficient is zero.
    fn boundary_terms<const P: u64>(
        count: usize,
        width: usize,
        zero_every: usize,
    ) -> Vec<(u32, u32, GfP<P>)> {
        (0..count)
            .map(|t| {
                let c = if t % zero_every == zero_every - 1 {
                    0
                } else {
                    P - 1
                };
                ((t % 3) as u32, (t * 11 % (width + 1)) as u32, GfP(c))
            })
            .collect()
    }

    #[test]
    fn m61_combine_rows_is_exact_across_every_fold_boundary() {
        let top = Mersenne61::new(MERSENNE61_P - 1);
        // Narrow, exactly one block, and wider than the lane block.
        for width in [7, M61_BLOCK_COLS, M61_BLOCK_COLS + 37] {
            for count in [0, 1, 31, 32, 33, 64, 65, 1000] {
                // All-(p−1) everywhere: the largest sums the lanes can see.
                let terms = boundary_terms(count, width, usize::MAX);
                assert_combine_is_axpy_fold(width, 3, top, &terms);
                // The same with start column 0 throughout (the densest case).
                let dense: Vec<_> = terms.iter().map(|&(s, _, c)| (s, 0, c)).collect();
                assert_combine_is_axpy_fold(width, 3, top, &dense);
                let terms = boundary_terms(count, width, 3);
                assert_combine_is_axpy_fold(width, 3, top, &terms);
            }
        }
    }

    #[test]
    fn gf257_combine_rows_is_exact_past_two_to_the_sixteen_terms() {
        let top = Gf257::new(256);
        // One past what a 32-bit lane of 2^16-sized products could hold.
        for count in [0, 1, 257, (1 << 16) + 1] {
            for width in [1, 5, 19] {
                let dense: Vec<_> = (0..count).map(|t| ((t % 3) as u32, 0, top)).collect();
                assert_combine_is_axpy_fold(width, 3, top, &dense);
                assert_combine_is_axpy_fold(width, 3, top, &boundary_terms(count, width, 5));
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
        let mut dst = vec![Mersenne61::ZERO; 4];
        // Start column at the row end: no symbol is touched, the slot is
        // still checked.
        Mersenne61::combine_rows(&mut dst, &arena, 4, &[(2, 4, Mersenne61::ONE)]);
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
