//! The [`Field`] trait: the algebraic abstraction all coding code is generic
//! over.
//!
//! The trait is deliberately minimal — finite fields of order up to 2^64 —
//! because that is exactly the range the paper exercises: q = 2 for the
//! randomized algorithms (Section 5) and "q large enough for a union bound
//! over adversarial schedules" for the derandomization (Section 6), which we
//! realize with the Mersenne prime 2^61 − 1.

use rand::Rng;

/// A finite field of order at most 2^64.
///
/// Implementations must satisfy the field axioms; the property-based tests
/// in this crate check them on random elements for every implementation.
pub trait Field:
    Copy + Clone + Eq + PartialEq + core::fmt::Debug + core::hash::Hash + Send + Sync + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;

    /// The number of elements q of the field.
    fn order() -> u128;

    /// Bits needed to describe one field element: ⌈log2 q⌉.
    ///
    /// This is the per-coefficient header cost that the paper charges a
    /// network-coded message (Section 3 discusses why this overhead must be
    /// accounted for when messages are small).
    fn bits_per_symbol() -> u32 {
        let q = Self::order();
        128 - (q - 1).leading_zeros()
    }

    /// Field addition.
    fn add(self, rhs: Self) -> Self;
    /// Field subtraction.
    fn sub(self, rhs: Self) -> Self;
    /// Additive inverse.
    fn neg(self) -> Self {
        Self::ZERO.sub(self)
    }
    /// Field multiplication.
    fn mul(self, rhs: Self) -> Self;
    /// Multiplicative inverse; `None` for zero.
    fn inv(self) -> Option<Self>;
    /// Division; `None` when dividing by zero.
    fn div(self, rhs: Self) -> Option<Self> {
        rhs.inv().map(|r| self.mul(r))
    }

    /// Exponentiation by squaring.
    fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            e >>= 1;
        }
        acc
    }

    /// Canonical embedding of `x mod q`.
    fn from_u64(x: u64) -> Self;
    /// The canonical representative in `0..q`.
    fn to_u64(self) -> u64;

    /// Is this the zero element?
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// `dst += c * src` over whole rows — the **fast kernel's** rank-1
    /// update (back-elimination). The default is the reference backend's
    /// textbook loop, [`crate::vector::scale_add`]; implementations with
    /// cheaper bulk forms ([`crate::Gf256`]'s per-coefficient product
    /// table, `GfP`'s fused single-reduction `d + c·s`) may override it,
    /// but must compute exactly `d.add(c.mul(s))` per entry — `scale_add`'s
    /// result — so results stay bit-identical (`tests/prop.rs` checks every
    /// field).
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    fn axpy(dst: &mut [Self], src: &[Self], c: Self) {
        crate::vector::scale_add(dst, src, c);
    }

    /// `dst += Σ_t c_t · row_t` — the fast kernel's gather-then-combine
    /// step: a whole reduction or composition as one vector–matrix
    /// product. Row `slot` is `arena[slot·stride .. (slot+1)·stride]`, a
    /// term is `(slot, c)`, and `dst` covers the trailing `dst.len()`
    /// columns of every row (the caller's free columns). The default is
    /// one [`Field::axpy`] per term; an override may reorder and defer
    /// reductions but must return exactly that fold's result — field
    /// arithmetic is exact, so any summation order qualifies.
    ///
    /// # Panics
    /// Panics if `dst.len() > stride` or a slot lies outside `arena`.
    fn combine_rows(dst: &mut [Self], arena: &[Self], stride: usize, terms: &[(u32, Self)]) {
        combine_rows_by_axpy(dst, arena, stride, terms);
    }

    /// A uniformly random field element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;

    /// A uniformly random *nonzero* field element.
    fn random_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let x = Self::random(rng);
            if !x.is_zero() {
                return x;
            }
        }
    }
}

/// [`Field::combine_rows`]' defining fold, one `axpy` per term in order —
/// a free function so an override can fall back to it for the moduli it
/// does not specialise.
pub(crate) fn combine_rows_by_axpy<F: Field>(
    dst: &mut [F],
    arena: &[F],
    stride: usize,
    terms: &[(u32, F)],
) {
    let off = trailing_offset(dst, stride);
    for &(slot, c) in terms {
        let row = slot as usize * stride;
        F::axpy(dst, &arena[row + off..row + stride], c);
    }
}

/// The first row column a [`Field::combine_rows`] `dst` covers.
pub(crate) fn trailing_offset<F>(dst: &[F], stride: usize) -> usize {
    stride
        .checked_sub(dst.len())
        .expect("combine_rows dst is wider than a row")
}

/// Checks the field axioms on a triple of elements; used by unit and
/// property tests of every implementation.
///
/// Panics with a descriptive message on the first violated axiom.
pub fn assert_field_axioms<F: Field>(a: F, b: F, c: F) {
    assert_eq!(a.add(b), b.add(a), "addition must commute");
    assert_eq!(a.mul(b), b.mul(a), "multiplication must commute");
    assert_eq!(a.add(b).add(c), a.add(b.add(c)), "addition must associate");
    assert_eq!(
        a.mul(b).mul(c),
        a.mul(b.mul(c)),
        "multiplication must associate"
    );
    assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)), "distributivity");
    assert_eq!(a.add(F::ZERO), a, "zero is the additive identity");
    assert_eq!(a.mul(F::ONE), a, "one is the multiplicative identity");
    assert_eq!(a.sub(a), F::ZERO, "a - a = 0");
    assert_eq!(a.add(a.neg()), F::ZERO, "a + (-a) = 0");
    if !a.is_zero() {
        let ai = a.inv().expect("nonzero element must be invertible");
        assert_eq!(a.mul(ai), F::ONE, "a * a^-1 = 1");
        assert_eq!(a.div(a), Some(F::ONE), "a / a = 1");
    } else {
        assert_eq!(a.inv(), None, "zero must not be invertible");
    }
    assert_eq!(F::from_u64(a.to_u64()), a, "to_u64/from_u64 round-trip");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gf2, Gf256, Gf257, Mersenne61};
    use rand::{rngs::StdRng, SeedableRng};

    fn exhaustive_or_random<F: Field>(samples: usize) {
        let mut rng = StdRng::seed_from_u64(0xF1E1D);
        let q = F::order();
        if q <= 64 {
            for x in 0..q as u64 {
                for y in 0..q as u64 {
                    for z in 0..q as u64 {
                        assert_field_axioms(F::from_u64(x), F::from_u64(y), F::from_u64(z));
                    }
                }
            }
        } else {
            for _ in 0..samples {
                assert_field_axioms(
                    F::random(&mut rng),
                    F::random(&mut rng),
                    F::random(&mut rng),
                );
            }
        }
    }

    #[test]
    fn gf2_axioms_exhaustive() {
        exhaustive_or_random::<Gf2>(0);
    }

    #[test]
    fn gf256_axioms_sampled() {
        exhaustive_or_random::<Gf256>(500);
    }

    #[test]
    fn gf257_axioms_sampled() {
        exhaustive_or_random::<Gf257>(500);
    }

    #[test]
    fn mersenne61_axioms_sampled() {
        exhaustive_or_random::<Mersenne61>(500);
    }

    #[test]
    fn bits_per_symbol_matches_order() {
        assert_eq!(Gf2::bits_per_symbol(), 1);
        assert_eq!(Gf256::bits_per_symbol(), 8);
        assert_eq!(Gf257::bits_per_symbol(), 9);
        assert_eq!(Mersenne61::bits_per_symbol(), 61);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let a = Gf256::random(&mut rng);
            let mut acc = Gf256::ONE;
            for e in 0..10u64 {
                assert_eq!(a.pow(e), acc);
                acc = acc.mul(a);
            }
        }
    }

    #[test]
    fn random_nonzero_is_nonzero() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            assert!(!Gf2::random_nonzero(&mut rng).is_zero());
            assert!(!Gf256::random_nonzero(&mut rng).is_zero());
        }
    }

    #[test]
    fn fermat_little_theorem_holds() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let a = Gf257::random_nonzero(&mut rng);
            assert_eq!(a.pow(256), Gf257::ONE);
            let b = Gf256::random_nonzero(&mut rng);
            assert_eq!(b.pow(255), Gf256::ONE);
        }
    }
}
