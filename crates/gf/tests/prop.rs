//! Property-based tests for the field and linear-algebra substrate.

use dyncode_gf::{
    vector, Field, Gf2, Gf256, Gf257, Gf2Basis, Gf2Vec, Gf65537, Mersenne61, Subspace,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn gf256() -> impl Strategy<Value = Gf256> {
    any::<u8>().prop_map(|x| Gf256::from_u64(x as u64))
}

fn m61() -> impl Strategy<Value = Mersenne61> {
    any::<u64>().prop_map(Mersenne61::from_u64)
}

/// `combine_rows` must equal the fold of `vector::scale_add` (the reference
/// row operation) over the same terms in order, on the trailing `width`
/// columns — the one definition the default and every override answer
/// to — and so must the same fold over `F::axpy`, whose overrides promise
/// `scale_add`'s result. Roughly one coefficient in five is zero.
fn combine_rows_is_axpy_fold<F: Field>(seed: u64, rows: usize, stride: usize, count: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let arena: Vec<F> = vector::random_vec(rows * stride, &mut rng);
    let width = rng.random_range(0..=stride);
    let mut got: Vec<F> = vector::random_vec(width, &mut rng);
    let (mut want, mut by_axpy) = (got.clone(), got.clone());
    let terms: Vec<(u32, F)> = (0..count)
        .map(|_| {
            let zero = rng.random_range(0..5u32) == 0;
            let c = if zero { F::ZERO } else { F::random(&mut rng) };
            (rng.random_range(0..rows) as u32, c)
        })
        .collect();
    F::combine_rows(&mut got, &arena, stride, &terms);
    for &(slot, c) in &terms {
        let end = (slot as usize + 1) * stride;
        vector::scale_add(&mut want, &arena[end - width..end], c);
        F::axpy(&mut by_axpy, &arena[end - width..end], c);
    }
    assert_eq!(got, want);
    assert_eq!(by_axpy, want);
}

proptest! {
    #[test]
    fn combine_rows_is_the_axpy_fold_over_every_field(
        seed in any::<u64>(),
        rows in 1usize..12,
        stride in 1usize..200,
        count in 0usize..80,
    ) {
        combine_rows_is_axpy_fold::<Gf2>(seed, rows, stride, count);
        combine_rows_is_axpy_fold::<Gf256>(seed, rows, stride, count);
        combine_rows_is_axpy_fold::<Gf257>(seed, rows, stride, count);
        combine_rows_is_axpy_fold::<Gf65537>(seed, rows, stride, count);
        combine_rows_is_axpy_fold::<Mersenne61>(seed, rows, stride, count);
    }

    #[test]
    fn gf256_axioms(a in gf256(), b in gf256(), c in gf256()) {
        dyncode_gf::field::assert_field_axioms(a, b, c);
    }

    #[test]
    fn mersenne61_axioms(a in m61(), b in m61(), c in m61()) {
        dyncode_gf::field::assert_field_axioms(a, b, c);
    }

    #[test]
    fn gf2_axioms(a in any::<bool>(), b in any::<bool>(), c in any::<bool>()) {
        dyncode_gf::field::assert_field_axioms(
            Gf2::from_bool(a),
            Gf2::from_bool(b),
            Gf2::from_bool(c),
        );
    }

    #[test]
    fn subspace_insert_is_monotone_and_idempotent(
        seed in any::<u64>(),
        len in 1usize..24,
        inserts in 1usize..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s: Subspace<Gf256> = Subspace::new(len);
        let mut prev_dim = 0;
        for _ in 0..inserts {
            let v = vector::random_vec::<Gf256, _>(len, &mut rng);
            let was_member = s.contains(&v);
            let innovative = s.insert(v.clone());
            // Innovation <=> not previously in the span.
            prop_assert_eq!(innovative, !was_member);
            prop_assert!(s.dim() >= prev_dim);
            prop_assert!(s.dim() <= len);
            prev_dim = s.dim();
            // After insertion the vector is always a member.
            prop_assert!(s.contains(&v));
            // Re-inserting is never innovative.
            prop_assert!(!s.insert(v));
        }
    }

    #[test]
    fn packed_and_dense_gf2_agree(
        seed in any::<u64>(),
        len in 1usize..80,
        inserts in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut packed = Gf2Basis::new(len);
        let mut dense: Subspace<Gf2> = Subspace::new(len);
        for _ in 0..inserts {
            let v = Gf2Vec::random(len, &mut rng);
            let dv: Vec<Gf2> = (0..len).map(|i| Gf2::from_bool(v.get(i))).collect();
            prop_assert_eq!(packed.insert(v), dense.insert(dv));
            prop_assert_eq!(packed.dim(), dense.dim());
            prop_assert_eq!(packed.pivots(), dense.pivots());
        }
    }

    #[test]
    fn decode_inverts_encode(
        seed in any::<u64>(),
        k in 1usize..12,
        d in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let payloads: Vec<Gf2Vec> = (0..k).map(|_| Gf2Vec::random(d, &mut rng)).collect();
        let sources: Vec<Gf2Vec> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| Gf2Vec::unit(k, i).concat(p))
            .collect();
        let mut basis = Gf2Basis::new(k + d);
        // Feed random combinations until full coefficient rank; bounded
        // whp, so a generous cap keeps the test deterministic.
        let mut guard = 0;
        while basis.prefix_rank(k) < k {
            let mut m = Gf2Vec::zeros(k + d);
            for s in &sources {
                if rand::RngExt::random(&mut rng) {
                    m.xor_assign(s);
                }
            }
            basis.insert(m);
            guard += 1;
            prop_assert!(guard < 2000, "failed to reach full rank");
        }
        prop_assert_eq!(basis.decode(k), Some(payloads));
    }

    #[test]
    fn bytes_round_trip(bits in proptest::collection::vec(any::<bool>(), 1..200)) {
        let v = Gf2Vec::from_bools(&bits);
        prop_assert_eq!(Gf2Vec::from_bytes(&v.to_bytes(), bits.len()), v);
    }

    #[test]
    fn sensing_respects_orthogonality(
        seed in any::<u64>(),
        k in 2usize..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // A basis spanning exactly e_0: senses mu iff mu_0 != 0.
        let mut b = Gf2Basis::new(k);
        b.insert(Gf2Vec::unit(k, 0));
        let mu = Gf2Vec::random(k, &mut rng);
        prop_assert_eq!(b.senses(&mu), mu.get(0));
    }
}
