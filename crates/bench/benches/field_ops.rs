//! Criterion micro-benchmarks for the field arithmetic kernels — the
//! innermost loops of every coding node.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dyncode_gf::{vector, Field, Gf256, Gf257, Gf2Vec, Mersenne61};
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;

fn bench_gf2_packed(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut g = c.benchmark_group("gf2_packed");
    for len in [64usize, 256, 1024] {
        let a = Gf2Vec::random(len, &mut rng);
        let b = Gf2Vec::random(len, &mut rng);
        g.bench_function(format!("xor_assign/{len}"), |bench| {
            bench.iter_batched(
                || a.clone(),
                |mut x| {
                    x.xor_assign(&b);
                    x
                },
                BatchSize::SmallInput,
            )
        });
        g.bench_function(format!("dot/{len}"), |bench| {
            bench.iter(|| black_box(&a).dot(black_box(&b)))
        });
    }
    g.finish();
}

fn bench_gf256_axpy(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut g = c.benchmark_group("gf256");
    for len in [64usize, 256] {
        let src: Vec<Gf256> = vector::random_vec(len, &mut rng);
        let coeff = Gf256::random_nonzero(&mut rng);
        g.bench_function(format!("axpy/{len}"), |bench| {
            bench.iter_batched(
                || vec![Gf256::ZERO; len],
                |mut dst| {
                    vector::scale_add(&mut dst, &src, coeff);
                    dst
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.bench_function("mul", |bench| {
        let a = Gf256::from_u64(0x57);
        let b = Gf256::from_u64(0x83);
        bench.iter(|| black_box(a).mul(black_box(b)))
    });
    g.finish();
}

fn bench_mersenne61(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let a = Mersenne61::random(&mut rng);
    let b = Mersenne61::random_nonzero(&mut rng);
    let mut g = c.benchmark_group("mersenne61");
    g.bench_function("mul", |bench| bench.iter(|| black_box(a).mul(black_box(b))));
    g.bench_function("inv", |bench| bench.iter(|| black_box(b).inv()));
    g.finish();
}

/// The prime-field cell's reduce/compose step at a full n = k = 64 basis:
/// one deferred-reduction `combine_rows` against the per-term `axpy` fold
/// it must equal.
fn bench_combine_rows<F: Field>(c: &mut Criterion, name: &str) {
    let (rows, width) = (64usize, 72usize);
    let mut rng = StdRng::seed_from_u64(4);
    let arena: Vec<F> = vector::random_vec(rows * width, &mut rng);
    let terms: Vec<(u32, u32, F)> = (0..rows as u32)
        .map(|r| (r, r, F::random_nonzero(&mut rng)))
        .collect();
    let mut g = c.benchmark_group("combine_rows");
    g.bench_function(format!("{name}/combined"), |bench| {
        bench.iter_batched(
            || vec![F::ZERO; width],
            |mut dst| {
                F::combine_rows(&mut dst, black_box(&arena), width, black_box(&terms));
                dst
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function(format!("{name}/sequential_axpy"), |bench| {
        bench.iter_batched(
            || vec![F::ZERO; width],
            |mut dst| {
                for &(slot, start, coeff) in black_box(&terms) {
                    let (slot, start) = (slot as usize, start as usize);
                    let row = &black_box(&arena)[slot * width + start..(slot + 1) * width];
                    F::axpy(&mut dst[start..], row, coeff);
                }
                dst
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_combine_rows_prime_fields(c: &mut Criterion) {
    bench_combine_rows::<Gf257>(c, "gf257");
    bench_combine_rows::<Mersenne61>(c, "m61");
}

criterion_group!(
    benches,
    bench_gf2_packed,
    bench_gf256_axpy,
    bench_mersenne61,
    bench_combine_rows_prime_fields
);
criterion_main!(benches);
