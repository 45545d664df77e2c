//! Per-call costs of the innermost layers, measured in isolation at the
//! workload's own sizes (row length k + payload, quorum rows of n): the
//! reference path's `DenseNode`/`Subspace`, the field kernels, the quorum
//! watermark, the cell digest and the executor's per-job cost. A CPU
//! sandbox reports operation time and computed bytes only — no roofline.

use crate::stats::median;
use dyncode_engine::{CellSpec, Engine};
use dyncode_gf::{vector, Field, Gf256, Gf257, Gf2Basis, Gf2Vec, Mersenne61, Subspace};
use dyncode_quorum::{watermark_with, Round};
use dyncode_rlnc::{DenseNode, DensePacket};
use dyncode_store::CellKey;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Symbols of payload a d = 16 token occupies in the dense fields.
const PAYLOAD: usize = 2;
/// States prepared (untimed) per timed batch of state-consuming calls.
const BATCH: usize = 16;
/// Timed batches per measurement; the reported cost is their median.
const BATCHES: usize = 9;

/// Median nanoseconds per call of `op` over [`BATCHES`] batches, each
/// batch sized to about half a millisecond.
fn per_call_ns(mut op: impl FnMut()) -> f64 {
    let t = Instant::now();
    op();
    let once = t.elapsed().as_nanos().max(1) as f64;
    let iters = ((500_000.0 / once) as usize).clamp(1, 100_000);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                op();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Median nanoseconds per call of `op`, which consumes a state cloned
/// from `proto` (the clones are made outside the timed stretch).
fn per_state_ns<S: Clone>(proto: &S, mut op: impl FnMut(&mut S)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut states = vec![proto.clone(); BATCH];
            let t = Instant::now();
            for s in &mut states {
                op(s);
            }
            let ns = t.elapsed().as_nanos() as f64 / BATCH as f64;
            black_box(states);
            ns
        })
        .collect();
    median(&samples)
}

/// A dense node at rank `k / 2` with one more innovative packet to
/// receive, and the coefficients for one emission.
fn half_full_node<F: Field>(k: usize, rng: &mut StdRng) -> (DenseNode<F>, DensePacket<F>, Vec<F>) {
    let mut source = DenseNode::<F>::new(k, PAYLOAD);
    for i in 0..k {
        source.seed_source(i, &vector::random_vec::<F, _>(PAYLOAD, rng));
    }
    let mut node = DenseNode::<F>::new(k, PAYLOAD);
    while node.rank() < k / 2 {
        node.receive(&source.emit(rng).expect("a seeded source emits"));
    }
    let fresh = loop {
        let p = source.emit(rng).expect("a seeded source emits");
        if node.clone().receive(&p) {
            break p;
        }
    };
    let coeffs = vector::random_vec::<F, _>(k, rng);
    (node, fresh, coeffs)
}

fn axpy_ns_per_symbol<F: Field>(len: usize, rng: &mut StdRng) -> f64 {
    let src: Vec<F> = vector::random_vec(len, rng);
    let mut dst: Vec<F> = vector::random_vec(len, rng);
    let c = F::random_nonzero(rng);
    per_call_ns(|| vector::scale_add(black_box(&mut dst), black_box(&src), c)) / len as f64
}

/// Runs every micro-measurement at `(n, k)`; `cell` is the spec whose
/// store key is digested. Returns `(metric, value)` pairs.
pub fn run(n: usize, k: usize, cell: &CellSpec, threads: usize) -> Vec<(&'static str, f64)> {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let k = k.max(2);
    let len = k + PAYLOAD;
    let mut out = Vec::new();

    let (node, fresh, coeffs) = half_full_node::<Mersenne61>(k, &mut rng);
    out.push((
        "rlnc.dense_receive_us",
        per_state_ns(&node, |s| {
            black_box(s.receive(&fresh));
        }) / 1e3,
    ));
    out.push((
        "rlnc.dense_emit_us",
        per_call_ns(|| {
            black_box(node.emit_with_coefficients(black_box(&coeffs)));
        }) / 1e3,
    ));
    out.push((
        "gf.subspace_insert_us",
        per_state_ns(node.space(), |s: &mut Subspace<Mersenne61>| {
            black_box(s.insert(fresh.data.clone()));
        }) / 1e3,
    ));

    let mut basis = Gf2Basis::new(k + 16);
    while basis.dim() < k / 2 {
        basis.insert(Gf2Vec::random(k + 16, &mut rng));
    }
    let v = Gf2Vec::random(k + 16, &mut rng);
    out.push((
        "gf.gf2_insert_ns",
        per_state_ns(&basis, |s| {
            black_box(s.insert(v.clone()));
        }),
    ));

    out.push((
        "gf.gf256_axpy_ns_per_sym",
        axpy_ns_per_symbol::<Gf256>(len, &mut rng),
    ));
    out.push((
        "gf.gf257_axpy_ns_per_sym",
        axpy_ns_per_symbol::<Gf257>(len, &mut rng),
    ));
    out.push((
        "gf.m61_axpy_ns_per_sym",
        axpy_ns_per_symbol::<Mersenne61>(len, &mut rng),
    ));
    // Computed, not measured: one axpy reads two rows and writes one.
    out.push((
        "gf.axpy_row_bytes",
        (3 * len * std::mem::size_of::<Mersenne61>()) as f64,
    ));

    let row: Vec<Round> = (0..n).map(|_| rng.random_range(0..64u32)).collect();
    let mut scratch = Vec::new();
    out.push((
        "quorum.watermark_ns",
        per_call_ns(|| {
            black_box(watermark_with(black_box(&row), n / 2 + 1, &mut scratch));
        }),
    ));

    out.push((
        "store.key_digest_us",
        per_call_ns(|| {
            black_box(CellKey::new(black_box(cell), 7));
        }) / 1e3,
    ));

    let engine = Engine::new(threads);
    let jobs = 2_000usize;
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            black_box(engine.map((0..jobs).map(|i| move || black_box(i)).collect()));
            t.elapsed().as_nanos() as f64 / jobs as f64 / 1e3
        })
        .collect();
    out.push(("engine.executor_us_per_job", median(&samples)));
    out
}
