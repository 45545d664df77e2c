//! Derandomizing random linear network coding (Section 6).
//!
//! The paper's Theorem 6.1 shows that with a large enough field
//! (q = n^Ω(k)) even an **omniscient** adversary — one that knows every
//! coefficient the nodes will ever draw — cannot prevent fast mixing; the
//! proof replaces fresh randomness by a fixed "advice" table of
//! pseudo-random choices per (ID, round). Corollary 6.2 then extracts
//! deterministic algorithms.
//!
//! We realize the operational content at machine-representable field
//! sizes:
//!
//! * [`CoefficientSchedule`] — the advice table: a deterministic,
//!   seed-derived coefficient sequence per (node, round). Nodes using it
//!   are fully deterministic given the seed (the analogue of the paper's
//!   non-uniform advice matrix; the "lexicographically first" matrix is
//!   replaced by seed 0).
//! * [`omniscient_stall_run`] — the strongest adversary this model admits:
//!   it evaluates every node's (deterministic) next message *before*
//!   choosing the topology and wires the network to minimize innovative
//!   deliveries, bridging components only where forced by the
//!   connectivity requirement. Over GF(2) this adversary stalls progress
//!   dramatically; over GF(2^61−1) it cannot find non-innovative edges and
//!   dissemination completes in O(n + k) — exactly the q-dependence
//!   Theorem 6.1 formalizes.

use crate::node::DenseNode;
use crate::packet::DensePacket;
use dyncode_gf::Field;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64, the standard 64-bit finalizer used to derive per-(node,
/// round) seeds from a master seed.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic coefficient advice table: every `(node, round)` maps to
/// a reproducible coefficient vector. Two schedules with the same seed are
/// identical, which is what lets all nodes (and the analysis) agree on the
/// "advice matrix" without communication.
#[derive(Clone, Debug)]
pub struct CoefficientSchedule {
    seed: u64,
}

impl CoefficientSchedule {
    /// The schedule derived from `seed` (seed 0 plays the role of the
    /// paper's canonical lexicographically-first advice).
    pub fn new(seed: u64) -> Self {
        CoefficientSchedule { seed }
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The advice stream of `node` at `round`: the one place the
    /// `(seed, node, round)` derivation is written. Everything that reads
    /// advice — [`coefficients`](Self::coefficients) here, the arena
    /// cells' compose loops in `dyncode-kernel` — draws from this RNG.
    pub fn rng(&self, node: usize, round: usize) -> StdRng {
        let s = splitmix64(self.seed ^ splitmix64(node as u64 ^ splitmix64(round as u64)));
        StdRng::seed_from_u64(s)
    }

    /// The advice coefficients for `node` at `round`: the first `count`
    /// draws of `F::random` from [`rng`](Self::rng).
    pub fn coefficients<F: Field>(&self, node: usize, round: usize, count: usize) -> Vec<F> {
        let mut rng = self.rng(node, round);
        (0..count).map(|_| F::random(&mut rng)).collect()
    }
}

/// Outcome of an omniscient-adversary run.
#[derive(Clone, Debug)]
pub struct StallResult {
    /// Rounds until all nodes decoded (or the cap).
    pub rounds: usize,
    /// Did every node decode within the cap?
    pub completed: bool,
    /// Total innovative deliveries that happened despite the adversary.
    pub innovative_deliveries: usize,
    /// Rounds in which the adversary found a fully "safe" topology (no
    /// innovative delivery at all).
    pub fully_stalled_rounds: usize,
}

/// Runs k-indexed-broadcast with deterministic advice coefficients against
/// the omniscient stalling adversary, over field `F`.
///
/// Setup: `n` nodes, token `i` (of `payload_len` symbols) seeded at node
/// `i mod n`. Each round every node's message is *determined* by the
/// schedule; the adversary computes all messages, then:
///
/// 1. collects all "safe" edges `{u,v}` where neither endpoint's message is
///    innovative for the other;
/// 2. if the safe graph is connected, uses it (a fully stalled round —
///    possible only when non-innovative coincidences exist, i.e., small q);
/// 3. otherwise connects the safe components with the fewest possible
///    bridge edges, each chosen to minimize innovative deliveries.
///
/// # Panics
/// Panics if `k == 0` or `n == 0`.
pub fn omniscient_stall_run<F: Field>(
    n: usize,
    k: usize,
    payload_len: usize,
    seed: u64,
    max_rounds: usize,
) -> StallResult {
    assert!(n > 0 && k > 0, "need nodes and tokens");
    let schedule = CoefficientSchedule::new(seed);
    let mut payload_rng = StdRng::seed_from_u64(splitmix64(seed ^ 0xDEAD));
    let mut nodes: Vec<DenseNode<F>> = (0..n).map(|_| DenseNode::new(k, payload_len)).collect();
    for i in 0..k {
        let payload = dyncode_gf::vector::random_vec::<F, _>(payload_len, &mut payload_rng);
        nodes[i % n].seed_source(i, &payload);
    }

    let mut innovative_deliveries = 0usize;
    let mut fully_stalled_rounds = 0usize;
    let all_done = |nodes: &[DenseNode<F>]| nodes.iter().all(|nd| nd.coefficient_rank() == k);

    for round in 0..max_rounds {
        if all_done(&nodes) {
            return StallResult {
                rounds: round,
                completed: true,
                innovative_deliveries,
                fully_stalled_rounds,
            };
        }
        // The omniscient step: all messages are known before the topology.
        let messages: Vec<Option<DensePacket<F>>> = (0..n)
            .map(|u| {
                let coeffs = schedule.coefficients::<F>(u, round, nodes[u].rank());
                nodes[u].emit_with_coefficients(&coeffs)
            })
            .collect();
        let harmful = |u: usize, v: usize| -> usize {
            // Innovative deliveries the edge {u,v} would cause.
            let mut h = 0;
            if let Some(m) = &messages[u] {
                if !nodes[v].space().contains(&m.data) {
                    h += 1;
                }
            }
            if let Some(m) = &messages[v] {
                if !nodes[u].space().contains(&m.data) {
                    h += 1;
                }
            }
            h
        };

        // Safe subgraph and its components (union-find).
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut r = x;
            while parent[r] != r {
                r = parent[r];
            }
            let mut c = x;
            while parent[c] != r {
                let nx = parent[c];
                parent[c] = r;
                c = nx;
            }
            r
        }
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                if harmful(u, v) == 0 {
                    let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
                    if ru != rv {
                        // A spanning forest of the safe graph suffices.
                        parent[ru] = rv;
                        edges.push((u, v));
                    }
                }
            }
        }
        // Bridge remaining components with minimum-harm edges.
        let mut stalled = true;
        loop {
            let roots: Vec<usize> = (0..n).filter(|&u| find(&mut parent, u) == u).collect();
            if roots.len() <= 1 {
                break;
            }
            let mut best: Option<(usize, (usize, usize))> = None;
            for u in 0..n {
                for v in u + 1..n {
                    if find(&mut parent, u) != find(&mut parent, v) {
                        let h = harmful(u, v);
                        if best.is_none_or(|(bh, _)| h < bh) {
                            best = Some((h, (u, v)));
                        }
                    }
                }
            }
            let (h, (u, v)) = best.expect("components > 1 implies a crossing pair");
            if h > 0 {
                stalled = false;
            }
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            parent[ru] = rv;
            edges.push((u, v));
        }
        if stalled {
            fully_stalled_rounds += 1;
        }

        // Deliver over the chosen topology.
        let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(u, v) in &edges {
            incoming[u].push(v);
            incoming[v].push(u);
        }
        for u in 0..n {
            for &v in &incoming[u] {
                if let Some(m) = &messages[v] {
                    if nodes[u].receive(m) {
                        innovative_deliveries += 1;
                    }
                }
            }
        }
    }

    StallResult {
        rounds: max_rounds,
        completed: all_done(&nodes),
        innovative_deliveries,
        fully_stalled_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncode_gf::{Gf2, Gf256, Gf257, Mersenne61};

    #[test]
    fn schedule_is_deterministic_and_varied() {
        let s1 = CoefficientSchedule::new(42);
        let s2 = CoefficientSchedule::new(42);
        let a: Vec<Gf256> = s1.coefficients(3, 7, 10);
        let b: Vec<Gf256> = s2.coefficients(3, 7, 10);
        assert_eq!(a, b, "same seed, same advice");
        let c: Vec<Gf256> = s1.coefficients(3, 8, 10);
        assert_ne!(a, c, "different rounds, different advice");
        let d: Vec<Gf256> = s1.coefficients(4, 7, 10);
        assert_ne!(a, d, "different nodes, different advice");
        let e: Vec<Gf256> = CoefficientSchedule::new(43).coefficients(3, 7, 10);
        assert_ne!(a, e, "different seeds, different advice");
    }

    #[test]
    fn coefficients_equal_the_recorded_advice() {
        // Recorded literals: the advice table is part of every `det=`
        // result (goldens, store objects), so the `(seed, node, round)`
        // derivation and the draw order may never move.
        let a: Vec<Gf256> = CoefficientSchedule::new(7).coefficients(3, 5, 6);
        assert_eq!(a, [0xf9, 0x5e, 0xb9, 0xa6, 0xc0, 0xe8].map(Gf256));
        let b: Vec<Gf257> = CoefficientSchedule::new(7).coefficients(0, 0, 5);
        assert_eq!(b, [243, 127, 223, 182, 70].map(Gf257::from_u64));
        let c: Vec<Mersenne61> = CoefficientSchedule::new(3).coefficients(63, 41, 3);
        let m61 = [
            1_428_067_494_152_079_484,
            1_885_239_668_729_275_110,
            1_643_227_087_219_353_390,
        ];
        assert_eq!(c, m61.map(Mersenne61::from_u64));
        let d: Vec<Gf2> = CoefficientSchedule::new(1).coefficients(2, 9, 12);
        assert_eq!(d, [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1].map(Gf2::from_u64));
    }

    #[test]
    fn the_advice_rng_draws_the_coefficients_on_every_field() {
        fn check<F: Field>() {
            let s = CoefficientSchedule::new(11);
            for (node, round, count) in [(0, 0, 1), (5, 17, 40), (63, 900, 7)] {
                let mut rng = s.rng(node, round);
                let drawn: Vec<F> = (0..count).map(|_| F::random(&mut rng)).collect();
                assert_eq!(drawn, s.coefficients::<F>(node, round, count));
            }
        }
        check::<Gf2>();
        check::<Gf256>();
        check::<Gf257>();
        check::<Mersenne61>();
    }

    #[test]
    fn large_field_defeats_the_omniscient_adversary() {
        // Theorem 6.1's operational content: with q huge the omniscient
        // adversary cannot stall; completion stays O(n + k).
        let (n, k) = (10, 10);
        let r = omniscient_stall_run::<Mersenne61>(n, k, 2, 1, 40 * (n + k));
        assert!(r.completed, "M61 run failed to complete: {r:?}");
        assert!(
            r.rounds <= 8 * (n + k),
            "M61 took {} rounds, expected O(n+k)",
            r.rounds
        );
        assert_eq!(
            r.fully_stalled_rounds, 0,
            "a 2^-61 coincidence should never appear at this scale"
        );
    }

    #[test]
    fn gf2_is_stallable_by_the_omniscient_adversary() {
        // Against GF(2) the same adversary finds non-innovative messages
        // constantly; it should stall many rounds entirely and push the
        // completion time well past the large-field run.
        let (n, k) = (10, 10);
        let m61 = omniscient_stall_run::<Mersenne61>(n, k, 2, 1, 40 * (n + k));
        let gf2 = omniscient_stall_run::<Gf2>(n, k, 2, 1, 40 * (n + k));
        assert!(
            gf2.fully_stalled_rounds > 0,
            "omniscient adversary should fully stall some GF(2) rounds"
        );
        assert!(
            !gf2.completed || gf2.rounds >= 2 * m61.rounds,
            "GF(2) should be far slower under omniscience: gf2={gf2:?} m61={m61:?}"
        );
    }

    #[test]
    fn deterministic_runs_replay_exactly() {
        let a = omniscient_stall_run::<Gf256>(8, 8, 2, 5, 500);
        let b = omniscient_stall_run::<Gf256>(8, 8, 2, 5, 500);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.innovative_deliveries, b.innovative_deliveries);
    }
}
