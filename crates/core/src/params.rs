//! Problem instances of k-token dissemination (Section 4.2).
//!
//! "k ≤ n tokens of d ≤ b bits are located in the network and the goal is
//! for all nodes to become aware of the union of the tokens." Tokens are
//! chosen and placed by the adversary before the first round; we generate
//! distinct random d-bit values under a pluggable placement.
//!
//! **Simulation convention.** Tokens are identified *by value*; the
//! instance stores them sorted by value and protocols refer to them by
//! their sorted index. Because the map index ↔ value is a bijection known
//! to the simulation (not to the nodes), protocols may carry indices in
//! their in-memory messages as long as (a) every comparison they make is a
//! value comparison (index order *is* value order), and (b) messages are
//! charged the bits of the values/payloads they stand for. The simulator's
//! strict-bits mode enforces (b).

use dyncode_gf::Gf2Vec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::str::FromStr;

/// The public parameters of a dissemination problem. All four are known to
/// every node (n is known per the model; k, d and b are protocol
/// parameters, as in the paper's theorem statements).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    /// Number of nodes.
    pub n: usize,
    /// Number of tokens (k ≤ n in the paper; we also allow k > n for
    /// stress tests).
    pub k: usize,
    /// Token size in bits (d ≤ b).
    pub d: usize,
    /// Message budget in bits (b ≥ log₂ n).
    pub b: usize,
}

impl Params {
    /// Creates and validates parameters.
    ///
    /// # Panics
    /// Panics with [`Params::check`]'s message unless it passes.
    pub fn new(n: usize, k: usize, d: usize, b: usize) -> Self {
        Params::check(n, k, d, b).unwrap_or_else(|why| panic!("{why}"));
        Params { n, k, d, b }
    }

    /// The conditions on a parameter set, as an error instead of a
    /// panic: `n ≥ 1`, `k ≥ 1`, `log₂ n ≤ b`, `d ≤ b`, and tokens are
    /// distinguishable (`2^d ≥ 2k`, needed for distinct token values).
    /// Campaign validation calls this per grid point; [`Params::new`]
    /// panics with the same message.
    pub fn check(n: usize, k: usize, d: usize, b: usize) -> Result<(), String> {
        if n < 1 {
            return Err("need at least one node".into());
        }
        if k < 1 {
            return Err("need at least one token".into());
        }
        if d > b {
            return Err(format!("token size d={d} exceeds message size b={b}"));
        }
        let log_n = usize::BITS - n.leading_zeros().max(1);
        if b < log_n as usize {
            return Err(format!("message size b={b} below log2(n)={log_n}"));
        }
        if d < 63 && k.checked_mul(2).is_none_or(|twice| (1usize << d) < twice) {
            return Err(format!("d={d} bits cannot hold {k} distinct token values"));
        }
        Ok(())
    }

    /// ⌈log₂ n⌉, the size of a node UID.
    pub fn uid_bits(&self) -> usize {
        (usize::BITS - (self.n.max(2) - 1).leading_zeros()) as usize
    }

    /// How many whole tokens fit in one message: ⌊b/d⌋ (at least 1 since
    /// d ≤ b).
    pub fn tokens_per_message(&self) -> usize {
        (self.b / self.d).max(1)
    }
}

/// Where the adversary places the tokens before round one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Token i starts at node i (requires k ≤ n); the canonical
    /// "each node starts with one token" setup of the counting problem.
    OneTokenPerNode,
    /// Token i starts at node i mod n.
    RoundRobin,
    /// All tokens start at a single node.
    AllAtNode(usize),
    /// Tokens are crammed into the first `m` nodes round-robin — an
    /// adversarial clustering that stresses gathering.
    Clustered(usize),
}

impl Placement {
    /// Does this placement fit a problem of `n` nodes and `k` tokens?
    /// Campaign validation calls this per grid point;
    /// [`Instance::generate`] panics with the same message.
    pub fn fits(&self, n: usize, k: usize) -> Result<(), String> {
        match *self {
            Placement::OneTokenPerNode if k > n => Err("OneTokenPerNode needs k <= n".into()),
            Placement::AllAtNode(u) if u >= n => Err("holder node out of range".into()),
            Placement::Clustered(m) if m < 1 || m > n => Err("bad cluster size".into()),
            _ => Ok(()),
        }
    }
}

/// The spec-text form: `one-token-per-node`, `round-robin`,
/// `all-at-node:<node>`, `clustered:<m>` — what `.camp` files say and
/// store keys record.
impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Placement::OneTokenPerNode => write!(f, "one-token-per-node"),
            Placement::RoundRobin => write!(f, "round-robin"),
            Placement::AllAtNode(node) => write!(f, "all-at-node:{node}"),
            Placement::Clustered(m) => write!(f, "clustered:{m}"),
        }
    }
}

/// Inverse of the `Display` form.
impl FromStr for Placement {
    type Err = String;

    fn from_str(s: &str) -> Result<Placement, String> {
        let number = |raw: &str| raw.parse().map_err(|_| format!("bad placement {s:?}"));
        match s.split_once(':') {
            None if s == "one-token-per-node" => Ok(Placement::OneTokenPerNode),
            None if s == "round-robin" => Ok(Placement::RoundRobin),
            Some(("all-at-node", node)) => number(node).map(Placement::AllAtNode),
            Some(("clustered", m)) => number(m).map(Placement::Clustered),
            _ => Err(format!("unknown placement {s:?}")),
        }
    }
}

/// A concrete problem instance: parameters, token values (sorted
/// ascending), and the initial holders of each token.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The public parameters.
    pub params: Params,
    /// Token values, strictly ascending in value order; index in this
    /// vector is the canonical token index used throughout the simulation.
    pub tokens: Vec<Gf2Vec>,
    /// `holders[i]`: the nodes initially holding token i.
    pub holders: Vec<Vec<usize>>,
}

/// Total order on GF(2) vectors by value (big-endian on bit index, so bit
/// 0 is the most significant — any fixed order works; this one is used
/// everywhere). Compared a packed word at a time: the first differing
/// coordinate is the lowest set bit of the words' XOR, and the masked
/// tail keeps unused bits out of it.
pub fn token_cmp(a: &Gf2Vec, b: &Gf2Vec) -> std::cmp::Ordering {
    debug_assert_eq!(a.len(), b.len());
    for (&x, &y) in a.words().iter().zip(b.words()) {
        let diff = x ^ y;
        if diff != 0 {
            return if x >> diff.trailing_zeros() & 1 == 1 {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Less
            };
        }
    }
    std::cmp::Ordering::Equal
}

impl Instance {
    /// Generates an instance with distinct random token values.
    ///
    /// # Panics
    /// Panics if the placement is inconsistent with the parameters
    /// (e.g. [`Placement::OneTokenPerNode`] with k > n).
    pub fn generate(params: Params, placement: Placement, seed: u64) -> Self {
        placement
            .fits(params.n, params.k)
            .unwrap_or_else(|why| panic!("{why}"));
        // Distinct random d-bit values, as a rejection loop draws them
        // (2^d ≥ 2k makes the expected number of retries < 2k): the first
        // k draws, sorted and deduplicated, then — only after a repeat —
        // further draws from the same stream, each kept if new, until k
        // are distinct. The kept set is the loop's; sorting fixes order.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tokens: Vec<Gf2Vec> = (0..params.k)
            .map(|_| Gf2Vec::random(params.d, &mut rng))
            .collect();
        tokens.sort_unstable_by(token_cmp);
        tokens.dedup();
        while tokens.len() < params.k {
            let t = Gf2Vec::random(params.d, &mut rng);
            if let Err(at) = tokens.binary_search_by(|x| token_cmp(x, &t)) {
                tokens.insert(at, t);
            }
        }

        let holders: Vec<Vec<usize>> = (0..params.k)
            .map(|i| match placement {
                Placement::OneTokenPerNode => vec![i],
                Placement::RoundRobin => vec![i % params.n],
                Placement::AllAtNode(u) => vec![u],
                Placement::Clustered(m) => vec![i % m],
            })
            .collect();

        Instance {
            params,
            tokens,
            holders,
        }
    }

    /// The tokens initially held by `node`, as sorted indices.
    pub fn initial_tokens_of(&self, node: usize) -> Vec<usize> {
        (0..self.params.k)
            .filter(|&i| self.holders[i].contains(&node))
            .collect()
    }

    /// Looks up a token's index by value.
    pub fn index_of(&self, value: &Gf2Vec) -> Option<usize> {
        self.tokens.binary_search_by(|t| token_cmp(t, value)).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validation() {
        let p = Params::new(16, 16, 8, 16);
        assert_eq!(p.uid_bits(), 4);
        assert_eq!(p.tokens_per_message(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds message size")]
    fn d_gt_b_rejected() {
        Params::new(8, 4, 16, 8);
    }

    #[test]
    #[should_panic(expected = "distinct token values")]
    fn too_small_token_space_rejected() {
        Params::new(8, 8, 3, 8);
    }

    #[test]
    fn check_is_new_without_the_panic() {
        assert_eq!(Params::check(16, 16, 8, 16), Ok(()));
        for (n, k, d, b, why) in [
            (0, 1, 8, 8, "at least one node"),
            (8, 0, 8, 8, "at least one token"),
            (8, 4, 16, 8, "exceeds message size"),
            (16, 4, 3, 3, "below log2(n)"),
            (8, 8, 3, 8, "distinct token values"),
            (8, usize::MAX, 8, 8, "distinct token values"),
        ] {
            let err = Params::check(n, k, d, b).unwrap_err();
            assert!(err.contains(why), "({n},{k},{d},{b}): {err}");
        }
        // Past 62 bits every k is distinguishable (and 2k may not fit).
        assert_eq!(Params::check(8, usize::MAX, 64, 64), Ok(()));
    }

    #[test]
    fn parse_placement_forms() {
        assert_eq!("all-at-node:3".parse(), Ok(Placement::AllAtNode(3)));
        assert_eq!("clustered:4".parse(), Ok(Placement::Clustered(4)));
        assert!("scattered".parse::<Placement>().is_err());
        assert!("clustered:x".parse::<Placement>().is_err());
        assert!("clustered".parse::<Placement>().is_err());
        for p in [
            Placement::OneTokenPerNode,
            Placement::RoundRobin,
            Placement::AllAtNode(7),
            Placement::Clustered(2),
        ] {
            assert_eq!(p.to_string().parse(), Ok(p));
        }
    }

    #[test]
    fn placements_fit_or_say_why() {
        assert_eq!(Placement::OneTokenPerNode.fits(8, 8), Ok(()));
        assert!(Placement::OneTokenPerNode.fits(8, 9).is_err());
        assert_eq!(Placement::RoundRobin.fits(3, 8), Ok(()));
        assert!(Placement::AllAtNode(8).fits(8, 1).is_err());
        assert!(Placement::Clustered(0).fits(8, 8).is_err());
        assert!(Placement::Clustered(9).fits(8, 8).is_err());
        assert_eq!(Placement::Clustered(8).fits(8, 8), Ok(()));
    }

    #[test]
    #[should_panic(expected = "holder node out of range")]
    fn generate_panics_on_a_placement_that_does_not_fit() {
        Instance::generate(Params::new(8, 8, 8, 16), Placement::AllAtNode(8), 1);
    }

    #[test]
    fn generated_tokens_are_distinct_and_sorted() {
        let p = Params::new(32, 32, 8, 16);
        let inst = Instance::generate(p, Placement::OneTokenPerNode, 7);
        assert_eq!(inst.tokens.len(), 32);
        for w in inst.tokens.windows(2) {
            assert_eq!(token_cmp(&w[0], &w[1]), std::cmp::Ordering::Less);
        }
        for (i, t) in inst.tokens.iter().enumerate() {
            assert_eq!(inst.index_of(t), Some(i));
        }
    }

    #[test]
    fn placements_place_as_documented() {
        let p = Params::new(8, 8, 8, 16);
        let one = Instance::generate(p, Placement::OneTokenPerNode, 1);
        for i in 0..8 {
            assert_eq!(one.holders[i], vec![i]);
            assert_eq!(one.initial_tokens_of(i), vec![i]);
        }
        let all = Instance::generate(p, Placement::AllAtNode(3), 1);
        assert!(all.holders.iter().all(|h| h == &vec![3]));
        assert_eq!(all.initial_tokens_of(3).len(), 8);
        assert!(all.initial_tokens_of(0).is_empty());
        let cl = Instance::generate(p, Placement::Clustered(2), 1);
        assert_eq!(cl.initial_tokens_of(0), vec![0, 2, 4, 6]);
        assert_eq!(cl.initial_tokens_of(1), vec![1, 3, 5, 7]);
        let rr = Instance::generate(Params::new(3, 8, 8, 16), Placement::RoundRobin, 1);
        assert_eq!(rr.initial_tokens_of(0), vec![0, 3, 6]);
    }

    /// The rejection loop `generate` reproduces: draw, keep a value not
    /// seen before (keyed on the packed words), until k are kept; sort.
    fn distinct_by_rejection(params: Params, seed: u64) -> Vec<Gf2Vec> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::with_capacity(params.k);
        let mut tokens = Vec::with_capacity(params.k);
        while tokens.len() < params.k {
            let t = Gf2Vec::random(params.d, &mut rng);
            if seen.insert(t.words().to_vec()) {
                tokens.push(t);
            }
        }
        tokens.sort_by(token_cmp);
        tokens
    }

    #[test]
    fn sorted_draws_equal_the_rejection_loop() {
        // d = 8, k = 128 draws half of a 256-value space: nearly every
        // seed repeats a value among its first k draws, so `generate`
        // keeps drawing there.
        let mut repeated = 0;
        for (n, k, d) in [(8, 8, 5), (64, 64, 16), (224, 224, 16), (128, 128, 8)] {
            let p = Params::new(n, k, d, 2 * d);
            for seed in 0..100 {
                let inst = Instance::generate(p, Placement::RoundRobin, seed);
                assert_eq!(
                    inst.tokens,
                    distinct_by_rejection(p, seed),
                    "{p:?} seed {seed}"
                );
                let mut rng = StdRng::seed_from_u64(seed);
                let draws: std::collections::HashSet<Gf2Vec> =
                    (0..k).map(|_| Gf2Vec::random(d, &mut rng)).collect();
                repeated += usize::from(draws.len() < k);
            }
        }
        assert!(repeated >= 150, "only {repeated} seeds repeated a draw");
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let p = Params::new(16, 16, 10, 16);
        let a = Instance::generate(p, Placement::OneTokenPerNode, 42);
        let b = Instance::generate(p, Placement::OneTokenPerNode, 42);
        assert_eq!(a.tokens, b.tokens);
        let c = Instance::generate(p, Placement::OneTokenPerNode, 43);
        assert_ne!(a.tokens, c.tokens);
    }
}
