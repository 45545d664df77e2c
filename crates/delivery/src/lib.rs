//! # dyncode-delivery
//!
//! Pluggable delivery semantics for the round-synchronous simulator: the
//! layer between *compose* (nodes speak, neighbor-blind) and *deliver*
//! (nodes hear their neighbors) that decides which broadcasts actually
//! arrive. Three models:
//!
//! * **`reliable`** — the classic KLO semantics and the default: every
//!   message reaches every current neighbor. The simulator keeps its
//!   legacy code path for this model, byte-identical to the pre-layer
//!   round loop.
//! * **`radio(p=…[,spont=…])`** — a radio/collision channel after
//!   Czumaj & Davies: a node with a message transmits with probability
//!   `p` each round; a receiver hears a message only when it is not
//!   itself on air and **exactly one** of its neighbors transmitted.
//!   With `spont > 0`, silent nodes also key up spontaneously with that
//!   probability — pure interference that can only cause collisions.
//! * **`lossy(eps=…)`** — i.i.d. per-edge-per-round erasure: each
//!   directed (receiver, sender) delivery is independently lost with
//!   probability `eps`.
//!
//! ## The private delivery RNG stream
//!
//! All delivery coins come from [`delivery_rng`], a stream derived from
//! the run seed but domain-separated from both the protocol's RNG and the
//! adversary's ([`DELIVERY_STREAM`]). Swapping delivery models therefore
//! never perturbs protocol or topology randomness — which is what keeps
//! `.dct` record→replay bit-exact under `radio`/`lossy`, and what makes
//! `lossy(eps=0)` produce the *identical* `RunResult` to `reliable`.
//!
//! ## Determinism contract
//!
//! [`DeliveryModel::plan_round`] draws coins in a fixed order that is a
//! pure function of `(round topology, who spoke)`: radio draws one coin
//! per node in ascending node order (message-holders draw the `p` coin,
//! silent nodes draw the `spont` coin only when `spont > 0`), lossy draws
//! one coin per *speaking* neighbor in receiver-major ascending order.
//! The round driver is the planner's one caller, whatever the state
//! layout behind it, so fast == reference stays bit-exact.
//!
//! Per-round accounting lands in `dyncode-obs` counters
//! `delivery.{sent,delivered,collided,dropped}` (directed pairs, so
//! `sent == delivered + collided + dropped` holds exactly) plus a
//! `delivery.collisions_per_round` histogram for radio runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dyncode_obs::metrics::{counter, histogram, Counter, Histogram};
use dyncode_obs::spec::{list, write_call, Call};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// Domain-separation constant for the delivery layer's private RNG
/// stream (an arbitrary odd 64-bit constant, distinct from the
/// adversary's `0x9E37_79B9_7F4A_7C15`).
pub const DELIVERY_STREAM: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// The delivery layer's private RNG for `seed` — the exact stream the
/// simulator hands to [`DeliveryModel::plan_round`], domain-separated
/// from the protocol's and the adversary's so delivery coins never
/// perturb either.
pub fn delivery_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ DELIVERY_STREAM)
}

/// A parsed delivery-model spec, in the registry style of
/// `ProtocolSpec`: [`DeliverySpec::parse`] ∘ [`DeliverySpec::name`] is
/// the identity on canonical strings.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum DeliverySpec {
    /// Every broadcast reaches every current neighbor (the default; the
    /// simulator's legacy code path, byte-identical to pre-layer runs).
    #[default]
    Reliable,
    /// Radio/collision channel: transmit with probability `p`, lose on
    /// simultaneous neighbors; silent nodes key up with probability
    /// `spont` (0 disables spontaneous transmissions).
    Radio {
        /// Per-round transmission probability for a node with a message.
        p: f64,
        /// Per-round spontaneous-transmission probability for a silent
        /// node (interference only; delivers nothing).
        spont: f64,
    },
    /// I.i.d. per-edge-per-round erasure with probability `eps`.
    Lossy {
        /// Per-delivery erasure probability.
        eps: f64,
    },
}

/// The delivery-model registry rows: `(grammar, description)`, for the
/// CLI registry listings alongside protocols and adversaries — and the
/// "valid: …" text of an unknown-model error.
pub fn registry() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "reliable",
            "every broadcast reaches every current neighbor (default)",
        ),
        (
            "radio(p=..[,spont=..])",
            "transmit w.p. p; heard only when exactly one neighbor is on air",
        ),
        (
            "lossy(eps=..)",
            "each directed delivery independently erased w.p. eps",
        ),
    ]
}

impl DeliverySpec {
    /// Parses a delivery-model spec string (the workspace grammar,
    /// [`dyncode_obs::spec`]). Unknown model names enumerate the
    /// registry, matching the campaign parser's error style.
    pub fn parse(s: &str) -> Result<DeliverySpec, String> {
        let mut call = Call::parse(s)?;
        let (spec, valid) = match call.head {
            "reliable" => (DeliverySpec::Reliable, "no arguments"),
            "radio" => {
                let p: f64 = call.named("p")?.ok_or_else(|| call.missing("p"))?;
                let spont = call.named("spont")?.unwrap_or(0.0);
                if !(p > 0.0 && p <= 1.0) {
                    return Err(format!("radio: p must be in (0, 1], got {p}"));
                }
                if !(0.0..1.0).contains(&spont) {
                    return Err(format!("radio: spont must be in [0, 1), got {spont}"));
                }
                (DeliverySpec::Radio { p, spont }, "p, spont")
            }
            "lossy" => {
                let eps: f64 = call.named("eps")?.ok_or_else(|| call.missing("eps"))?;
                if !(0.0..1.0).contains(&eps) {
                    return Err(format!("lossy: eps must be in [0, 1), got {eps}"));
                }
                (DeliverySpec::Lossy { eps }, "eps")
            }
            other => {
                return Err(format!(
                    "unknown delivery model {other:?} (valid: {})",
                    list(registry().iter().map(|row| row.0))
                ))
            }
        };
        call.finish(valid)?;
        Ok(spec)
    }

    /// The canonical spec string ([`DeliverySpec::parse`] inverts it).
    /// `spont = 0` is elided, so the canonical form is minimal.
    pub fn name(&self) -> String {
        self.to_string()
    }

    /// Is this the default (`reliable`) model? Default cells elide the
    /// delivery spec from campaign labels, artifact meta, and store keys,
    /// which is what keeps pre-layer baselines and caches byte-valid.
    pub fn is_default(&self) -> bool {
        matches!(self, DeliverySpec::Reliable)
    }

    /// Builds the round planner for a run, or `None` for `reliable`
    /// (callers take the legacy delivery path, which draws no coins).
    pub fn model(&self, seed: u64) -> Option<DeliveryModel> {
        if self.is_default() {
            return None;
        }
        Some(DeliveryModel::new(self.clone(), seed))
    }
}

impl fmt::Display for DeliverySpec {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliverySpec::Reliable => write_call(fm, "reliable", &[]),
            DeliverySpec::Radio { p, spont } if *spont == 0.0 => {
                write_call(fm, "radio", &[("p", p)])
            }
            DeliverySpec::Radio { p, spont } => {
                write_call(fm, "radio", &[("p", p), ("spont", spont)])
            }
            DeliverySpec::Lossy { eps } => write_call(fm, "lossy", &[("eps", eps)]),
        }
    }
}

/// Read access to one round's committed topology: visit `u`'s neighbors
/// in ascending order (the determinism contract hinges on that order).
/// Implemented by `dyncode-dynet`'s `CsrTopology`, the round driver's
/// snapshot of the committed graph.
pub trait NeighborView {
    /// Calls `visit` for each neighbor of `u`, ascending.
    fn for_each_neighbor(&self, u: usize, visit: &mut dyn FnMut(usize));
}

/// Per-run delivery totals over directed `(receiver, sender)` pairs.
/// `sent == delivered + collided + dropped` holds exactly: every pair
/// whose sender composed a message lands in exactly one bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Pairs whose sender composed a message this round.
    pub sent: u64,
    /// Pairs actually heard.
    pub delivered: u64,
    /// Pairs lost to collision or the receiver's own transmission
    /// (radio only).
    pub collided: u64,
    /// Pairs suppressed before the air: the sender's `p` coin failed
    /// (radio) or the edge erased (lossy).
    pub dropped: u64,
}

/// The per-run round planner for a non-`reliable` [`DeliverySpec`]: owns
/// the private delivery RNG and, each round, turns (who spoke, the
/// committed topology) into the delivered-sender list per receiver.
pub struct DeliveryModel {
    spec: DeliverySpec,
    rng: StdRng,
    /// Radio scratch: node is on air at all (message or noise).
    on_air: Vec<bool>,
    /// Radio scratch: node is on air with a message.
    with_msg: Vec<bool>,
    /// `offsets[u]..offsets[u+1]` indexes `senders` with the neighbors
    /// receiver `u` hears this round, ascending.
    offsets: Vec<u32>,
    senders: Vec<u32>,
    stats: DeliveryStats,
    c_sent: &'static Counter,
    c_delivered: &'static Counter,
    c_collided: &'static Counter,
    c_dropped: &'static Counter,
    h_collisions: &'static Histogram,
}

impl DeliveryModel {
    /// A planner for `spec` drawing from [`delivery_rng`]`(seed)`.
    ///
    /// # Panics
    /// Panics on `reliable` — the default model has no planner; callers
    /// go through [`DeliverySpec::model`].
    pub fn new(spec: DeliverySpec, seed: u64) -> DeliveryModel {
        assert!(
            !spec.is_default(),
            "reliable delivery has no planner (legacy path)"
        );
        DeliveryModel {
            spec,
            rng: delivery_rng(seed),
            on_air: Vec::new(),
            with_msg: Vec::new(),
            offsets: vec![0],
            senders: Vec::new(),
            stats: DeliveryStats::default(),
            c_sent: counter("delivery.sent"),
            c_delivered: counter("delivery.delivered"),
            c_collided: counter("delivery.collided"),
            c_dropped: counter("delivery.dropped"),
            h_collisions: histogram("delivery.collisions_per_round"),
        }
    }

    /// The spec this planner runs.
    pub fn spec(&self) -> &DeliverySpec {
        &self.spec
    }

    /// Plans one round: `speaks[u]` says whether node `u` composed a
    /// message, `topo` is the adversary's committed topology. Coins are
    /// drawn in the fixed order documented at the crate root; afterwards
    /// [`DeliveryModel::hears`] gives each receiver's delivered senders.
    pub fn plan_round<T: NeighborView + ?Sized>(&mut self, speaks: &[bool], topo: &T) {
        let n = speaks.len();
        self.offsets.clear();
        self.offsets.push(0);
        self.senders.clear();
        let mut round = DeliveryStats::default();
        match self.spec {
            DeliverySpec::Reliable => unreachable!("no planner for reliable"),
            DeliverySpec::Radio { p, spont } => {
                self.on_air.clear();
                self.on_air.resize(n, false);
                self.with_msg.clear();
                self.with_msg.resize(n, false);
                // One coin per node, ascending: the p coin for speakers,
                // the spont coin for silent nodes (skipped at spont = 0).
                for (u, &speaking) in speaks.iter().enumerate() {
                    if speaking {
                        let t = self.rng.random_bool(p);
                        self.with_msg[u] = t;
                        self.on_air[u] = t;
                    } else if spont > 0.0 {
                        self.on_air[u] = self.rng.random_bool(spont);
                    }
                }
                for u in 0..n {
                    let (mut active, mut msgs, mut only) = (0u32, 0u64, 0usize);
                    topo.for_each_neighbor(u, &mut |v| {
                        if speaks[v] {
                            round.sent += 1;
                            if !self.with_msg[v] {
                                round.dropped += 1;
                            }
                        }
                        if self.on_air[v] {
                            active += 1;
                            if self.with_msg[v] {
                                msgs += 1;
                                only = v;
                            }
                        }
                    });
                    // Half-duplex: a node on air hears nothing; otherwise
                    // exactly one active neighbor (carrying a message, not
                    // noise) gets through.
                    if !self.on_air[u] && active == 1 && msgs == 1 {
                        self.senders.push(only as u32);
                        round.delivered += 1;
                    } else {
                        round.collided += msgs;
                    }
                    self.offsets.push(self.senders.len() as u32);
                }
                self.h_collisions.record(round.collided);
            }
            DeliverySpec::Lossy { eps } => {
                // One coin per speaking neighbor, receiver-major
                // ascending.
                for u in 0..n {
                    topo.for_each_neighbor(u, &mut |v| {
                        if speaks[v] {
                            round.sent += 1;
                            if self.rng.random_bool(eps) {
                                round.dropped += 1;
                            } else {
                                self.senders.push(v as u32);
                                round.delivered += 1;
                            }
                        }
                    });
                    self.offsets.push(self.senders.len() as u32);
                }
            }
        }
        self.stats.sent += round.sent;
        self.stats.delivered += round.delivered;
        self.stats.collided += round.collided;
        self.stats.dropped += round.dropped;
        self.c_sent.add(round.sent);
        self.c_delivered.add(round.delivered);
        self.c_collided.add(round.collided);
        self.c_dropped.add(round.dropped);
    }

    /// The senders receiver `u` hears this round, ascending.
    pub fn hears(&self, u: usize) -> &[u32] {
        &self.senders[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// The plan's receiver-major offsets (CSR row bounds), for building
    /// a masked topology snapshot in the round driver.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The plan's flattened delivered-sender list (CSR targets).
    pub fn senders(&self) -> &[u32] {
        &self.senders
    }

    /// Cumulative per-run totals (the same numbers the
    /// `delivery.{sent,delivered,collided,dropped}` counters receive).
    pub fn stats(&self) -> DeliveryStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adjacency-list topology for tests.
    struct Adj(Vec<Vec<usize>>);
    impl NeighborView for Adj {
        fn for_each_neighbor(&self, u: usize, visit: &mut dyn FnMut(usize)) {
            for &v in &self.0[u] {
                visit(v);
            }
        }
    }

    fn star() -> Adj {
        // 0 is the hub of a 4-leaf star.
        Adj(vec![vec![1, 2, 3, 4], vec![0], vec![0], vec![0], vec![0]])
    }

    #[test]
    fn parse_canonical_round_trips() {
        for s in [
            "reliable",
            "radio(p=0.5)",
            "radio(p=1,spont=0.25)",
            "lossy(eps=0.1)",
        ] {
            let spec = DeliverySpec::parse(s).unwrap();
            assert_eq!(spec.name(), s);
            assert_eq!(DeliverySpec::parse(&spec.name()).unwrap(), spec);
        }
        // spont = 0 is elided from the canonical form.
        assert_eq!(
            DeliverySpec::parse("radio(p=0.5,spont=0)").unwrap().name(),
            "radio(p=0.5)"
        );
    }

    #[test]
    fn parse_rejects_bad_specs_with_registry_errors() {
        let err = DeliverySpec::parse("carrier-pigeon").unwrap_err();
        assert!(err.contains("unknown delivery model"), "{err}");
        for (grammar, _) in registry() {
            assert!(err.contains(grammar), "{err} must list {grammar}");
        }
        assert!(DeliverySpec::parse("radio(p=0)").is_err());
        assert!(DeliverySpec::parse("radio(p=1.5)").is_err());
        assert!(
            DeliverySpec::parse("radio(spont=0.1)").is_err(),
            "p required"
        );
        assert!(DeliverySpec::parse("radio(p=0.5,q=1)").is_err());
        assert!(DeliverySpec::parse("lossy(eps=1)").is_err());
        assert!(DeliverySpec::parse("lossy(eps=nope)").is_err());
        assert!(DeliverySpec::parse("lossy(0.1)").is_err(), "named only");
    }

    /// The shared grammar's rules, seen from this axis: `Ok(canonical)`
    /// or `Err` naming the offending piece.
    #[test]
    fn grammar_rules_hold_on_the_delivery_axis() {
        for (input, want) in [
            ("reliable()", Ok("reliable")),
            (" reliable ( ) ", Ok("reliable")),
            ("radio (p=0.5)", Ok("radio(p=0.5)")),
            (
                "radio( p = 0.5 , spont = 0.1 )",
                Ok("radio(p=0.5,spont=0.1)"),
            ),
            ("lossy(eps=-0.0)", Ok("lossy(eps=0)")),
            ("radio(p=0.5,spont=-0.0)", Ok("radio(p=0.5)")),
            ("radio(p=0.5,p=0.7)", Err("duplicate key \"p\"")),
            ("radio(p=0.5,)", Err("empty argument")),
            ("radio(p=0.5,,spont=0.1)", Err("empty argument")),
            ("radio(,)", Err("empty argument")),
            ("radio(p=0.5) x", Err("closing paren")),
            ("radio(p=0.5", Err("closing paren")),
            ("reliable(1)", Err("unexpected reliable argument")),
            ("radio(p=nan)", Err("bad p")),
            ("radio(p=inf)", Err("bad p")),
            ("radio(p=0.5,spont=NaN)", Err("bad spont")),
            ("lossy(eps=nan)", Err("bad eps")),
            ("lossy(eps=-inf)", Err("bad eps")),
        ] {
            let got = DeliverySpec::parse(input).map(|s| s.name());
            match (got, want) {
                (Ok(name), Ok(canonical)) => assert_eq!(name, canonical, "{input:?}"),
                (Err(e), Err(part)) => assert!(e.contains(part), "{input:?}: {e}"),
                (got, want) => panic!("{input:?}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn reliable_has_no_planner() {
        assert!(DeliverySpec::Reliable.model(7).is_none());
        assert!(DeliverySpec::parse("lossy(eps=0.5)")
            .unwrap()
            .model(7)
            .is_some());
    }

    #[test]
    fn lossy_eps_zero_delivers_everything() {
        let mut m = DeliverySpec::Lossy { eps: 0.0 }.model(1).unwrap();
        let speaks = [true, true, false, true, false];
        m.plan_round(&speaks, &star());
        assert_eq!(m.hears(0), &[1, 3]);
        assert_eq!(m.hears(1), &[0]);
        assert_eq!(m.hears(2), &[0]);
        let s = m.stats();
        assert_eq!(s.sent, s.delivered);
        assert_eq!((s.collided, s.dropped), (0, 0));
    }

    #[test]
    fn radio_p_one_collides_at_the_hub() {
        // Everyone with a message transmits deterministically (p = 1):
        // the hub sees two simultaneous leaves (collision), speaking
        // leaves are themselves on air (half-duplex), but the two silent
        // leaves hear the hub cleanly.
        let mut m = DeliverySpec::Radio { p: 1.0, spont: 0.0 }.model(1).unwrap();
        let speaks = [true, true, true, false, false];
        m.plan_round(&speaks, &star());
        for u in 0..3 {
            assert_eq!(m.hears(u), &[] as &[u32], "receiver {u}");
        }
        assert_eq!(m.hears(3), &[0]);
        assert_eq!(m.hears(4), &[0]);
        let s = m.stats();
        // Pairs: hub sees {1,2}, leaves 1..4 each see the hub → 6 sent.
        assert_eq!(s.sent, 6);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.collided, 4);
    }

    #[test]
    fn radio_single_speaker_at_p_one_is_heard_by_all() {
        let mut m = DeliverySpec::Radio { p: 1.0, spont: 0.0 }.model(1).unwrap();
        let speaks = [true, false, false, false, false];
        m.plan_round(&speaks, &star());
        for u in 1..5 {
            assert_eq!(m.hears(u), &[0], "leaf {u}");
        }
        assert_eq!(m.hears(0), &[] as &[u32]);
        assert_eq!(m.stats().delivered, 4);
        assert_eq!(m.stats().sent, 4);
    }

    #[test]
    fn accounting_partitions_sent_pairs() {
        // Random speakers over a random-ish dense topology: the invariant
        // sent == delivered + collided + dropped must hold exactly.
        let n = 17;
        let mut adj = vec![Vec::new(); n];
        for (u, row) in adj.iter_mut().enumerate() {
            for v in 0..n {
                if u != v && (u + v) % 3 != 0 {
                    row.push(v);
                }
            }
        }
        let topo = Adj(adj);
        for spec in [
            DeliverySpec::Radio { p: 0.6, spont: 0.2 },
            DeliverySpec::Lossy { eps: 0.3 },
        ] {
            let mut m = spec.model(42).unwrap();
            for round in 0..50 {
                let speaks: Vec<bool> = (0..n).map(|u| (u * 7 + round) % 3 != 1).collect();
                m.plan_round(&speaks, &topo);
            }
            let s = m.stats();
            assert_eq!(
                s.sent,
                s.delivered + s.collided + s.dropped,
                "{spec}: {s:?}"
            );
            assert!(s.sent > 0);
        }
    }

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let spec = DeliverySpec::Radio { p: 0.5, spont: 0.1 };
        let run = || {
            let mut m = spec.model(9).unwrap();
            let mut all = Vec::new();
            for round in 0..20 {
                let speaks: Vec<bool> = (0..5).map(|u| (u + round) % 2 == 0).collect();
                m.plan_round(&speaks, &star());
                all.push(m.senders().to_vec());
            }
            all
        };
        assert_eq!(run(), run());
    }
}
