//! The first-class protocol registry: every algorithm the crate
//! implements as *data* — a parseable, `Display`-round-trippable
//! [`ProtocolSpec`] string plus a factory that builds the concrete
//! protocol as a [`PerNode`] cell — erased once, at the cell, with its
//! messages kept typed.
//!
//! The paper's central claims are comparisons *between* protocols
//! (Theorems 2.1/2.3/7.3/7.5), so the protocol axis deserves the same
//! treatment PR 3 gave workloads: campaign specs name protocols the way
//! they name scenarios (`protocol = greedy-forward, field-broadcast(gf256)`),
//! and the engine sweeps the full cross product.
//!
//! # Specs
//!
//! A spec is `name` or `name(args)` under the workspace grammar
//! ([`dyncode_obs::spec`]); this module holds the protocol axis's table —
//! which names exist and which arguments each reads:
//!
//! ```text
//! token-forwarding                      Thm 2.1 baseline schedule
//! pipelined-forwarding                  pipelined at the cell's T
//! pipelined-forwarding(8)               pipelined at an explicit T
//! greedy-forward                        Thm 7.3, default phase constants
//! greedy-forward(gather=2,bcast=3)      configured gather/broadcast mults
//! priority-forward                      Thm 7.5, default phase constants
//! priority-forward(warmup=3,bcast=4)    configured warmup/broadcast mults
//! random-forward                        Lem 7.2 gathering, auto (2n) rounds
//! random-forward(rounds=96)             explicit forwarding rounds
//! naive-coded                           Cor 7.1 flooded-ID indexing
//! indexed-broadcast                     Lem 5.3 packed-GF(2) RLNC
//! field-broadcast(gf256)                Lem 5.3 over an arbitrary field
//! field-broadcast(m61,det=7)            Cor 6.2 deterministic advice mode
//! centralized                           Cor 2.6 header-free coding
//! patch-indexed                         §8 T-stable patch dissemination
//! quorum-watermark(f=1)                 consensus gossip to max_round⁺ = 8
//! quorum-watermark(f=2,rounds=16)       explicit watermark target
//! quorum-decide(f=1,q=4)                4f+1 quorum prevotes round q
//! ```
//!
//! [`ProtocolSpec::parse`] and the `Display` impl are mutually inverse on
//! values: `parse(spec.to_string()) == spec` for every valid spec
//! (property-tested in `tests/protocol_registry.rs`).

use crate::params::Instance;
use crate::protocols::{
    Centralized, FieldBroadcast, GreedyConfig, GreedyForward, IndexedBroadcast, NaiveCoded,
    PriorityConfig, PriorityForward, RandomForward, TokenForwarding,
};
use crate::term::{TerminationPredicate, QUORUM_DECISION, TOKEN_COMPLETION};
use dyncode_dynet::simulator::{ErasedProtocol, PerNode, Protocol};
use dyncode_gf::{Gf2, Gf256, Gf257, Mersenne61};
use dyncode_obs::spec::{list, value, write_call, Call};
use dyncode_quorum::{QuorumConfig, QuorumGoal, QuorumProtocol, DEFAULT_WATERMARK_ROUNDS};
use std::fmt;

/// The coding field of a [`ProtocolSpec::FieldBroadcast`] cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldKind {
    /// GF(2) — the paper's default ("replace linear combinations by XORs").
    Gf2,
    /// GF(256) — the classic byte field of practical RLNC.
    Gf256,
    /// GF(257) — the smallest prime field wider than a byte.
    Gf257,
    /// GF(2⁶¹ − 1) — the large-field regime of Section 6.
    Mersenne61,
}

impl FieldKind {
    /// The spec name of this field.
    pub fn name(&self) -> &'static str {
        match self {
            FieldKind::Gf2 => "gf2",
            FieldKind::Gf256 => "gf256",
            FieldKind::Gf257 => "gf257",
            FieldKind::Mersenne61 => "m61",
        }
    }

    /// Parses a spec field name.
    pub fn parse(s: &str) -> Result<FieldKind, String> {
        match s {
            "gf2" => Ok(FieldKind::Gf2),
            "gf256" => Ok(FieldKind::Gf256),
            "gf257" => Ok(FieldKind::Gf257),
            "m61" => Ok(FieldKind::Mersenne61),
            other => Err(format!(
                "unknown field {other:?}; valid fields: gf2, gf256, gf257, m61"
            )),
        }
    }
}

/// A protocol as data: which algorithm a cell runs, with its configured
/// parameters. See the [module docs](self) for the spec grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// `token-forwarding` — the Theorem 2.1 baseline schedule.
    TokenForwarding,
    /// `pipelined-forwarding[(T)]` — the T-stable pipelined schedule;
    /// without an explicit T the cell's stability interval is used.
    PipelinedForwarding {
        /// Explicit pipelining interval; `None` adopts the cell's T.
        t: Option<usize>,
    },
    /// `greedy-forward[(gather=G,bcast=B)]` — Theorem 7.3 gather-then-code.
    GreedyForward {
        /// Phase-length constants (gather/broadcast multipliers).
        cfg: GreedyConfig,
    },
    /// `priority-forward[(warmup=W,bcast=B)]` — Theorem 7.5 random block
    /// priorities.
    PriorityForward {
        /// Phase-length constants (warmup/broadcast multipliers).
        cfg: PriorityConfig,
    },
    /// `random-forward[(rounds=auto|R)]` — the Lemma 7.2 gathering
    /// primitive (it gathers and identifies; it does not disseminate, so
    /// campaign cells running it report `completed = false` at the cap).
    RandomForward {
        /// Forwarding-phase rounds; `None` = auto = 2n.
        rounds: Option<usize>,
    },
    /// `naive-coded` — Corollary 7.1 flooded-ID indexing + coding.
    NaiveCoded,
    /// `indexed-broadcast` — Lemma 5.3 over packed GF(2).
    IndexedBroadcast,
    /// `field-broadcast(FIELD[,det=S])` — Lemma 5.3 over an arbitrary
    /// field; `det=S` switches to the Corollary 6.2 deterministic advice
    /// schedule seeded by S.
    FieldBroadcast {
        /// The coding field.
        field: FieldKind,
        /// Advice-schedule seed for deterministic mode; `None` = randomized.
        det: Option<u64>,
    },
    /// `centralized` — Corollary 2.6 header-free coding.
    Centralized,
    /// `patch-indexed` — the §8.3 T-stable patch dissemination. A
    /// charged-rounds model rather than a per-message simulation: it runs
    /// through [`crate::runner::run_spec`], not [`ProtocolSpec::build`].
    PatchIndexed,
    /// `quorum-watermark(f=F[,rounds=R])` — latest-round-per-peer
    /// consensus gossip; a node terminates when its monotone `max_round⁺`
    /// (the f+1 watermark over `max_rounds`) reaches `R`.
    QuorumWatermark {
        /// Fault bound; requires `n ≥ 5f+1` at build time.
        f: usize,
        /// Target round for `max_round⁺` (default 8, collapsed by
        /// `Display`).
        rounds: usize,
    },
    /// `quorum-decide(f=F,q=Q)` — as above, but a node terminates when
    /// `max_round` (the 4f+1 quorum watermark) reaches the decision
    /// round `Q`: a full quorum is known to have prevoted round Q.
    QuorumDecide {
        /// Fault bound; requires `n ≥ 5f+1` at build time.
        f: usize,
        /// Decision round the 4f+1 watermark must reach.
        q: usize,
    },
}

/// One registry row: spec grammar, defaults, and the headline claim —
/// what `experiments protocols` prints and error messages enumerate.
#[derive(Clone, Copy, Debug)]
pub struct SpecInfo {
    /// The full grammar with optional parameters; it starts with the
    /// bare spec name.
    pub grammar: &'static str,
    /// Parameter meanings and defaults.
    pub params: &'static str,
    /// The algorithm and its paper result.
    pub summary: &'static str,
    /// The termination predicate's registry label (see [`crate::term`]) —
    /// what "completed" verifies for this family.
    pub termination: &'static str,
}

/// The registry: every protocol the crate implements, in display order.
pub fn registry() -> &'static [SpecInfo] {
    const TOKENS: &str = "all-tokens-decoded";
    &[
        SpecInfo {
            grammar: "token-forwarding",
            params: "none",
            summary: "KLO batched smallest-first flooding (Thm 2.1 baseline)",
            termination: TOKENS,
        },
        SpecInfo {
            grammar: "pipelined-forwarding[(T)]",
            params: "T = pipelining interval (default: the cell's T)",
            summary: "T-stable pipelined forwarding schedule (Thm 2.1)",
            termination: TOKENS,
        },
        SpecInfo {
            grammar: "greedy-forward[(gather=G,bcast=B)]",
            params: "G = gather phase mult of n (default 1), B = broadcast mult (default 2)",
            summary: "gather-then-code, O(nkd/b² + nb) (Thm 7.3)",
            termination: TOKENS,
        },
        SpecInfo {
            grammar: "priority-forward[(warmup=W,bcast=B)]",
            params: "W = warmup mult of n (default 2), B = broadcast mult (default 3)",
            summary: "random block priorities, O(log n/b · nkd/b + n log n) (Thm 7.5)",
            termination: TOKENS,
        },
        SpecInfo {
            grammar: "random-forward[(rounds=auto|R)]",
            params: "R = forwarding rounds (default auto = 2n)",
            summary: "the gathering primitive; reaches √(bk/d) tokens (Lem 7.2)",
            termination: TOKENS,
        },
        SpecInfo {
            grammar: "naive-coded",
            params: "none",
            summary: "flooded-ID indexing + coding, O(nk·log n/b) (Cor 7.1)",
            termination: TOKENS,
        },
        SpecInfo {
            grammar: "indexed-broadcast",
            params: "none",
            summary: "packed-GF(2) RLNC k-indexed broadcast, O(n + k) (Lem 5.3)",
            termination: TOKENS,
        },
        SpecInfo {
            grammar: "field-broadcast(gf2|gf256|gf257|m61[,det=S])",
            params: "field = coding field; det=S = deterministic advice seed (Cor 6.2)",
            summary: "indexed broadcast over any field; header k·lg q (Lem 5.3, q ≥ 2)",
            termination: TOKENS,
        },
        SpecInfo {
            grammar: "centralized",
            params: "none",
            summary: "header-free coding under central control, Θ(n) (Cor 2.6)",
            termination: TOKENS,
        },
        SpecInfo {
            grammar: "patch-indexed",
            params: "none (uses the cell's T and b; charged-rounds model)",
            summary: "T-stable share-pass-share patch dissemination (§8.3, Thm 2.4)",
            termination: TOKENS,
        },
        SpecInfo {
            grammar: "quorum-watermark(f=F[,rounds=R])",
            params: "F = fault bound (needs n ≥ 5f+1); R = max_round⁺ target (default 8)",
            summary: "latest-round-per-peer gossip to the f+1 watermark (FaB sketch)",
            termination: "quorum-threshold",
        },
        SpecInfo {
            grammar: "quorum-decide(f=F,q=Q)",
            params: "F = fault bound (needs n ≥ 5f+1); Q = decision round (4f+1 quorum)",
            summary: "consensus gossip: decide when a 4f+1 quorum prevotes round ≥ Q",
            termination: "quorum-threshold",
        },
    ]
}

/// Rejects an explicit zero: every count a spec names is ≥ 1.
fn at_least_one(v: Option<usize>, what: &str, src: &str) -> Result<Option<usize>, String> {
    match v {
        Some(0) => Err(format!("{what} must be ≥ 1 in {src:?}")),
        v => Ok(v),
    }
}

/// Reads the optional `key=V` argument, V ≥ 1.
fn count(call: &mut Call<'_>, key: &str) -> Result<Option<usize>, String> {
    at_least_one(call.named(key)?, key, call.src)
}

/// [`count`] for the four per-n phase multipliers, which accept an `n`
/// suffix as sugar (`gather=2n` ≡ `gather=2`: they are "per n" already).
fn per_n(call: &mut Call<'_>, key: &str) -> Result<Option<usize>, String> {
    let digits = call
        .raw(key)
        .map(|raw| raw.strip_suffix('n').unwrap_or(raw).trim_end());
    let v = digits.map(|d| value(d, key, call.src)).transpose()?;
    at_least_one(v, key, call.src)
}

impl ProtocolSpec {
    /// The canonical spec string (parses back via [`ProtocolSpec::parse`]
    /// to an equal value). Configured variants print every parameter;
    /// default-configured variants print the bare name.
    pub fn name(&self) -> String {
        self.to_string()
    }

    /// Parses a protocol spec; see the [module docs](self) for the
    /// forms. Unknown names enumerate the registry.
    pub fn parse(s: &str) -> Result<ProtocolSpec, String> {
        const NONE: &str = "no arguments";
        let mut call = Call::parse(s)?;
        let (head, src) = (call.head, call.src);
        let (spec, valid) = match head {
            "token-forwarding" => (ProtocolSpec::TokenForwarding, NONE),
            "naive-coded" => (ProtocolSpec::NaiveCoded, NONE),
            "indexed-broadcast" => (ProtocolSpec::IndexedBroadcast, NONE),
            "centralized" => (ProtocolSpec::Centralized, NONE),
            "patch-indexed" => (ProtocolSpec::PatchIndexed, NONE),
            "pipelined-forwarding" => {
                let t = at_least_one(call.next("T")?, "T", src)?;
                (ProtocolSpec::PipelinedForwarding { t }, "T")
            }
            "greedy-forward" => {
                let default = GreedyConfig::default();
                let cfg = GreedyConfig {
                    gather_mult: per_n(&mut call, "gather")?.unwrap_or(default.gather_mult),
                    broadcast_mult: per_n(&mut call, "bcast")?.unwrap_or(default.broadcast_mult),
                };
                (ProtocolSpec::GreedyForward { cfg }, "gather, bcast")
            }
            "priority-forward" => {
                let default = PriorityConfig::default();
                let cfg = PriorityConfig {
                    warmup_mult: per_n(&mut call, "warmup")?.unwrap_or(default.warmup_mult),
                    broadcast_mult: per_n(&mut call, "bcast")?.unwrap_or(default.broadcast_mult),
                };
                (ProtocolSpec::PriorityForward { cfg }, "warmup, bcast")
            }
            "random-forward" => {
                let rounds = match call.raw("rounds") {
                    None | Some("auto") => None,
                    Some(raw) => at_least_one(Some(value(raw, "rounds", src)?), "rounds", src)?,
                };
                (ProtocolSpec::RandomForward { rounds }, "rounds=auto|R")
            }
            "field-broadcast" => {
                let field = call.next_raw().ok_or_else(|| {
                    format!(
                        "field-broadcast needs a field argument (gf2|gf256|gf257|m61), got {src:?}"
                    )
                })?;
                let field = FieldKind::parse(field)?;
                let det = call.named("det")?;
                (ProtocolSpec::FieldBroadcast { field, det }, "FIELD, det")
            }
            "quorum-watermark" => {
                let f = count(&mut call, "f")?.ok_or_else(|| {
                    format!("{head} needs its fault bound (e.g. {head}(f=1)), got {src:?}")
                })?;
                let rounds = count(&mut call, "rounds")?.unwrap_or(DEFAULT_WATERMARK_ROUNDS);
                (ProtocolSpec::QuorumWatermark { f, rounds }, "f, rounds")
            }
            "quorum-decide" => match (count(&mut call, "f")?, count(&mut call, "q")?) {
                (Some(f), Some(q)) => (ProtocolSpec::QuorumDecide { f, q }, "f, q"),
                _ => {
                    return Err(format!(
                        "{head} needs both its fault bound and decision round \
                         (e.g. {head}(f=1,q=4)), got {src:?}"
                    ))
                }
            },
            other => {
                return Err(format!(
                    "unknown protocol {other:?}; valid protocols: {}",
                    list(registry().iter().map(|info| info.grammar))
                ))
            }
        };
        call.finish(valid)?;
        Ok(spec)
    }

    /// Does this spec run on the round-synchronous simulator? The one
    /// exception is `patch-indexed`, whose §8 charged-rounds model is
    /// driven per stability window (see [`crate::runner::run_spec`]).
    pub fn is_simulated(&self) -> bool {
        !matches!(self, ProtocolSpec::PatchIndexed)
    }

    /// The quorum configuration of a quorum-family spec; `None` for every
    /// dissemination family.
    pub fn quorum_config(&self) -> Option<QuorumConfig> {
        match self {
            ProtocolSpec::QuorumWatermark { f, rounds } => Some(QuorumConfig {
                f: *f,
                goal: QuorumGoal::Watermark {
                    rounds: *rounds as u32,
                },
            }),
            ProtocolSpec::QuorumDecide { f, q } => Some(QuorumConfig {
                f: *f,
                goal: QuorumGoal::Decide { q: *q as u32 },
            }),
            _ => None,
        }
    }

    /// Instance-size validation a parse alone cannot do: the quorum
    /// families require `n ≥ 5f+1` (quorum intersection). Dissemination
    /// families accept any `n`. Campaign builders call this per
    /// (protocol, n) grid point so misconfigured sweeps fail at parse
    /// time, not inside a worker.
    pub fn validate_for_n(&self, n: usize) -> Result<(), String> {
        match self.quorum_config() {
            Some(cfg) => cfg.validate_for(n),
            None => Ok(()),
        }
    }

    /// The termination predicate "completed" verifies for this family:
    /// token completion for every dissemination family, the quorum
    /// threshold for the quorum families.
    pub fn termination(&self) -> &'static dyn TerminationPredicate {
        match self {
            ProtocolSpec::QuorumWatermark { .. } | ProtocolSpec::QuorumDecide { .. } => {
                &QUORUM_DECISION
            }
            _ => &TOKEN_COMPLETION,
        }
    }

    /// Builds the protocol over `inst` as its per-node cell: the concrete
    /// state machine behind [`PerNode`], the reference layout every
    /// `core::runner` path without an arena cell drives. `t` is the
    /// cell's stability interval, adopted by `pipelined-forwarding` when
    /// the spec names no explicit T.
    ///
    /// # Panics
    /// Panics for `patch-indexed` (not a simulator protocol — route runs
    /// through [`crate::runner::run_spec`], which handles it).
    pub fn build(&self, inst: &Instance, t: usize) -> Box<dyn ErasedProtocol> {
        fn cell<P: Protocol + 'static>(p: P) -> Box<dyn ErasedProtocol> {
            Box::new(PerNode::new(p))
        }
        match self {
            ProtocolSpec::TokenForwarding => cell(TokenForwarding::baseline(inst)),
            ProtocolSpec::PipelinedForwarding { t: spec_t } => {
                // `pipelined` returns the baseline schedule below T = 4.
                cell(TokenForwarding::pipelined(inst, spec_t.unwrap_or(t).max(1)))
            }
            ProtocolSpec::GreedyForward { cfg } => cell(GreedyForward::with_config(inst, *cfg)),
            ProtocolSpec::PriorityForward { cfg } => cell(PriorityForward::with_config(inst, *cfg)),
            ProtocolSpec::RandomForward { rounds } => {
                let r = rounds.unwrap_or(2 * inst.params.n).max(1);
                cell(RandomForward::new(inst, r))
            }
            ProtocolSpec::NaiveCoded => cell(NaiveCoded::new(inst)),
            ProtocolSpec::IndexedBroadcast => cell(IndexedBroadcast::new(inst)),
            ProtocolSpec::FieldBroadcast { field, det } => match (field, det) {
                (FieldKind::Gf2, None) => cell(FieldBroadcast::<Gf2>::new(inst)),
                (FieldKind::Gf2, Some(s)) => cell(FieldBroadcast::<Gf2>::deterministic(inst, *s)),
                (FieldKind::Gf256, None) => cell(FieldBroadcast::<Gf256>::new(inst)),
                (FieldKind::Gf256, Some(s)) => {
                    cell(FieldBroadcast::<Gf256>::deterministic(inst, *s))
                }
                (FieldKind::Gf257, None) => cell(FieldBroadcast::<Gf257>::new(inst)),
                (FieldKind::Gf257, Some(s)) => {
                    cell(FieldBroadcast::<Gf257>::deterministic(inst, *s))
                }
                (FieldKind::Mersenne61, None) => cell(FieldBroadcast::<Mersenne61>::new(inst)),
                (FieldKind::Mersenne61, Some(s)) => {
                    cell(FieldBroadcast::<Mersenne61>::deterministic(inst, *s))
                }
            },
            ProtocolSpec::Centralized => cell(Centralized::new(inst)),
            ProtocolSpec::PatchIndexed => {
                panic!("patch-indexed is a charged-rounds model; run it via runner::run_spec")
            }
            ProtocolSpec::QuorumWatermark { .. } | ProtocolSpec::QuorumDecide { .. } => {
                let cfg = self.quorum_config().expect("quorum spec has a config");
                cell(QuorumProtocol::new(inst.params.n, inst.params.k, cfg))
            }
        }
    }
}

impl fmt::Display for ProtocolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolSpec::TokenForwarding => write_call(f, "token-forwarding", &[]),
            ProtocolSpec::PipelinedForwarding { t: None } => {
                write_call(f, "pipelined-forwarding", &[])
            }
            ProtocolSpec::PipelinedForwarding { t: Some(t) } => {
                write_call(f, "pipelined-forwarding", &[("", t)])
            }
            ProtocolSpec::GreedyForward { cfg } if *cfg == GreedyConfig::default() => {
                write_call(f, "greedy-forward", &[])
            }
            ProtocolSpec::GreedyForward { cfg } => write_call(
                f,
                "greedy-forward",
                &[("gather", &cfg.gather_mult), ("bcast", &cfg.broadcast_mult)],
            ),
            ProtocolSpec::PriorityForward { cfg } if *cfg == PriorityConfig::default() => {
                write_call(f, "priority-forward", &[])
            }
            ProtocolSpec::PriorityForward { cfg } => write_call(
                f,
                "priority-forward",
                &[("warmup", &cfg.warmup_mult), ("bcast", &cfg.broadcast_mult)],
            ),
            ProtocolSpec::RandomForward { rounds: None } => write_call(f, "random-forward", &[]),
            ProtocolSpec::RandomForward { rounds: Some(r) } => {
                write_call(f, "random-forward", &[("rounds", r)])
            }
            ProtocolSpec::NaiveCoded => write_call(f, "naive-coded", &[]),
            ProtocolSpec::IndexedBroadcast => write_call(f, "indexed-broadcast", &[]),
            ProtocolSpec::FieldBroadcast { field, det: None } => {
                write_call(f, "field-broadcast", &[("", &field.name())])
            }
            ProtocolSpec::FieldBroadcast {
                field,
                det: Some(s),
            } => write_call(f, "field-broadcast", &[("", &field.name()), ("det", s)]),
            ProtocolSpec::Centralized => write_call(f, "centralized", &[]),
            ProtocolSpec::PatchIndexed => write_call(f, "patch-indexed", &[]),
            ProtocolSpec::QuorumWatermark { f: fb, rounds }
                if *rounds == DEFAULT_WATERMARK_ROUNDS =>
            {
                write_call(f, "quorum-watermark", &[("f", fb)])
            }
            ProtocolSpec::QuorumWatermark { f: fb, rounds } => {
                write_call(f, "quorum-watermark", &[("f", fb), ("rounds", rounds)])
            }
            ProtocolSpec::QuorumDecide { f: fb, q } => {
                write_call(f, "quorum-decide", &[("f", fb), ("q", q)])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Params, Placement};
    use dyncode_dynet::adversaries::ShuffledPathAdversary;
    use dyncode_dynet::simulator::{run_erased, SimConfig};

    #[test]
    fn canonical_strings_round_trip() {
        for spec in [
            "token-forwarding",
            "pipelined-forwarding",
            "pipelined-forwarding(8)",
            "greedy-forward",
            "greedy-forward(gather=2,bcast=3)",
            "priority-forward",
            "priority-forward(warmup=3,bcast=4)",
            "random-forward",
            "random-forward(rounds=96)",
            "naive-coded",
            "indexed-broadcast",
            "field-broadcast(gf2)",
            "field-broadcast(gf256)",
            "field-broadcast(gf257)",
            "field-broadcast(m61)",
            "field-broadcast(m61,det=7)",
            "centralized",
            "patch-indexed",
            "quorum-watermark(f=1)",
            "quorum-watermark(f=2,rounds=16)",
            "quorum-decide(f=1,q=4)",
        ] {
            let v = ProtocolSpec::parse(spec).expect(spec);
            assert_eq!(v.to_string(), spec, "canonical form is stable");
            assert_eq!(ProtocolSpec::parse(&v.to_string()).unwrap(), v, "{spec}");
        }
    }

    #[test]
    fn sugar_forms_normalize() {
        // `2n`-suffixed multipliers and `rounds=auto` are accepted sugar.
        assert_eq!(
            ProtocolSpec::parse("greedy-forward(gather=2n)").unwrap(),
            ProtocolSpec::parse("greedy-forward(gather=2)").unwrap()
        );
        assert_eq!(
            ProtocolSpec::parse("random-forward(rounds=auto)").unwrap(),
            ProtocolSpec::RandomForward { rounds: None }
        );
        assert_eq!(
            ProtocolSpec::parse("  field-broadcast( m61 , det=7 )  ").unwrap(),
            ProtocolSpec::parse("field-broadcast(m61,det=7)").unwrap()
        );
        // Defaults spelled out collapse to the bare canonical name.
        let spelled = ProtocolSpec::parse("greedy-forward(gather=1,bcast=2)").unwrap();
        assert_eq!(spelled.to_string(), "greedy-forward");
        // … including the quorum watermark default (rounds = 8).
        let spelled = ProtocolSpec::parse("quorum-watermark(rounds=8,f=3)").unwrap();
        assert_eq!(spelled.to_string(), "quorum-watermark(f=3)");
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for bad in [
            "mystery",                        // unknown bare name
            "mystery(1,2)",                   // unknown head
            "token-forwarding(1)",            // arity
            "pipelined-forwarding(0)",        // T = 0
            "pipelined-forwarding(a)",        // not a number
            "pipelined-forwarding(1,2)",      // too many args
            "greedy-forward(cap=2)",          // unknown key
            "greedy-forward(gather=0)",       // zero multiplier
            "greedy-forward(gather)",         // missing =
            "random-forward(rounds=0)",       // zero rounds
            "random-forward(laps=3)",         // unknown key
            "field-broadcast",                // missing field
            "field-broadcast(gf9)",           // unknown field
            "field-broadcast(m61,det=x)",     // bad seed
            "field-broadcast(m61,mode=1)",    // unknown key
            "field-broadcast(gf2,det=1,0)",   // too many args
            "greedy-forward(gather=2",        // unbalanced paren
            "patch-indexed(3)",               // arity
            "quorum-watermark",               // missing f
            "quorum-watermark(rounds=8)",     // still missing f
            "quorum-watermark(f=0)",          // zero fault bound
            "quorum-watermark(f=1,rounds=0)", // zero target
            "quorum-watermark(f=1,laps=2)",   // unknown key
            "quorum-decide(f=1)",             // missing q
            "quorum-decide(q=4)",             // missing f
            "quorum-decide(f=1,q=0)",         // zero decision round
            "quorum-decide(f=1,q=4,x=2)",     // unknown key
        ] {
            assert!(ProtocolSpec::parse(bad).is_err(), "{bad} should fail");
        }
        let err = ProtocolSpec::parse("mystery").unwrap_err();
        assert!(
            err.contains("valid protocols") && err.contains("token-forwarding"),
            "unknown names must enumerate the registry: {err}"
        );
    }

    /// The shared grammar's rules, seen from this axis: `Ok(canonical)`
    /// or `Err` naming the offending piece.
    #[test]
    fn grammar_rules_hold_on_the_protocol_axis() {
        for (input, want) in [
            ("token-forwarding()", Ok("token-forwarding")),
            ("greedy-forward ( )", Ok("greedy-forward")),
            (
                "greedy-forward (gather=2)",
                Ok("greedy-forward(gather=2,bcast=2)"),
            ),
            (
                "greedy-forward(gather=2n)",
                Ok("greedy-forward(gather=2,bcast=2)"),
            ),
            (
                "priority-forward(warmup=3n,bcast=4n)",
                Ok("priority-forward(warmup=3,bcast=4)"),
            ),
            (
                "field-broadcast( m61 , det = 7 )",
                Ok("field-broadcast(m61,det=7)"),
            ),
            (
                "greedy-forward(gather=2,gather=3)",
                Err("duplicate key \"gather\""),
            ),
            ("quorum-watermark(f=1,f=2)", Err("duplicate key \"f\"")),
            ("token-forwarding(,)", Err("empty argument")),
            ("greedy-forward(gather=2,)", Err("empty argument")),
            ("greedy-forward(gather=2,,bcast=3)", Err("empty argument")),
            ("greedy-forward(gather=2) x", Err("closing paren")),
            ("pipelined-forwarding(8)(9)", Err("unbalanced")),
            ("quorum-decide(f=1n,q=4)", Err("bad f \"1n\"")),
            ("quorum-watermark(f=1,rounds=8n)", Err("bad rounds \"8n\"")),
            ("pipelined-forwarding(8n)", Err("bad T \"8n\"")),
            (
                "greedy-forward(cap=2)",
                Err("unknown greedy-forward parameter \"cap\""),
            ),
            (
                "token-forwarding(1)",
                Err("unexpected token-forwarding argument \"1\""),
            ),
        ] {
            let got = ProtocolSpec::parse(input).map(|s| s.name());
            match (got, want) {
                (Ok(name), Ok(canonical)) => assert_eq!(name, canonical, "{input:?}"),
                (Err(e), Err(part)) => assert!(e.contains(part), "{input:?}: {e}"),
                (got, want) => panic!("{input:?}: got {got:?}, want {want:?}"),
            }
        }
    }

    /// Hostile input: arbitrary bytes, and canonical strings with a few
    /// bytes overwritten, never panic the parser — and whatever parses
    /// prints a string that parses back to itself.
    #[test]
    fn parse_never_panics() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let corpus = [
            "pipelined-forwarding(8)",
            "greedy-forward(gather=2,bcast=3)",
            "priority-forward(warmup=3,bcast=4)",
            "random-forward(rounds=96)",
            "field-broadcast(m61,det=7)",
            "quorum-watermark(f=2,rounds=16)",
            "quorum-decide(f=1,q=4)",
        ];
        let mut rng = StdRng::seed_from_u64(0x5EC);
        for case in 0..512 {
            let bytes: Vec<u8> = if case % 2 == 0 {
                let len = rng.random_range(0..48usize);
                (0..len).map(|_| rng.random::<u8>()).collect()
            } else {
                let mut bytes = corpus[case / 2 % corpus.len()].as_bytes().to_vec();
                for _ in 0..rng.random_range(1..5usize) {
                    let at = rng.random_range(0..bytes.len());
                    bytes[at] = rng.random::<u8>();
                }
                bytes
            };
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(spec) = ProtocolSpec::parse(&text) {
                assert_eq!(ProtocolSpec::parse(&spec.name()), Ok(spec), "{text:?}");
            }
        }
    }

    #[test]
    fn registry_names_parse_and_cover_the_enum() {
        for info in registry() {
            // Every bare registry name parses, except the families whose
            // required arguments have no default.
            let name = info.grammar.split(['(', '[']).next().unwrap();
            let probe = match name {
                "field-broadcast" => "field-broadcast(gf256)".to_string(),
                "quorum-watermark" => "quorum-watermark(f=1)".to_string(),
                "quorum-decide" => "quorum-decide(f=1,q=4)".to_string(),
                name => name.to_string(),
            };
            let spec = ProtocolSpec::parse(&probe).expect(name);
            assert!(spec.to_string().starts_with(name), "{probe}");
            assert_eq!(
                spec.termination().name(),
                info.termination,
                "{probe}: the registry row and the erased predicate disagree"
            );
        }
        assert_eq!(registry().len(), 12);
    }

    #[test]
    fn quorum_specs_validate_the_instance_size() {
        let spec = ProtocolSpec::parse("quorum-watermark(f=2)").unwrap();
        assert!(spec.validate_for_n(11).is_ok());
        let err = spec.validate_for_n(10).unwrap_err();
        assert!(err.contains("n ≥ 5f+1"), "{err}");
        // Dissemination families accept any n.
        assert!(ProtocolSpec::TokenForwarding.validate_for_n(1).is_ok());
    }

    #[test]
    fn built_protocols_run_on_the_erased_surface() {
        let p = Params::new(10, 10, 5, 64);
        let inst = Instance::generate(p, Placement::OneTokenPerNode, 3);
        for spec in [
            "token-forwarding",
            "greedy-forward",
            "indexed-broadcast",
            "field-broadcast(gf256)",
            "centralized",
            "quorum-watermark(f=1)",
            "quorum-decide(f=1,q=3)",
        ] {
            let spec = ProtocolSpec::parse(spec).unwrap();
            assert!(spec.is_simulated());
            let mut proto = spec.build(&inst, 1);
            let mut adv = ShuffledPathAdversary;
            let r = run_erased(&mut proto, &mut adv, &SimConfig::with_max_rounds(20_000), 5);
            assert!(r.completed, "{spec} failed to complete");
        }
        assert!(!ProtocolSpec::PatchIndexed.is_simulated());
    }

    #[test]
    #[should_panic(expected = "charged-rounds")]
    fn patch_indexed_build_is_rejected() {
        let p = Params::new(8, 8, 4, 8);
        let inst = Instance::generate(p, Placement::OneTokenPerNode, 1);
        let _ = ProtocolSpec::PatchIndexed.build(&inst, 4);
    }
}
