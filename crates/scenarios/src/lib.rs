//! # dyncode-scenarios
//!
//! The workload subsystem: *realistic* dynamic-network scenarios to set
//! against the worst-case adversaries the paper's bounds are proved
//! over. The paper's claims (Thm 2.1/2.4, Lem 7.2, Thm 7.3/7.5) hold
//! "against any adversary"; this crate measures how coding vs forwarding
//! behave on the stochastic dynamics real systems see — where protocol
//! rankings can flip (cf. Czumaj–Davies on spontaneous transmissions).
//!
//! Three layers:
//!
//! * **Evolving-graph models** implementing
//!   [`Adversary`]:
//!   [`edge_markov`] (per-edge birth/death chains), [`waypoint`] (random
//!   waypoint mobility on the unit square with a communication radius),
//!   and [`churn`] (activity flapping over any base adversary, token
//!   ownership preserved). Each upholds the KLO per-round connectivity
//!   invariant via a [`repair`] pass.
//! * **The `.dct` trace format** ([`dct`]): delta-encoded edge flips per
//!   round, varint-coded, with an n/rounds/seed header — recorded and
//!   replayed *streaming* ([`replay`]), so million-round traces never
//!   materialize in memory.
//! * **The factory** ([`ScenarioKind`]): the one type that names an
//!   adversary — the classic worst-case families and the models above —
//!   behind the campaign engine's `adversaries = …` / `scenario = …`
//!   keys, with its [`registry`] of spec forms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod dct;
pub mod edge_markov;
pub mod repair;
pub mod replay;
pub mod waypoint;

pub use churn::ChurnAdversary;
pub use dct::{DctHeader, DctReader, DctWriter};
pub use edge_markov::EdgeMarkovAdversary;
pub use replay::{record_scenario, record_scenario_to_file, DctReplay, DctReplayAdversary};
pub use waypoint::WaypointAdversary;

use dyncode_dynet::adversaries::{
    BottleneckAdversary, KnowledgeAdaptiveAdversary, RandomConnectedAdversary,
    ShuffledPathAdversary, ShuffledStarAdversary,
};
use dyncode_dynet::adversary::{Adversary, TStable};
use dyncode_obs::spec::{list, write_call, Call};
use std::fmt;

/// The scenario factory — the one type that names an adversary: every
/// topology model as data, with a textual form (the workspace grammar,
/// [`dyncode_obs::spec`]) used by campaign specs
/// (`scenario = edge-markov(0.05,0.2)`, `adversaries = shuffled-path`),
/// cell labels, store keys and the bench CLI's `trace record`:
///
/// ```text
/// edge-markov(0.05,0.2)          per-edge birth/death probabilities
/// waypoint(0.35,0.05)            radius, speed on the unit square
/// churn(0.1,random-connected)    rate, base model (nesting allowed)
/// trace(path/to.dct)             replay a recorded trace
/// shuffled-path | … | bottleneck classic families, by name
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioKind {
    /// Per-edge birth/death Markov chains: `edge-markov(p_up,p_down)`.
    EdgeMarkov {
        /// Per-round birth probability of an absent edge.
        p_up: f64,
        /// Per-round death probability of a present edge.
        p_down: f64,
    },
    /// Random-waypoint mobility: `waypoint(radius,speed)`.
    Waypoint {
        /// Communication radius in unit-square lengths.
        radius: f64,
        /// Per-round movement in unit-square lengths.
        speed: f64,
    },
    /// Activity flapping over a base model: `churn(rate,base)`.
    Churn {
        /// Per-node per-round activity flip probability.
        rate: f64,
        /// The model wiring the active subset (any [`ScenarioKind`]).
        base: Box<ScenarioKind>,
    },
    /// Replay of a recorded `.dct` file: `trace(path)`.
    Trace {
        /// Path to the `.dct` file.
        path: String,
    },
    /// One of the classic worst-case families from
    /// `dyncode_dynet::adversaries`, named by its bare spec name.
    Classic(ClassicKind),
}

/// The classic worst-case adversary families, as scenario-spec names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassicKind {
    /// A fresh random path order every round.
    ShuffledPath,
    /// A fresh random star center every round.
    ShuffledStar,
    /// Two cliques joined by one moving bridge.
    Bottleneck,
    /// Adaptive: clusters nodes by knowledge similarity.
    KnowledgeAdaptive,
    /// A random connected graph with two extra edges.
    RandomConnected,
}

/// Every classic family with its registry description.
const CLASSIC: [(ClassicKind, &str); 5] = [
    (ClassicKind::ShuffledPath, "a fresh random path every round"),
    (ClassicKind::ShuffledStar, "a fresh random star every round"),
    (
        ClassicKind::Bottleneck,
        "two cliques joined by one moving bridge",
    ),
    (
        ClassicKind::KnowledgeAdaptive,
        "adaptive: clusters nodes by knowledge similarity",
    ),
    (
        ClassicKind::RandomConnected,
        "a random spanning tree plus two extra edges",
    ),
];

impl ClassicKind {
    /// The spec name.
    pub fn name(&self) -> &'static str {
        match self {
            ClassicKind::ShuffledPath => "shuffled-path",
            ClassicKind::ShuffledStar => "shuffled-star",
            ClassicKind::Bottleneck => "bottleneck",
            ClassicKind::KnowledgeAdaptive => "knowledge-adaptive",
            ClassicKind::RandomConnected => "random-connected",
        }
    }

    /// Parses a spec name.
    pub fn parse(s: &str) -> Option<ClassicKind> {
        CLASSIC.iter().map(|row| row.0).find(|c| c.name() == s)
    }

    /// Builds a fresh adversary of this family — the one name ↔
    /// constructor table of the classic families.
    pub fn build(&self) -> Box<dyn Adversary> {
        match self {
            ClassicKind::ShuffledPath => Box::new(ShuffledPathAdversary),
            ClassicKind::ShuffledStar => Box::new(ShuffledStarAdversary),
            ClassicKind::Bottleneck => Box::new(BottleneckAdversary),
            ClassicKind::KnowledgeAdaptive => Box::new(KnowledgeAdaptiveAdversary),
            ClassicKind::RandomConnected => Box::new(RandomConnectedAdversary::new(2)),
        }
    }
}

/// The parameterised models' registry rows: `(grammar, description)`.
const MODELS: [(&str, &str); 4] = [
    (
        "edge-markov(p_up,p_down)",
        "per-edge birth/death chains, repaired to connectivity",
    ),
    (
        "waypoint(radius,speed)",
        "random-waypoint mobility with radius-limited links",
    ),
    (
        "churn(rate,base)",
        "activity flapping over any base model but trace",
    ),
    ("trace(path)", "replay of a recorded .dct schedule, cycling"),
];

/// The adversary/scenario registry rows: `(grammar, description)`, the
/// classic families then the parameterised models — what the CLI
/// listings print and what an unknown-name error enumerates.
pub fn registry() -> Vec<(&'static str, &'static str)> {
    let classic = CLASSIC.iter().map(|(family, text)| (family.name(), *text));
    classic.chain(MODELS).collect()
}

/// Reads the next positional argument as a required `f64`.
fn number(call: &mut Call<'_>, what: &str) -> Result<f64, String> {
    call.next(what)?.ok_or_else(|| call.missing(what))
}

impl ScenarioKind {
    /// The canonical spec string (parses back via [`ScenarioKind::parse`]).
    pub fn name(&self) -> String {
        self.to_string()
    }

    /// Parses an adversary/scenario spec; see the type docs for the
    /// forms. Unknown names enumerate the [`registry`].
    pub fn parse(s: &str) -> Result<ScenarioKind, String> {
        let mut call = Call::parse(s)?;
        let (kind, valid) = match call.head {
            "edge-markov" => {
                let (p_up, p_down) = (number(&mut call, "p_up")?, number(&mut call, "p_down")?);
                if !(p_up > 0.0 && p_up <= 1.0) {
                    return Err(format!("p_up must be in (0, 1], got {p_up}"));
                }
                if !(0.0..=1.0).contains(&p_down) {
                    return Err(format!("p_down must be in [0, 1], got {p_down}"));
                }
                (ScenarioKind::EdgeMarkov { p_up, p_down }, "p_up, p_down")
            }
            "waypoint" => {
                let (radius, speed) = (number(&mut call, "radius")?, number(&mut call, "speed")?);
                if !(radius > 0.0 && speed > 0.0) {
                    return Err(format!(
                        "waypoint radius and speed must be positive, got ({radius},{speed})"
                    ));
                }
                (ScenarioKind::Waypoint { radius, speed }, "radius, speed")
            }
            "churn" => {
                let rate = number(&mut call, "rate")?;
                if !(0.0..1.0).contains(&rate) {
                    return Err(format!("churn rate must be in [0, 1), got {rate}"));
                }
                let base = call.next_raw().ok_or_else(|| call.missing("base"))?;
                let base = Box::new(ScenarioKind::parse(base)?);
                if matches!(*base, ScenarioKind::Trace { .. }) {
                    return Err("churn over a trace is not supported (the trace already \
                                fixes the full topology)"
                        .into());
                }
                (ScenarioKind::Churn { rate, base }, "rate, base")
            }
            "trace" => {
                let path = call.next_raw().ok_or_else(|| call.missing("path"))?;
                (ScenarioKind::Trace { path: path.into() }, "path")
            }
            head => match ClassicKind::parse(head) {
                Some(classic) => (ScenarioKind::Classic(classic), "no arguments"),
                None => {
                    return Err(format!(
                        "unknown adversary {head:?}; valid: {}",
                        list(registry().iter().map(|row| row.0))
                    ))
                }
            },
        };
        call.finish(valid)?;
        Ok(kind)
    }

    /// Builds a fresh adversary for this scenario, wrapped [`TStable`]
    /// when the stability interval `t` exceeds 1.
    ///
    /// # Panics
    /// [`ScenarioKind::Trace`] panics if the file cannot be opened or is
    /// not a valid trace (inside an engine cell this is contained as a
    /// recorded `CellError`).
    pub fn build(&self, t: usize) -> Box<dyn Adversary> {
        let inner: Box<dyn Adversary> = match self {
            ScenarioKind::EdgeMarkov { p_up, p_down } => {
                Box::new(EdgeMarkovAdversary::new(*p_up, *p_down))
            }
            ScenarioKind::Waypoint { radius, speed } => {
                Box::new(WaypointAdversary::new(*radius, *speed))
            }
            ScenarioKind::Churn { rate, base } => {
                Box::new(ChurnAdversary::new(base.build(1), *rate))
            }
            ScenarioKind::Trace { path } => Box::new(
                DctReplayAdversary::open(path)
                    .unwrap_or_else(|e| panic!("cannot open trace {path:?}: {e}")),
            ),
            ScenarioKind::Classic(c) => c.build(),
        };
        if t > 1 {
            Box::new(TStable::new(inner, t))
        } else {
            inner
        }
    }
}

impl fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioKind::EdgeMarkov { p_up, p_down } => {
                write_call(f, "edge-markov", &[("", p_up), ("", p_down)])
            }
            ScenarioKind::Waypoint { radius, speed } => {
                write_call(f, "waypoint", &[("", radius), ("", speed)])
            }
            ScenarioKind::Churn { rate, base } => write_call(f, "churn", &[("", rate), ("", base)]),
            ScenarioKind::Trace { path } => write_call(f, "trace", &[("", path)]),
            ScenarioKind::Classic(c) => write_call(f, c.name(), &[]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncode_dynet::adversary::KnowledgeView;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn parse_round_trips_through_name() {
        for spec in [
            "edge-markov(0.05,0.2)",
            "waypoint(0.35,0.05)",
            "churn(0.1,random-connected)",
            "churn(0.25,edge-markov(0.02,0.1))",
            "trace(foo/bar.dct)",
            "shuffled-path",
        ] {
            let k = ScenarioKind::parse(spec).expect(spec);
            assert_eq!(ScenarioKind::parse(&k.name()).unwrap(), k, "{spec}");
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "edge-markov(0.05)",        // arity
            "edge-markov(0,0.1)",       // p_up = 0
            "edge-markov(a,b)",         // not numbers
            "waypoint(0.3,-1)",         // negative speed
            "waypoint(nan,0.1)",        // NaN must not slip past validation
            "waypoint(inf,0.1)",        // nor infinity
            "churn(1.0,shuffled-path)", // rate = 1
            "churn(0.1,trace(x.dct))",  // churn over trace
            "mystery(1,2)",             // unknown head
            "waypoint(0.3,0.1",         // unbalanced paren
            "plainname",                // unknown bare name
        ] {
            assert!(ScenarioKind::parse(bad).is_err(), "{bad} should fail");
        }
    }

    /// The shared grammar's rules, seen from this axis: `Ok(canonical)`
    /// or `Err` naming the offending piece.
    #[test]
    fn grammar_rules_hold_on_the_adversary_axis() {
        for (input, want) in [
            ("shuffled-path()", Ok("shuffled-path")),
            (" shuffled-path ", Ok("shuffled-path")),
            ("bottleneck ( )", Ok("bottleneck")),
            ("edge-markov (0.05, 0.2)", Ok("edge-markov(0.05,0.2)")),
            ("edge-markov(0.5,-0.0)", Ok("edge-markov(0.5,0)")),
            (
                "churn(-0.0,waypoint( 0.3 ,0.1))",
                Ok("churn(0,waypoint(0.3,0.1))"),
            ),
            ("trace(runs/seed=3.dct)", Ok("trace(runs/seed=3.dct)")),
            ("edge-markov(0.05,,0.2)", Err("empty argument")),
            ("edge-markov(0.05,0.2,)", Err("empty argument")),
            ("waypoint(,)", Err("empty argument")),
            (
                "edge-markov(0.05,0.2,0.3)",
                Err("unexpected edge-markov argument \"0.3\""),
            ),
            ("edge-markov(0.05)", Err("missing its p_down")),
            ("shuffled-path(1)", Err("unexpected shuffled-path argument")),
            ("waypoint(0.3,0.1) x", Err("closing paren")),
            ("churn(0.1,edge-markov(0.05,0.2)", Err("unclosed")),
            ("edge-markov(nan,0.2)", Err("bad p_up")),
            ("edge-markov(0.05,inf)", Err("bad p_down")),
            ("waypoint(0.3,NaN)", Err("bad speed")),
            ("waypoint(-inf,0.1)", Err("bad radius")),
            ("churn(nan,shuffled-path)", Err("bad rate")),
            ("churn(0.1,edge-markov(inf,0.2))", Err("bad p_up")),
        ] {
            let got = ScenarioKind::parse(input).map(|s| s.name());
            match (got, want) {
                (Ok(name), Ok(canonical)) => assert_eq!(name, canonical, "{input:?}"),
                (Err(e), Err(part)) => assert!(e.contains(part), "{input:?}: {e}"),
                (got, want) => panic!("{input:?}: got {got:?}, want {want:?}"),
            }
        }
        assert_eq!(
            ScenarioKind::parse(" shuffled-path ").unwrap(),
            ScenarioKind::Classic(ClassicKind::ShuffledPath)
        );
    }

    /// Every registry row's head is a name the parser knows, and an
    /// unknown name's error enumerates exactly the registry.
    #[test]
    fn registry_rows_parse_and_unknown_names_enumerate_them() {
        let err = ScenarioKind::parse("mystery").unwrap_err();
        assert!(err.contains("unknown adversary \"mystery\""), "{err}");
        assert_eq!(registry().len(), 9);
        for (grammar, description) in registry() {
            assert!(err.contains(grammar), "{err} must list {grammar}");
            assert!(!description.is_empty());
            let head = grammar.split('(').next().unwrap();
            let probe = match head {
                "edge-markov" => "edge-markov(0.05,0.2)".to_string(),
                "waypoint" => "waypoint(0.3,0.1)".to_string(),
                "churn" => "churn(0.1,bottleneck)".to_string(),
                "trace" => "trace(x.dct)".to_string(),
                classic => classic.to_string(),
            };
            let kind = ScenarioKind::parse(&probe).expect(grammar);
            assert_eq!(kind.name(), probe, "{grammar}");
        }
    }

    #[test]
    fn built_scenarios_emit_connected_topologies() {
        let mut rng = StdRng::seed_from_u64(9);
        for spec in [
            "edge-markov(0.05,0.2)",
            "waypoint(0.3,0.05)",
            "churn(0.2,random-connected)",
            "churn(0.15,edge-markov(0.05,0.2))",
        ] {
            let mut adv = ScenarioKind::parse(spec).unwrap().build(1);
            let view = KnowledgeView::blank(13, 2);
            for round in 0..20 {
                let g = adv.topology(round, &view, &mut rng);
                assert_eq!(g.num_nodes(), 13, "{spec}");
                assert!(g.is_connected(), "{spec} round {round}");
            }
        }
    }
}
