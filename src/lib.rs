//! # dyncode
//!
//! A faithful, executable reproduction of **Haeupler & Karger, "Faster
//! Information Dissemination in Dynamic Networks via Network Coding"
//! (PODC 2011)**: the Kuhn–Lynch–Oshman dynamic network model, random
//! linear network coding over honest b-bit messages, every algorithm the
//! paper states (and the token-forwarding baselines it beats), and an
//! experiment harness regenerating each theorem as a measured table.
//!
//! This crate is the umbrella facade; the work lives in four library
//! crates it re-exports:
//!
//! * [`gf`] (`dyncode-gf`) — finite fields GF(2)/GF(2⁸)/GF(p≤2⁶¹−1),
//!   packed GF(2) linear algebra, incremental subspace bases.
//! * [`dynet`] (`dyncode-dynet`) — the dynamic network model: adversaries,
//!   the round-synchronous simulator with per-message bit accounting,
//!   Luby-MIS patch decompositions.
//! * [`rlnc`] (`dyncode-rlnc`) — coded packets, coding node state, the
//!   Definition 5.1 sensing instrumentation, and the Section 6
//!   derandomization machinery (omniscient adversary included).
//! * [`engine`] (`dyncode-engine`) — the parallel campaign engine:
//!   declarative sweep specs, a work-stealing executor with per-cell
//!   panic containment, `BENCH_<id>.json` artifacts and the `compare`
//!   regression gate.
//! * [`core`] (`dyncode-core`) — the protocols: token forwarding
//!   (Theorem 2.1), indexed broadcast (Lemma 5.3), `greedy-forward`
//!   (Theorem 7.3), `priority-forward` (Theorem 7.5), T-stable patch
//!   algorithms (Section 8), centralized coding (Corollary 2.6), plus
//!   theory-bound formulas and run helpers.
//! * [`scenarios`] (`dyncode-scenarios`) — the workload subsystem:
//!   stochastic evolving-graph adversaries (edge-Markov, random
//!   waypoint, churn) and the streaming `.dct` binary trace format for
//!   exact record/replay.
//! * [`kernel`] (`dyncode-kernel`) — arena-backed state layouts for
//!   the round driver in [`dynet`]: word-packed GF(2), bit-planar
//!   GF(2⁸) and prime-field elimination cells, forwarding and quorum
//!   arenas, and the `Kernel::{Reference, Fast, Auto}` selection enum,
//!   bit-identical to the reference state machines on every eligible
//!   spec.
//! * [`quorum`] (`dyncode-quorum`) — latest-message-per-peer consensus:
//!   per-node `max_rounds` tables merged by max on delivery, monotone
//!   f+1 / 4f+1 watermarks, and the `quorum-watermark` /
//!   `quorum-decide` registry families with quorum-threshold
//!   termination.
//!
//! See `examples/quickstart.rs` for a first run and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dyncode_core as core;
pub use dyncode_dynet as dynet;
pub use dyncode_engine as engine;
pub use dyncode_gf as gf;
pub use dyncode_kernel as kernel;
pub use dyncode_quorum as quorum;
pub use dyncode_rlnc as rlnc;
pub use dyncode_scenarios as scenarios;

/// Commonly used items in one import.
pub mod prelude {
    pub use dyncode_core::params::{Instance, Params, Placement};
    pub use dyncode_core::protocols::{
        Centralized, GreedyForward, IndexedBroadcast, NaiveCoded, PriorityForward, RandomForward,
        TokenForwarding,
    };
    pub use dyncode_core::runner::{
        fully_disseminated, run_one, run_spec_kernel, sweep_seeds, Kernel,
    };
    pub use dyncode_core::theory;
    pub use dyncode_dynet::adversaries;
    pub use dyncode_dynet::adversary::{Adversary, KnowledgeView, TStable};
    pub use dyncode_dynet::simulator::{run, Protocol, RunResult, SimConfig};
    pub use dyncode_engine::{run_campaign, Campaign, Engine};
    pub use dyncode_gf::{Field, Gf2Vec};
}
