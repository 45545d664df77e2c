//! # dyncode-core
//!
//! Token dissemination in adversarial dynamic networks: the complete
//! algorithm suite of Haeupler & Karger, *"Faster Information
//! Dissemination in Dynamic Networks via Network Coding"* (PODC 2011),
//! together with the Kuhn–Lynch–Oshman token-forwarding baselines it is
//! measured against.
//!
//! * [`params`] — k-token dissemination instances (Section 4.2).
//! * [`knowledge`] / [`flood`] — shared bookkeeping and the O(log n)-bit
//!   control floods (max-flood leader election, AND-flood Las-Vegas
//!   verification).
//! * [`protocols`] — every algorithm: forwarding baselines (Theorem 2.1),
//!   RLNC indexed broadcast (Lemma 5.3), naive coded dissemination
//!   (Corollary 7.1), `greedy-forward` (Theorem 7.3), `priority-forward`
//!   (Theorem 7.5), the T-stable patch algorithms (Section 8), and the
//!   centralized algorithm (Corollary 2.6).
//! * [`spec`] — the first-class protocol registry: every algorithm as a
//!   parseable, `Display`-round-trippable [`ProtocolSpec`] string with a
//!   factory building the concrete protocol as a per-node round-driver
//!   cell (messages stay typed; only the cell is erased).
//! * [`theory`] — closed-form bound formulas and shape-regression helpers
//!   used by the experiment harness.
//! * [`runner`] — seed sweeps and summaries, over concrete protocol types
//!   ([`runner::run_one`]) or registry specs ([`runner::run_spec`]).
//!
//! # Quickstart
//!
//! ```
//! use dyncode_core::params::{Instance, Params, Placement};
//! use dyncode_core::protocols::GreedyForward;
//! use dyncode_core::runner::fully_disseminated;
//! use dyncode_dynet::adversaries::ShuffledPathAdversary;
//! use dyncode_dynet::simulator::{run, SimConfig};
//!
//! // 16 nodes, one 6-bit token each, 12-bit messages.
//! let inst = Instance::generate(
//!     Params::new(16, 16, 6, 12),
//!     Placement::OneTokenPerNode,
//!     7,
//! );
//! let mut proto = GreedyForward::new(&inst);
//! let result = run(
//!     &mut proto,
//!     &mut ShuffledPathAdversary,
//!     &SimConfig::with_max_rounds(100_000),
//!     7,
//! );
//! assert!(result.completed && fully_disseminated(&proto));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flood;
pub mod knowledge;
pub mod params;
pub mod protocols;
pub mod runner;
pub mod spec;
pub mod term;
pub mod theory;

pub use params::{Instance, Params, Placement};
pub use protocols::{
    Centralized, GreedyForward, IndexedBroadcast, NaiveCoded, PriorityForward, RandomForward,
    TokenForwarding,
};
pub use spec::{FieldKind, ProtocolSpec};
pub use term::TerminationPredicate;
