//! # dyncode-dynet
//!
//! The Kuhn–Lynch–Oshman **dynamic network model** \[STOC'10\] as an
//! executable substrate, built for the reproduction of Haeupler & Karger,
//! *"Faster Information Dissemination in Dynamic Networks via Network
//! Coding"* (PODC 2011).
//!
//! The model (paper Section 4.1): n nodes with unique IDs communicate in
//! synchronized rounds. Each round an adversary picks a **connected**
//! undirected graph; each node then broadcasts an O(b)-bit message chosen
//! *without knowing its neighbors* (anonymous broadcast) and receives the
//! messages of all its neighbors.
//!
//! This crate provides:
//!
//! * [`graph`] / [`generators`] — topologies and their invariants,
//!   including the power graphs G^D used by the Section 8 patching.
//! * [`adversary`] / [`adversaries`] — the adversary interface (oblivious
//!   and knowledge-adaptive), the [`adversary::TStable`] stability wrapper,
//!   and a suite of hard concrete adversaries.
//! * [`driver`] — the round engine: the one round loop, with per-message
//!   **bit accounting** (the paper's central bookkeeping: coding headers
//!   must fit in the message budget b), over a batched state layout
//!   ([`driver::FastCell`]) and a delta-reused [`csr`] topology snapshot.
//! * [`simulator`] — the per-node [`Protocol`] surface and its
//!   [`simulator::PerNode`] cell, which [`run`] drives on the round loop;
//!   messages stay typed, only the cell is erased.
//! * [`mis`] — Luby/greedy maximal independent sets and the Section 8.1
//!   patch decomposition.
//! * [`trace`] — record/replay of adversarial schedules.
//!
//! # Example: flooding a bit under a shapeshifting network
//!
//! ```
//! use dyncode_dynet::adversaries::ShuffledPathAdversary;
//! use dyncode_dynet::adversary::KnowledgeView;
//! use dyncode_dynet::simulator::{run, Protocol, SimConfig};
//! use rand::rngs::StdRng;
//!
//! struct Flood { has: Vec<bool> }
//! impl Protocol for Flood {
//!     type Message = ();
//!     fn num_nodes(&self) -> usize { self.has.len() }
//!     fn num_tokens(&self) -> usize { 1 }
//!     fn compose(&mut self, u: usize, _r: usize, _g: &mut StdRng) -> Option<()> {
//!         self.has[u].then_some(())
//!     }
//!     fn message_bits(&self, _m: &()) -> u64 { 1 }
//!     fn deliver(&mut self, u: usize, inbox: &[()], _r: usize, _g: &mut StdRng) {
//!         if !inbox.is_empty() { self.has[u] = true; }
//!     }
//!     fn node_done(&self, u: usize) -> bool { self.has[u] }
//!     fn view(&self) -> KnowledgeView {
//!         let mut v = KnowledgeView::blank(self.has.len(), 1);
//!         for (u, &h) in self.has.iter().enumerate() {
//!             if h { v.tokens[u].insert(0); v.dims[u] = 1; v.done[u] = true; }
//!         }
//!         v
//!     }
//! }
//!
//! let mut p = Flood { has: { let mut h = vec![false; 16]; h[0] = true; h } };
//! let r = run(&mut p, &mut ShuffledPathAdversary, &SimConfig::with_max_rounds(32), 7);
//! assert!(r.completed && r.rounds <= 15); // connectivity informs ≥1 node/round
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversaries;
pub mod adversary;
pub mod bitset;
pub mod csr;
pub mod driver;
pub mod generators;
pub mod graph;
pub mod mis;
pub mod phase;
pub mod simulator;
pub mod trace;

pub use adversary::{Adversary, KnowledgeView, TStable};
pub use bitset::BitSet;
pub use graph::{Graph, NodeId};
pub use simulator::{
    run, run_erased, DeliverySpec, ErasedProtocol, Protocol, RunResult, SimConfig,
};
