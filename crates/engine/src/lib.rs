//! # dyncode-engine
//!
//! The parallel campaign engine: turns "run this theorem's sweep" into a
//! declarative, parallel, reproducible job. Four layers:
//!
//! 1. **Spec** ([`campaign`]) — a [`Campaign`] describes a sweep grid over
//!    `(n, k, d, b, T)`, a protocol suite (registry
//!    [`ProtocolSpec`] strings, `protocol = greedy-forward,
//!    field-broadcast(gf256)`), an adversary suite, seed lists and
//!    quick/full profiles, via a builder API or the `key = value` text
//!    format ([`Campaign::parse`]) so scenarios — and protocols — are
//!    data, not code.
//! 2. **Executor** ([`executor`]) — a work-stealing pool on
//!    `std::thread::scope` + channels that shards independent cells
//!    across `--threads N` workers. Each cell carries its own seed and
//!    results return in submission order, so parallel output is
//!    **byte-identical** to serial. A panicking cell fails that cell
//!    (recorded in the artifact), never the campaign.
//! 3. **Aggregation** ([`aggregate`], [`artifact`], [`json`]) — per-cell
//!    [`RunResult`](dyncode_dynet::simulator::RunResult)s reduce to
//!    mean/min/max/σ/CI95 across seeds, alongside fitted constants and
//!    rendered tables, emitted as `BENCH_<id>.json` artifacts with a
//!    validated schema.
//! 4. **Gating** ([`mod@compare`]) — diff two artifacts and fail (nonzero
//!    exit in the CLI) on rounds/bits/fit regressions beyond a relative
//!    tolerance: the perf trajectory's regression gate.
//!
//! The experiments binary (`dyncode-bench`) routes every e1–e17 sweep
//! through this crate; `EXPERIMENTS.md` documents the CLI workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod artifact;
pub mod campaign;
pub mod compare;
pub mod executor;
pub mod shard;

/// The workspace's JSON codec. It lives in `dyncode-obs` — the
/// dependency-free crate under every JSON user, so the event stream and
/// the artifacts share one dialect — and is re-exported here under the
/// path artifact consumers have always imported it from.
pub use dyncode_obs::json;

pub use aggregate::SeedStats;
pub use artifact::{Artifact, CellRecord, Fit, RunError, RunRecord, Scalar, TableData};
pub use campaign::{
    run_campaign, AdversaryKind, Campaign, CampaignBuilder, CapRule, CellSpec, Dim,
};
pub use compare::{compare, CompareConfig, CompareReport};
pub use dyncode_core::runner::Kernel;
pub use dyncode_core::spec::{FieldKind, ProtocolSpec};
pub use dyncode_dynet::simulator::{delivery_registry, DeliverySpec};
pub use dyncode_scenarios::ClassicKind;
pub use executor::{CellError, Engine};
pub use json::Json;
pub use shard::{merge_shards, Shard};
