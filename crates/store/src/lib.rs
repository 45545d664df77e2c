//! # dyncode-store
//!
//! The content-addressed result store and campaign orchestration layer:
//! the substrate that turns single-process, all-or-nothing campaign runs
//! into shardable, resumable, cache-backed jobs.
//!
//! Four layers:
//!
//! 1. **Digests** ([`sha`], [`key`]) — a dependency-free SHA-256 over a
//!    canonical key string per cell-seed run (schema version, canonical
//!    protocol spec, adversary, the full grid point, placement, instance
//!    seed, resolved kernel, seed), plus a campaign-level digest that
//!    names the whole grid for resume/merge validation.
//! 2. **Store** ([`store`]) — `objects/<hh>/<hex>.json` content-addressed
//!    files with atomic tmp-then-rename writes, an advisory append-only
//!    `index.log`, oldest-first `gc` to a byte budget, and hit/miss/put
//!    counters.
//! 3. **Orchestrator** ([`run`]) — [`run_campaign_stored`] runs a
//!    campaign (or a `--shard i/k` slice) resolving every cell-seed slot
//!    prior-artifact → store → compute, retrying prior errors, and
//!    assembling an artifact byte-identical to the plain engine run
//!    (plus its `campaign_digest`). Provenance counters ride in
//!    [`RunStats`] and the `BENCH_<id>.store.json` sidecar, never in the
//!    artifact.
//! 4. **Serve** ([`serve`]) — a minimal spool-directory loop
//!    ([`serve_once`]) that accepts `*.camp` spec files and writes
//!    artifacts, demonstrating the store as a shared backend for
//!    concurrent clients.
//!
//! The shard/merge machinery itself ([`dyncode_engine::Shard`],
//! [`dyncode_engine::merge_shards`]) lives in the engine — partitioning
//! a grid is an engine concern; this crate adds the persistence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod key;
pub mod run;
pub mod serve;
pub mod sha;
pub mod store;

pub use key::{campaign_digest, cell_prefix, CellKey, KEY_SCHEMA};
pub use run::{run_campaign_stored, write_sidecar, RunOptions, RunStats};
pub use serve::{serve_once, ServeOutcome};
pub use sha::{sha256, sha256_hex};
pub use store::{GcReport, Store, StoreCounters, StoreStats, CELL_SCHEMA};
