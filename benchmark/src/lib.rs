//! The repo benchmark: end-to-end host-time metrics of the dyncode
//! simulator on seven workloads, a traced run that attributes the time to
//! layers, and the checks that keep both honest. `BENCHMARK.json` at the
//! repository root defines the workloads and metrics; `README.md` beside
//! this crate explains them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod contract;
pub mod e2e;
pub mod harness;
pub mod micro;
pub mod procstat;
pub mod span;
pub mod stats;
pub mod trace;
pub mod workloads;
