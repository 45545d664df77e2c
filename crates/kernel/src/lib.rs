//! # dyncode-kernel
//!
//! Arena-backed state layouts for the dominant protocol families, sitting
//! *below* `dyncode-core` in the crate graph: it knows nothing about
//! `ProtocolSpec`s or `Instance`s — `core::runner` builds a [`FastCell`]
//! from a spec and hands it to [`run_fast`].
//!
//! The round loop itself is not here: `dyncode_dynet::driver::run_fast`
//! is the workspace's one round driver (re-exported below under the
//! names this crate introduced, with its [`CsrTopology`] snapshot). A
//! per-node `Protocol` reaches it behind the `simulator::PerNode`
//! adapter; this crate's cells instead keep all n nodes' state in flat
//! arenas and do a round's work in one `compose_all` and one
//! `deliver_all`:
//!
//! * [`CodingCell`] — the RLNC algorithm once: the silent rank-0 node,
//!   the coin source (protocol RNG or `det=S` advice), bit accounting,
//!   ascending-neighbour delivery with the rank-k saturation skip, and
//!   the decodability view. It is generic over a [`RowAlgebra`], the
//!   field's row layout and elimination, monomorphised per field:
//!   * [`Gf2Cell`] over [`Gf2Rows`](gf2cell::Gf2Rows) — word-packed
//!     GF(2) rows stored at their pivot column plus a pivot bitmap,
//!     eliminated on `u64` limb slices; its [`Gf2ViewMode`] serves
//!     `indexed-broadcast` and `field-broadcast(gf2)`;
//!   * [`Gf256Cell`] over [`Gf256Rows`](gf256cell::Gf256Rows) —
//!     *bit-planar* GF(2^8) rows (plane j holds bit j of every symbol, 64
//!     symbols per word), turning constant-multiply row ops into batched
//!     word XORs;
//!   * [`DenseCell`] over [`DenseRows`](densecell::DenseRows) —
//!     `field-broadcast(gf257|m61)`: per-node bases in each node's own
//!     column order with pivots first, so reduce, compose and
//!     back-elimination touch only the free columns, and messages packed
//!     into chunked-LE `u64` words.
//! * [`ForwardCell`] — the knowledge-based forwarding schedules over
//!   flat `u64` word arenas: a message is a token mask composed by
//!   popcount select and delivered by word OR, instead of per-node
//!   `Vec<usize>` messages and inbox clones.
//! * [`QuorumCell`] — the quorum family's per-peer round tables as one
//!   n × n arena, merged elementwise-max along the CSR rows.
//!
//! The stage-machine families (greedy/priority/random forwarding,
//! `naive-coded`, `centralized`) have no cell: their per-round cost is a
//! schedule decision plus small token moves, and `PerNode` already gives
//! them the driver's reused message and inbox vectors.
//!
//! **Equivalence contract.** Each cell returns a `RunResult`
//! bit-identical to the per-node state machine it mirrors — rounds, bit
//! accounting, adversary schedule, and per-round history. The driver
//! gives both the same event order; what a cell must add is that the
//! adversary sees the same
//! [`KnowledgeView`](dyncode_dynet::adversary::KnowledgeView) each
//! round, protocol coins are drawn in the same order (one `F::random` per
//! basis row per compose for the coding cells — under a `det=S` schedule
//! from the node's advice stream, the protocol RNG left untouched — none
//! for forwarding), and deliveries apply per node in ascending neighbor order.
//! `tests/kernel_equivalence.rs` locks the contract across the
//! eligible-spec × adversary × seed matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codingcell;
pub mod densecell;
pub mod forward;
pub mod gf256cell;
pub mod gf2cell;
pub mod quorumcell;

pub use codingcell::{CodingCell, RowAlgebra};
pub use densecell::DenseCell;
// The round driver and its topology snapshot live in `dyncode-dynet`
// (every run goes through them, arena cell or not); re-exported under
// the names this crate introduced.
pub use dyncode_dynet::csr::CsrTopology;
pub use dyncode_dynet::driver::{run_fast, FastCell};
pub use forward::ForwardCell;
pub use gf256cell::Gf256Cell;
pub use gf2cell::{Gf2Cell, Gf2ViewMode};
pub use quorumcell::QuorumCell;

use std::fmt;

/// Which state layout a run uses on the round driver — threaded through
/// `core::runner::run_spec_kernel`, the engine's `kernel =` campaign key,
/// and the bench CLI's `--kernel` flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Kernel {
    /// The spec's per-node reference state machine (behind
    /// `dyncode_dynet::simulator::PerNode`), for every spec. The default:
    /// committed baselines are reference runs.
    #[default]
    Reference,
    /// The family's arena cell (or, for the stage-machine families,
    /// the same state machine as `Reference`). Rejected (an error naming
    /// the eligible families) on a spec outside them — use
    /// [`Kernel::Auto`] to fall back instead.
    Fast,
    /// Fast for eligible specs, Reference otherwise.
    Auto,
}

impl Kernel {
    /// The spec-text name (`reference` | `fast` | `auto`).
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Reference => "reference",
            Kernel::Fast => "fast",
            Kernel::Auto => "auto",
        }
    }

    /// Parses a spec-text name; unknown names enumerate the valid ones.
    pub fn parse(s: &str) -> Result<Kernel, String> {
        match s.trim() {
            "reference" => Ok(Kernel::Reference),
            "fast" => Ok(Kernel::Fast),
            "auto" => Ok(Kernel::Auto),
            other => Err(format!(
                "unknown kernel {other:?}; valid kernels: reference, fast, auto"
            )),
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_round_trip() {
        for k in [Kernel::Reference, Kernel::Fast, Kernel::Auto] {
            assert_eq!(Kernel::parse(k.name()).unwrap(), k);
            assert_eq!(k.to_string(), k.name());
        }
        assert_eq!(Kernel::default(), Kernel::Reference);
        let err = Kernel::parse("turbo").unwrap_err();
        assert!(err.contains("valid kernels"), "{err}");
    }
}
