//! Per-phase timing plumbing shared by [`run_fast`](crate::driver::run_fast)
//! and the elimination cells of `dyncode-kernel`.
//!
//! The round loop times its three sections unconditionally (four
//! `Instant::now()` calls per round — noise against thousands of row
//! operations) and, when telemetry is enabled, reports per-run phase
//! totals as `span` events: `kernel.csr`, `kernel.compose`,
//! `kernel.eliminate`, and `kernel.gather` (delivery minus elimination —
//! message copy/unpack and inbox traversal). Elimination time itself is
//! accumulated here by the cells, which wrap only their per-message
//! `insert` calls and only while [`active`] — so the disabled path adds
//! one atomic load per `deliver_all`, not per message.

use std::cell::Cell;

/// Whether phase spans should be recorded (one relaxed atomic load).
#[inline]
pub fn active() -> bool {
    dyncode_obs::enabled()
}

thread_local! {
    /// Elimination nanoseconds accumulated by the current run's cells.
    static ELIM_NS: Cell<u64> = const { Cell::new(0) };
}

/// Zeroes the elimination accumulator (start of a run).
pub fn elim_reset() {
    ELIM_NS.with(|c| c.set(0));
}

/// Adds `ns` of elimination time (called by cells per delivered message).
pub fn elim_add(ns: u64) {
    ELIM_NS.with(|c| c.set(c.get() + ns));
}

/// Reads and zeroes the elimination accumulator (end of a run).
pub fn elim_take() -> u64 {
    ELIM_NS.with(|c| c.replace(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elim_accumulator_adds_and_drains() {
        elim_reset();
        elim_add(5);
        elim_add(7);
        assert_eq!(elim_take(), 12);
        assert_eq!(elim_take(), 0);
    }
}
