//! `dyncode-obs` — zero-dependency structured telemetry for the dyncode
//! workspace: spans, counters/gauges/histograms, and pluggable sinks —
//! and, because it is the one crate under every user of either, the
//! workspace's JSON codec ([`json`]) and its spec grammar ([`spec`]).
//!
//! This crate sits *below* every other dyncode crate (kernel, core,
//! engine, store, bench all depend on it) and therefore depends on
//! nothing but std. It has one hard contract, locked by the workspace's
//! `tests/obs_determinism.rs`: **telemetry never perturbs results** —
//! artifacts are byte-identical with sinks on, off, or at any thread
//! count, because instrumentation only ever observes and its disabled
//! cost is a single relaxed atomic load.
//!
//! The pieces:
//!
//! - [`span!`] / [`span::SpanGuard`] — RAII spans with self-time
//!   accounting via a thread-local nesting stack.
//! - [`metrics`] — process-global counters, gauges, and log2-bucketed
//!   fixed-memory histograms; always-on (recording is a relaxed atomic
//!   op), so sidecars can render from them without any sink.
//! - [`json`] — the one JSON dialect: [`json::Json`] (the tree the
//!   artifacts, store objects and sidecars are written from),
//!   [`json::Reader`] (the lexer the event parser walks directly) and
//!   [`json::Writer`] (the pretty layout the metrics file streams).
//! - [`spec`] — the one `name(args)` grammar: the [`spec::Call`] lexer
//!   every protocol, delivery and adversary spec parser reads through,
//!   [`spec::split_list`] for `.camp` list values, and
//!   [`spec::write_call`], which prints every canonical string.
//! - [`sink`] — the [`Sink`] trait plus [`MemorySink`] (aggregation)
//!   and [`JsonlSink`] (`dyncode-events/v1` stream for `--events`).
//! - [`log`] — leveled progress logging behind [`obs_info!`],
//!   [`obs_debug!`], [`obs_error!`] (`--quiet`/`--verbose`).
//! - [`Session`] — the CLI guard that installs sinks and finalizes
//!   event/metric files on drop.
//! - [`summary::Summary`] — offline aggregation of an event stream for
//!   `experiments obs summarize`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod log;
pub mod metrics;
pub mod session;
pub mod sink;
pub mod span;
pub mod spec;
pub mod summary;

pub use event::{parse_events, Event, Kind, Value, EVENTS_SCHEMA};
pub use session::Session;
pub use sink::{JsonlSink, MemorySink, Sink};
pub use span::SpanGuard;

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

// The whole enable/disable story is this one flag: `enabled()` is a
// single relaxed load, kept in sync with whether any sink is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

struct Registered {
    id: u64,
    sink: Arc<dyn Sink>,
}

static SINKS: RwLock<Vec<Registered>> = RwLock::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Handle returned by [`install`]; pass to [`uninstall`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SinkId(u64);

/// Whether any sink is installed — one relaxed atomic load. Hot paths
/// check this before building events or touching timers.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs a sink; every subsequent [`emit`] reaches it until
/// [`uninstall`].
pub fn install(sink: Arc<dyn Sink>) -> SinkId {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let mut sinks = SINKS.write().unwrap_or_else(|e| e.into_inner());
    sinks.push(Registered { id, sink });
    ENABLED.store(true, Ordering::Relaxed);
    SinkId(id)
}

/// Removes a previously installed sink (no-op for stale ids).
pub fn uninstall(id: SinkId) {
    let mut sinks = SINKS.write().unwrap_or_else(|e| e.into_inner());
    sinks.retain(|r| r.id != id.0);
    ENABLED.store(!sinks.is_empty(), Ordering::Relaxed);
}

/// Dispatches an event to every installed sink. Cheap no-op while
/// [`enabled`] is false.
pub fn emit(ev: &Event) {
    if !enabled() {
        return;
    }
    let sinks = SINKS.read().unwrap_or_else(|e| e.into_inner());
    for r in sinks.iter() {
        r.sink.record(ev);
    }
}

/// Flushes every installed sink.
pub fn flush_all() {
    let sinks = SINKS.read().unwrap_or_else(|e| e.into_inner());
    for r in sinks.iter() {
        r.sink.flush();
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process obs epoch (set on first telemetry
/// call). Monotonic; timestamps from different processes don't compare.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_ID: std::cell::Cell<u32> = const { std::cell::Cell::new(u32::MAX) };
}

/// A small sequential id for the calling thread (assignment order, not
/// the OS tid) — keeps event streams compact and stable to read.
pub fn thread_id() -> u32 {
    THREAD_ID.with(|c| {
        let v = c.get();
        if v != u32::MAX {
            return v;
        }
        let v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        c.set(v);
        v
    })
}

/// Serializes tests that install global sinks or mutate global state so
/// they don't observe each other's events under the parallel test
/// runner. Recovers from poisoning (a failed test must not cascade).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_uninstall_toggle_enabled() {
        let _lock = test_guard();
        assert!(!enabled());
        let a = install(Arc::new(MemorySink::default()));
        assert!(enabled());
        let b = install(Arc::new(MemorySink::default()));
        uninstall(a);
        assert!(enabled(), "one sink still installed");
        uninstall(b);
        assert!(!enabled());
        uninstall(b); // stale id: no-op
    }

    #[test]
    fn emit_reaches_every_sink() {
        let _lock = test_guard();
        let (s1, s2) = (
            Arc::new(MemorySink::default()),
            Arc::new(MemorySink::default()),
        );
        let (a, b) = (install(s1.clone()), install(s2.clone()));
        emit(&Event::mark("test.fanout", Vec::new()));
        flush_all();
        uninstall(a);
        uninstall(b);
        assert_eq!(s1.take().len(), 1);
        assert_eq!(s2.take().len(), 1);
    }

    #[test]
    fn time_is_monotonic_and_thread_ids_are_stable() {
        let t1 = now_ns();
        let t2 = now_ns();
        assert!(t2 >= t1);
        let id = thread_id();
        assert_eq!(thread_id(), id);
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(other, id);
    }
}
