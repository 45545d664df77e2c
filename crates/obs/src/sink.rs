//! Pluggable event sinks.
//!
//! A [`Sink`] receives every emitted [`Event`] while installed (see
//! [`crate::install`]). Two implementations cover the repo's needs:
//! [`MemorySink`] aggregates in memory (tests, `obs summarize` of a live
//! run) and [`JsonlSink`] streams `dyncode-events/v1` lines to a file
//! (`--events PATH`).

use crate::event::Event;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// An event consumer. `record` is called on the emitting thread and must
/// be cheap and non-blocking where possible; implementations must never
/// panic (telemetry must not perturb the run).
pub trait Sink: Send + Sync {
    /// Consumes one event.
    fn record(&self, ev: &Event);
    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

/// Collects events into a `Vec` for inspection.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// A copy of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock().unwrap())
    }
}

impl Sink for MemorySink {
    fn record(&self, ev: &Event) {
        self.events.lock().unwrap().push(ev.clone());
    }
}

/// Streams events to a file as `dyncode-events/v1` JSONL, one object per
/// line, starting with the stream's `meta` header line. Buffered; flushed
/// on [`Sink::flush`] and on drop. I/O errors are swallowed — a full disk
/// must not abort a simulation.
pub struct JsonlSink {
    w: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) `path` and writes the schema header line.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(File::create(path)?);
        writeln!(w, "{}", Event::stream_meta().to_jsonl())?;
        Ok(JsonlSink { w: Mutex::new(w) })
    }
}

impl Sink for JsonlSink {
    fn record(&self, ev: &Event) {
        let mut w = self.w.lock().unwrap();
        let _ = writeln!(w, "{}", ev.to_jsonl());
    }

    fn flush(&self) {
        let _ = self.w.lock().unwrap().flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut w) = self.w.lock() {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{parse_events, Kind, Value};

    #[test]
    fn jsonl_sink_writes_a_parsable_stream() {
        let dir = std::env::temp_dir().join(format!("dyncode_obs_sink_{}", std::process::id()));
        let path = dir.join("events.jsonl");
        let sink = JsonlSink::create(&path).expect("create");
        sink.record(&Event::mark(
            "test.mark",
            vec![("k".to_string(), Value::Str("v".to_string()))],
        ));
        let mut ev = Event::new(Kind::Counter, "test.count");
        ev.value = Some(3);
        sink.record(&ev);
        drop(sink); // flushes
        let text = std::fs::read_to_string(&path).expect("read");
        let events = parse_events(&text).expect("parse");
        assert_eq!(events.len(), 3, "meta + 2 events");
        assert_eq!(events[0].kind, Kind::Meta);
        assert_eq!(events[1].name, "test.mark");
        assert_eq!(events[2].value, Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_sink_take_drains() {
        let sink = MemorySink::default();
        sink.record(&Event::mark("a", Vec::new()));
        sink.record(&Event::mark("b", Vec::new()));
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.take().len(), 2);
        assert!(sink.events().is_empty());
    }
}
