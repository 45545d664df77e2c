//! Counters, gauges, and log2-bucketed histograms in fixed memory.
//!
//! Metrics are process-global and always-on: recording is a relaxed
//! atomic op whether or not any sink is installed (unlike spans, which
//! short-circuit), so counters like `store.hits` can back the
//! `.store.json` sidecar without an events file. Registration is by
//! name, memoized and leaked — [`counter`], [`gauge`], and [`histogram`]
//! return `&'static` handles callers may cache.
//!
//! A [`Histogram`] has 65 power-of-two buckets (`0`, then `[2^(i-1),
//! 2^i)` for `i = 1..=64`), so it covers the full `u64` range in ~520
//! bytes with no allocation on the record path; percentiles are read
//! from a [`HistogramSnapshot`] as bucket upper bounds.

use crate::event::{Event, Kind, Value};
use crate::json::Writer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    v: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A last-value gauge.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    v: AtomicU64,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// The last set value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Bucket count: one zero bucket plus one per `u64` bit length.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-memory log2-bucketed histogram.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

/// The bucket index for `v`: 0 for 0, else the bit length of `v` (so
/// bucket `i ≥ 1` holds exactly the values in `[2^(i-1), 2^i)`).
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The largest value bucket `i` can hold (its inclusive upper bound) —
/// the value percentile queries report.
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// A point-in-time copy for percentile queries and serialization.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A frozen [`Histogram`] state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Per-bucket observation counts ([`HIST_BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the `ceil(q·count)`-th smallest observation; 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HIST_BUCKETS - 1)
    }

    /// Upper bound of the highest non-empty bucket; 0 when empty.
    pub fn max_bound(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(bucket_upper_bound)
            .unwrap_or(0)
    }
}

// Registries: small linear-scan vectors of leaked statics. Lookup locks
// a mutex — callers on hot paths cache the returned &'static handle.
static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());
static GAUGES: Mutex<Vec<&'static Gauge>> = Mutex::new(Vec::new());
static HISTOGRAMS: Mutex<Vec<&'static Histogram>> = Mutex::new(Vec::new());

/// The counter registered as `name` (registering it on first use).
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = COUNTERS.lock().unwrap();
    if let Some(c) = reg.iter().find(|c| c.name == name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter {
        name,
        v: AtomicU64::new(0),
    }));
    reg.push(c);
    c
}

/// The gauge registered as `name` (registering it on first use).
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut reg = GAUGES.lock().unwrap();
    if let Some(g) = reg.iter().find(|g| g.name == name) {
        return g;
    }
    let g: &'static Gauge = Box::leak(Box::new(Gauge {
        name,
        v: AtomicU64::new(0),
    }));
    reg.push(g);
    g
}

/// The histogram registered as `name` (registering it on first use).
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = HISTOGRAMS.lock().unwrap();
    if let Some(h) = reg.iter().find(|h| h.name == name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram {
        name,
        count: AtomicU64::new(0),
        sum: AtomicU64::new(0),
        buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
    }));
    reg.push(h);
    h
}

/// The current value of the counter named `name` **without** registering
/// it: 0 if nothing has registered it yet. The sidecar renderer reads
/// `store.*` through this.
pub fn counter_value(name: &str) -> u64 {
    COUNTERS
        .lock()
        .unwrap()
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.get())
        .unwrap_or(0)
}

/// Zeroes every registered metric (registrations persist). Test isolation
/// only — production code never resets.
pub fn reset() {
    for c in COUNTERS.lock().unwrap().iter() {
        c.v.store(0, Ordering::Relaxed);
    }
    for g in GAUGES.lock().unwrap().iter() {
        g.v.store(0, Ordering::Relaxed);
    }
    for h in HISTOGRAMS.lock().unwrap().iter() {
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        for b in h.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A frozen copy of every registered metric, each section sorted by name.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, count)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` per histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Snapshots every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let mut s = MetricsSnapshot {
        counters: COUNTERS
            .lock()
            .unwrap()
            .iter()
            .map(|c| (c.name.to_string(), c.get()))
            .collect(),
        gauges: GAUGES
            .lock()
            .unwrap()
            .iter()
            .map(|g| (g.name.to_string(), g.get()))
            .collect(),
        histograms: HISTOGRAMS
            .lock()
            .unwrap()
            .iter()
            .map(|h| (h.name.to_string(), h.snapshot()))
            .collect(),
    };
    s.counters.sort();
    s.gauges.sort();
    s.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    s
}

/// Renders [`snapshot`] as final-state events — one `counter`/`gauge`
/// event per metric (absolute `value`) and one `hist` event per
/// histogram (count/sum/percentiles in fields). [`crate::Session`]
/// appends these to the events stream before closing it, which is how
/// `obs summarize` reconciles store counters against the sidecar.
pub fn snapshot_events() -> Vec<Event> {
    let snap = snapshot();
    let mut out = Vec::new();
    for (name, v) in &snap.counters {
        let mut ev = Event::new(Kind::Counter, name);
        ev.value = Some(*v);
        out.push(ev);
    }
    for (name, v) in &snap.gauges {
        let mut ev = Event::new(Kind::Gauge, name);
        ev.value = Some(*v);
        out.push(ev);
    }
    for (name, h) in &snap.histograms {
        let mut ev = Event::new(Kind::Hist, name);
        ev.fields = hist_fields(h)
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::U64(v)))
            .collect();
        out.push(ev);
    }
    out
}

/// The six numbers a histogram is reported as, in wire order: the fields
/// of its `hist` event and its row in the metrics file.
fn hist_fields(h: &HistogramSnapshot) -> [(&'static str, u64); 6] {
    [
        ("count", h.count),
        ("sum", h.sum),
        ("p50", h.percentile(0.50)),
        ("p90", h.percentile(0.90)),
        ("p99", h.percentile(0.99)),
        ("max", h.max_bound()),
    ]
}

/// The metrics-file schema identifier (`--metrics PATH` output).
pub const METRICS_SCHEMA: &str = "dyncode-metrics/v1";

/// Writes [`snapshot`] to `path` as a `dyncode-metrics/v1` JSON document.
/// Values are streamed through [`Writer::u64`], not a `Json` tree: a
/// counter above 2^53 must print exactly.
pub fn write_metrics_file(path: &std::path::Path) -> std::io::Result<()> {
    let snap = snapshot();
    let mut w = Writer::default();
    w.begin('{');
    w.key("schema");
    w.str(METRICS_SCHEMA);
    for (section, entries) in [("counters", &snap.counters), ("gauges", &snap.gauges)] {
        w.key(section);
        w.begin('{');
        for (name, v) in entries {
            w.key(name);
            w.u64(*v);
        }
        w.end('}');
    }
    w.key("histograms");
    w.begin('{');
    for (name, h) in &snap.histograms {
        w.key(name);
        w.begin('{');
        for (key, v) in hist_fields(h) {
            w.key(key);
            w.u64(v);
        }
        w.end('}');
    }
    w.end('}');
    w.end('}');
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_at_powers_of_two() {
        // 0 is its own bucket; each power of two opens a new bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for k in 1..64 {
            let p = 1u64 << k;
            assert_eq!(bucket_index(p), k + 1, "2^{k} opens bucket {}", k + 1);
            assert_eq!(bucket_index(p - 1), k, "2^{k}-1 stays in bucket {k}");
            if k < 63 {
                assert_eq!(bucket_index(p + 1), k + 1);
            }
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(4), 15);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_records_and_reports_percentiles() {
        let h = histogram("test.hist.percentiles");
        // Fresh or not (tests share the process registry), measure deltas
        // via a dedicated name used only here.
        for v in [0u64, 1, 2, 3, 4, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1_001_010);
        assert_eq!(s.buckets[0], 1); // the 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[3], 1); // 4
        assert_eq!(s.percentile(0.0), 0);
        // 4th smallest of 7 ≈ p50 → bucket 2 (values 2..=3) → bound 3.
        assert_eq!(s.percentile(0.5), 3);
        assert_eq!(s.percentile(1.0), s.max_bound());
        assert_eq!(s.max_bound(), bucket_upper_bound(bucket_index(1_000_000)));
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![0; HIST_BUCKETS],
        };
        assert_eq!(empty.percentile(0.5), 0);
        assert_eq!(empty.max_bound(), 0);
    }

    #[test]
    fn registration_is_memoized_by_name() {
        let a = counter("test.memo.counter");
        let b = counter("test.memo.counter");
        assert!(std::ptr::eq(a, b));
        a.add(2);
        b.add(3);
        assert_eq!(counter_value("test.memo.counter"), a.get());
        assert_eq!(counter_value("test.never.registered"), 0);
        let g = gauge("test.memo.gauge");
        g.set(9);
        g.set(4);
        assert_eq!(g.get(), 4);
        assert!(std::ptr::eq(g, gauge("test.memo.gauge")));
    }

    #[test]
    fn snapshot_sections_are_sorted_and_round_into_events() {
        counter("test.snap.b").add(1);
        counter("test.snap.a").add(1);
        histogram("test.snap.h").record(5);
        let s = snapshot();
        let names: Vec<&str> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        let (ia, ib) = (
            names.iter().position(|n| *n == "test.snap.a").unwrap(),
            names.iter().position(|n| *n == "test.snap.b").unwrap(),
        );
        assert!(ia < ib, "sorted: {names:?}");
        let events = snapshot_events();
        let h = events
            .iter()
            .find(|e| e.kind == crate::Kind::Hist && e.name == "test.snap.h")
            .expect("hist event");
        assert!(h.field_u64("count").unwrap() >= 1);
        assert!(h.field_u64("p50").is_some());
    }

    #[test]
    fn metrics_file_writes_and_mentions_the_schema() {
        counter("test.file.counter").add(7);
        let dir = std::env::temp_dir().join(format!("dyncode_obs_metrics_{}", std::process::id()));
        let path = dir.join("metrics.json");
        write_metrics_file(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.contains(METRICS_SCHEMA), "{text}");
        assert!(text.contains("test.file.counter"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_file_is_valid_json_whatever_the_names() {
        use crate::json::Json;
        counter("evil\"name\\").add(3);
        histogram("test.file.hist").record(u64::MAX);
        let dir = std::env::temp_dir().join(format!("dyncode_obs_escape_{}", std::process::id()));
        let path = dir.join("metrics.json");
        write_metrics_file(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_dir_all(&dir).ok();
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        assert_eq!(doc.req("schema", Json::as_str), Ok(METRICS_SCHEMA));
        let counters = doc.get("counters").expect("counters section");
        assert_eq!(counters.req("evil\"name\\", Json::as_u64), Ok(3));
        // u64 values print exactly, not through f64 (2^64 - 1 would
        // come out as 18446744073709552000).
        assert!(text.contains("\"max\": 18446744073709551615"), "{text}");
    }
}
