//! The benchmark's own span recorder. Spans are taken from the
//! benchmark's files, around public calls into each layer; they are kept
//! in memory and written out (if asked) when the run ends.
//!
//! A span is `(id, parent, name, start, duration, count)`. Per-round
//! phases of a simulated run are recorded as one *aggregate* span per
//! phase per run (`count` = rounds, `dur_ns` = summed time): a span per
//! round would cost more than the rounds of the small cells it times.
//! A layer's self time is its span's duration minus what its children
//! cover; children of a span with `lanes > 1` ran on that many worker
//! threads, so they cover `Σ child / lanes` of the parent's interval and
//! their own self times count `1 / lanes` towards the pass.

use std::time::Instant;

/// "No parent": the root of a pass.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in its tracer.
    pub id: u32,
    /// The span that caused it, or [`NO_PARENT`].
    pub parent: u32,
    /// Layer-qualified name (`kernel.compose`, `store.put`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration (summed over `count` calls for an aggregate span).
    pub dur_ns: u64,
    /// Calls this span stands for (1 for a plain span).
    pub count: u64,
    /// Worker threads this span's children ran on (1 = sequential).
    pub lanes: u32,
}

/// Records spans for one thread of work. Worker jobs record into their
/// own tracer (same epoch) and the caller [`Tracer::adopt`]s the result.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer measuring from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The shared time origin, for worker tracers.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start_ns: u64, dur_ns: u64, count: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            name,
            start_ns,
            dur_ns,
            count,
            lanes: 1,
        });
        id
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let now = self.now_ns();
        let id = self.push(name, now, 0, 1);
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "span exit out of order");
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.dur_ns = now - span.start_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Records an already-measured aggregate span (`count` calls taking
    /// `dur_ns` in total, the first starting at `start_ns`) under the
    /// innermost open span.
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, dur_ns: u64, count: u64) {
        self.push(name, start_ns, dur_ns, count);
    }

    /// Nanoseconds since the epoch, for callers that time phases by hand
    /// before calling [`Tracer::leaf`].
    pub fn clock(&self) -> u64 {
        self.now_ns()
    }

    /// Marks the innermost open span as having run its children on
    /// `lanes` worker threads.
    pub fn set_lanes(&mut self, lanes: u32) {
        if let Some(&top) = self.stack.last() {
            self.spans[top as usize].lanes = lanes.max(1);
        }
    }

    /// Re-parents a worker tracer's spans under span `parent`.
    pub fn adopt(&mut self, parent: u32, worker: Vec<Span>) {
        let base = self.spans.len() as u32;
        for mut s in worker {
            s.id += base;
            s.parent = if s.parent == NO_PARENT {
                parent
            } else {
                s.parent + base
            };
            self.spans.push(s);
        }
    }

    /// Consumes the tracer; all spans must be closed.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "unclosed spans at finish");
        self.spans
    }
}

/// Self time per span, index-aligned with `spans`, in wall-equivalent
/// nanoseconds: duration minus the share of it the children cover, then
/// divided by the lanes of every ancestor, so that the self times of a
/// pass sum to its root span even where jobs ran side by side. Never
/// below zero (aggregate children carry their own timer reads, which can
/// overshoot the parent by nanoseconds).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    // A parent always precedes its children, adopted ones included.
    let mut ancestor_lanes = vec![1u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            child_ns[p] += s.dur_ns;
            ancestor_lanes[s.id as usize] = ancestor_lanes[p] * u64::from(spans[p].lanes);
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .zip(ancestor_lanes)
        .map(|((s, c), a)| s.dur_ns.saturating_sub(c / u64::from(s.lanes)) / a)
        .collect()
}

/// Total `(duration, count)` of every span named `name`.
pub fn total(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(d, c), s| (d + s.dur_ns, c + s.count))
}

/// Seconds spent in spans named `name`.
pub fn seconds(spans: &[Span], name: &str) -> f64 {
    total(spans, name).0 as f64 / 1e9
}

/// Total self time per span name, largest first.
pub fn self_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut by: Vec<(&'static str, u64)> = Vec::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        match by.iter_mut().find(|(n, _)| *n == s.name) {
            Some(slot) => slot.1 += ns,
            None => by.push((s.name, ns)),
        }
    }
    by.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    by
}

/// One JSON line per span: the `trace-<workload>.jsonl` format.
pub fn to_jsonl(spans: &[Span], pass: usize) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "{{\"pass\":{pass},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\
             \"dur_ns\":{},\"count\":{},\"lanes\":{}}}\n",
            s.id, s.name, s.start_ns, s.dur_ns, s.count, s.lanes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_sum_to_the_root_span() {
        let mut tr = Tracer::new(Instant::now());
        tr.time("pass", |tr| {
            for _ in 0..3 {
                tr.time("cell.run", |tr| {
                    tr.time("core.build_cell", |_| spin(200_000));
                    // Hand-timed aggregate phases, as the round loop
                    // records them.
                    let t0 = tr.clock();
                    spin(300_000);
                    let t1 = tr.clock();
                    spin(100_000);
                    let t2 = tr.clock();
                    tr.leaf("kernel.compose", t0, t1 - t0, 10);
                    tr.leaf("kernel.deliver", t1, t2 - t1, 10);
                });
                spin(50_000);
            }
        });
        let spans = tr.finish();
        let root = spans[0].dur_ns as f64;
        let sum: u64 = self_times(&spans).iter().sum();
        assert!(
            (sum as f64 - root).abs() / root < 0.01,
            "self times {sum} vs root {root}"
        );
        assert_eq!(total(&spans, "kernel.compose").1, 30);
        assert_eq!(self_by_name(&spans)[0].0, "kernel.compose");
    }

    #[test]
    fn lanes_divide_parallel_children() {
        let spans = vec![
            Span {
                id: 0,
                parent: NO_PARENT,
                name: "engine.executor_map",
                start_ns: 0,
                dur_ns: 1_000,
                count: 1,
                lanes: 2,
            },
            Span {
                id: 1,
                parent: 0,
                name: "cell.run",
                start_ns: 0,
                dur_ns: 900,
                count: 1,
                lanes: 1,
            },
            Span {
                id: 2,
                parent: 0,
                name: "cell.run",
                start_ns: 0,
                dur_ns: 700,
                count: 1,
                lanes: 1,
            },
        ];
        // Two lanes were busy (900 + 700) / 2 = 800 of the 1000 ns.
        assert_eq!(self_times(&spans), vec![200, 450, 350]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), spans[0].dur_ns);
    }

    #[test]
    fn adopt_reparents_worker_spans() {
        let epoch = Instant::now();
        let mut worker = Tracer::new(epoch);
        worker.time("cell.run", |w| w.leaf("kernel.compose", 0, 5, 2));
        let mut tr = Tracer::new(epoch);
        let map = tr.enter("engine.executor_map");
        tr.exit(map);
        tr.adopt(map, worker.finish());
        let spans = tr.finish();
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[2].id, 2);
        let line = to_jsonl(&spans[..1], 3);
        assert!(line.starts_with("{\"pass\":3,\"id\":0,\"parent\":null,"));
    }
}
