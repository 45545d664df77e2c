//! Record and replay `.dct` traces through the [`Adversary`] interface.
//!
//! Because the round driver hands adversaries a *private* RNG stream
//! (`dyncode_dynet::simulator::adversary_rng`), substituting a
//! [`DctReplay`] (which draws nothing) for the stochastic adversary that
//! produced the trace leaves the protocol's coins untouched: a run
//! replayed from a recorded trace reproduces the original [`RunResult`]
//! (rounds, bits, history) exactly — the paired-comparison workhorse
//! behind experiment e20.
//!
//! [`RunResult`]: dyncode_dynet::simulator::RunResult

use crate::dct::{DctHeader, DctReader, DctWriter};
use crate::ScenarioKind;
use dyncode_dynet::adversary::{Adversary, KnowledgeView};
use dyncode_dynet::graph::Graph;
use dyncode_dynet::simulator::adversary_rng;
use rand::rngs::StdRng;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, Write};
use std::path::Path;

/// An adversary replaying a `.dct` trace by streaming it: only the
/// current edge set lives in memory, so arbitrarily long traces replay in
/// O(edges) space. Past the end the trace cycles (rewinding the stream).
pub struct DctReplay<R: Read + Seek> {
    reader: DctReader<R>,
    /// `(round index within the trace, its graph)` — the round most
    /// recently served, cached because `TStable` re-asks for it.
    current: Option<(u64, Graph)>,
}

/// The file-backed replay adversary (what `scenario = trace(path)`
/// builds).
pub type DctReplayAdversary = DctReplay<BufReader<File>>;

impl DctReplayAdversary {
    /// Opens a `.dct` file for streaming replay.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        DctReplay::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read + Seek> DctReplay<R> {
    /// Wraps a seekable `.dct` stream.
    ///
    /// # Errors
    /// Fails on a bad header or a zero-round trace.
    pub fn new(source: R) -> io::Result<Self> {
        let reader = DctReader::new(source)?;
        if reader.header().rounds == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "cannot replay an empty trace",
            ));
        }
        Ok(DctReplay {
            reader,
            current: None,
        })
    }

    /// The trace header.
    pub fn header(&self) -> &DctHeader {
        self.reader.header()
    }

    fn graph_at(&mut self, idx: u64) -> io::Result<Graph> {
        if let Some((at, g)) = &self.current {
            if *at == idx {
                return Ok(g.clone());
            }
        }
        if self.reader.consumed() > idx {
            self.reader.rewind()?;
        }
        // Skipped rounds (all but one per window under `TStable`) are
        // decoded as flips only; just the round asked for is built.
        while self.reader.consumed() <= idx {
            if self.reader.next_flips()?.is_none() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "trace ended before its header said",
                ));
            }
        }
        let g = self.reader.graph();
        self.current = Some((idx, g.clone()));
        Ok(g)
    }
}

impl<R: Read + Seek> Adversary for DctReplay<R> {
    fn name(&self) -> String {
        format!("trace-replay({} rounds)", self.reader.header().rounds)
    }

    fn topology(&mut self, round: usize, view: &KnowledgeView, _rng: &mut StdRng) -> Graph {
        let header = *self.reader.header();
        assert_eq!(
            view.num_nodes(),
            header.n,
            "trace is for n={} but the run has n={}",
            header.n,
            view.num_nodes()
        );
        let idx = (round as u64) % header.rounds;
        self.graph_at(idx)
            .unwrap_or_else(|e| panic!("trace replay failed at round {round}: {e}"))
    }

    fn needs_view(&self) -> bool {
        false
    }
}

/// Wraps an adversary, streaming every emitted topology into a
/// [`DctWriter`]. Call [`DctRecording::finish`] to patch the header when
/// the run is over.
pub struct DctRecording<A, W: Write + Seek> {
    inner: A,
    writer: Option<DctWriter<W>>,
}

impl<A: Adversary, W: Write + Seek> DctRecording<A, W> {
    /// Wraps `inner`, recording into `writer`.
    pub fn new(inner: A, writer: DctWriter<W>) -> Self {
        DctRecording {
            inner,
            writer: Some(writer),
        }
    }

    /// Finalizes the trace (header round count) and returns the inner
    /// adversary and the sink.
    pub fn finish(mut self) -> io::Result<(A, W)> {
        let w = self
            .writer
            .take()
            .expect("finish is consuming, the writer is present")
            .finish()?;
        Ok((self.inner, w))
    }
}

impl<A: Adversary, W: Write + Seek> Adversary for DctRecording<A, W> {
    fn name(&self) -> String {
        format!("dct-recorded({})", self.inner.name())
    }

    fn topology(&mut self, round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        let g = self.inner.topology(round, view, rng);
        self.writer
            .as_mut()
            .expect("recording already finished")
            .push(&g)
            .unwrap_or_else(|e| panic!("trace write failed at round {round}: {e}"));
        g
    }

    fn needs_view(&self) -> bool {
        self.inner.needs_view()
    }
}

/// Records `rounds` topologies of `scenario` on `n` nodes into `sink`,
/// driving the adversary with the **same private RNG stream** a live
/// simulator run from `seed` would use and a blank knowledge view.
///
/// For oblivious scenario models (edge-Markov, waypoint, churn over an
/// oblivious base — everything [`ScenarioKind`] builds except
/// knowledge-adaptive bases) the recorded schedule is bit-identical to
/// what `simulator::run(…, seed)` would feed the protocol, so replaying
/// it against the same seed reproduces the run exactly.
pub fn record_scenario<W: Write + Seek>(
    scenario: &ScenarioKind,
    n: usize,
    rounds: usize,
    seed: u64,
    sink: W,
) -> io::Result<DctHeader> {
    let adv = scenario.build(1);
    let mut rng = adversary_rng(seed);
    let view = KnowledgeView::blank(n, 1);
    let mut rec = DctRecording::new(adv, DctWriter::new(sink, n, seed)?);
    for round in 0..rounds {
        rec.topology(round, &view, &mut rng);
    }
    let (_, mut sink) = rec.finish()?;
    sink.flush()?;
    Ok(DctHeader {
        n,
        rounds: rounds as u64,
        seed,
    })
}

/// [`record_scenario`] straight to a file path (buffered).
pub fn record_scenario_to_file(
    scenario: &ScenarioKind,
    n: usize,
    rounds: usize,
    seed: u64,
    path: impl AsRef<Path>,
) -> io::Result<DctHeader> {
    let file = File::create(path)?;
    let header = record_scenario(scenario, n, rounds, seed, BufWriter::new(file))?;
    Ok(header)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_markov::EdgeMarkovAdversary;
    use rand::SeedableRng;
    use std::io::Cursor;

    fn record_in_memory(rounds: usize, seed: u64) -> Vec<u8> {
        let adv = EdgeMarkovAdversary::new(0.1, 0.2);
        let view = KnowledgeView::blank(9, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rec = DctRecording::new(
            adv,
            DctWriter::new(Cursor::new(Vec::new()), 9, seed).unwrap(),
        );
        for r in 0..rounds {
            rec.topology(r, &view, &mut rng);
        }
        rec.finish().unwrap().1.into_inner()
    }

    /// Every graph of a trace, decoded straight from its bytes.
    fn decode_all(bytes: &[u8]) -> Vec<Graph> {
        let mut direct = DctReader::new(Cursor::new(bytes)).unwrap();
        let mut graphs = Vec::new();
        while let Some(g) = direct.next_graph().unwrap() {
            graphs.push(g);
        }
        graphs
    }

    #[test]
    fn recorded_trace_replays_identically_and_cycles() {
        let bytes = record_in_memory(7, 3);

        // Decode the originals straight from the bytes…
        let originals = decode_all(&bytes);
        assert_eq!(originals.len(), 7);

        // …and through the replay adversary, in order and cycling.
        let mut replay = DctReplay::new(Cursor::new(bytes)).unwrap();
        let view = KnowledgeView::blank(9, 2);
        let mut rng = StdRng::seed_from_u64(999);
        for (r, g) in originals.iter().enumerate() {
            assert_eq!(&replay.topology(r, &view, &mut rng), g);
        }
        assert_eq!(&replay.topology(7, &view, &mut rng), &originals[0]);
        assert_eq!(&replay.topology(8, &view, &mut rng), &originals[1]);
        // Re-asking for the same round (TStable does this) is served from
        // the cache, and a backward jump rewinds cleanly.
        assert_eq!(&replay.topology(8, &view, &mut rng), &originals[1]);
        assert_eq!(&replay.topology(2, &view, &mut rng), &originals[2]);
    }

    #[test]
    fn t_stable_replay_serves_each_window_start_across_wrap_arounds() {
        // TStable(3) consults the replay at rounds 0, 3, 6, …: every call
        // skips two recorded rounds, and over 20 rounds the 5-round trace
        // wraps twice (rewinding the stream mid-window).
        let bytes = record_in_memory(5, 11);
        let originals = decode_all(&bytes);
        let replay = DctReplay::new(Cursor::new(bytes)).unwrap();
        let mut stable = dyncode_dynet::adversary::TStable::new(replay, 3);
        let view = KnowledgeView::blank(9, 2);
        let mut rng = StdRng::seed_from_u64(0);
        for r in 0..20 {
            let want = &originals[(r / 3 * 3) % 5];
            assert_eq!(&stable.topology(r, &view, &mut rng), want, "round {r}");
        }
    }

    #[test]
    fn record_scenario_matches_live_adversary_stream() {
        let kind = ScenarioKind::parse("edge-markov(0.08,0.25)").unwrap();
        let mut bytes = Cursor::new(Vec::new());
        record_scenario(&kind, 11, 6, 42, &mut bytes).unwrap();

        // A live adversary driven by the simulator's private stream for
        // the same seed must emit exactly the recorded schedule.
        let mut live = kind.build(1);
        let mut rng = adversary_rng(42);
        let view = KnowledgeView::blank(11, 1);
        let mut replay = DctReplay::new(Cursor::new(bytes.into_inner())).unwrap();
        let mut rng2 = StdRng::seed_from_u64(0);
        for r in 0..6 {
            let expect = live.topology(r, &view, &mut rng);
            assert_eq!(replay.topology(r, &view, &mut rng2), expect, "round {r}");
        }
    }

    #[test]
    fn wrong_n_is_rejected_loudly() {
        let bytes = record_in_memory(3, 1);
        let mut replay = DctReplay::new(Cursor::new(bytes)).unwrap();
        let view = KnowledgeView::blank(4, 2); // trace is for n = 9
        let mut rng = StdRng::seed_from_u64(0);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            replay.topology(0, &view, &mut rng)
        }));
        assert!(res.is_err());
    }

    #[test]
    fn empty_trace_is_rejected() {
        let w = DctWriter::new(Cursor::new(Vec::new()), 5, 0).unwrap();
        let bytes = w.finish().unwrap().into_inner();
        assert!(DctReplay::new(Cursor::new(bytes)).is_err());
    }
}
