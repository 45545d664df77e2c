//! The `.dct` (**d**yn**c**ode **t**race) compact binary trace format:
//! a topology schedule as delta-encoded edge flips, streamable in both
//! directions so million-round traces never materialize in memory.
//!
//! ## Layout
//!
//! ```text
//! header (24 bytes, fixed):
//!   0   magic  "DCT1"                      4 bytes
//!   4   n      node count                  u32 LE
//!   8   rounds round count                 u64 LE   (patched by finish())
//!   16  seed   provenance seed             u64 LE
//! then one frame per round:
//!   varint  flip count F
//!   varint  first flip edge id             (absent when F = 0)
//!   varint  gap to next flip id, F−1 times (strictly positive)
//! ```
//!
//! A *flip* toggles one edge relative to the previous round (round 0
//! flips against the empty graph); flip ids are the canonical edge ids of
//! [`dyncode_dynet::trace::edge_id`], sorted ascending and delta-coded as
//! gaps, then LEB128-varint'd — an unchanged round costs one byte, and a
//! slowly churning network costs a few bytes per round regardless of its
//! density.

use dyncode_dynet::graph::Graph;
use dyncode_dynet::trace::{edge_ids, graph_from_ids, num_edge_ids, symm_diff, DeltaTrace};
use std::io::{self, Read, Seek, SeekFrom, Write};

/// The 4-byte magic prefix.
pub const MAGIC: [u8; 4] = *b"DCT1";

/// Fixed header length in bytes.
pub const HEADER_LEN: u64 = 24;

/// Byte offset of the `rounds` field (patched by [`DctWriter::finish`]).
const ROUNDS_OFFSET: u64 = 8;

/// The `.dct` file header: node count, round count, provenance seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DctHeader {
    /// Node count of every graph in the trace.
    pub n: usize,
    /// Number of recorded rounds.
    pub rounds: u64,
    /// The seed the trace was recorded from (provenance only; replay
    /// ignores it).
    pub seed: u64,
}

impl DctHeader {
    fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&MAGIC)?;
        let n = u32::try_from(self.n)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "n exceeds u32"))?;
        w.write_all(&n.to_le_bytes())?;
        w.write_all(&self.rounds.to_le_bytes())?;
        w.write_all(&self.seed.to_le_bytes())
    }

    fn read_from<R: Read>(r: &mut R) -> io::Result<DctHeader> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(corrupt("bad magic: not a .dct file"));
        }
        let mut b4 = [0u8; 4];
        r.read_exact(&mut b4)?;
        let n = u32::from_le_bytes(b4) as usize;
        let mut b8 = [0u8; 8];
        r.read_exact(&mut b8)?;
        let rounds = u64::from_le_bytes(b8);
        r.read_exact(&mut b8)?;
        let seed = u64::from_le_bytes(b8);
        Ok(DctHeader { n, rounds, seed })
    }
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Writes `x` as an LEB128 varint.
fn write_varint<W: Write>(w: &mut W, mut x: u64) -> io::Result<()> {
    loop {
        let byte = (x & 0x7F) as u8;
        x >>= 7;
        if x == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads an LEB128 varint (at most 10 bytes for a u64).
fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut x = 0u64;
    for shift in (0..64).step_by(7) {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        x |= u64::from(byte[0] & 0x7F) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(x);
        }
    }
    Err(corrupt("varint longer than 10 bytes"))
}

/// Streaming `.dct` writer: push graphs (or pre-computed flip lists) one
/// round at a time; nothing but the previous round's edge ids is held in
/// memory. [`DctWriter::finish`] patches the round count into the header,
/// which is why the sink must [`Seek`] (a `File` or an in-memory
/// `Cursor`).
pub struct DctWriter<W: Write + Seek> {
    w: W,
    n: usize,
    rounds: u64,
    last: Vec<u64>,
}

impl<W: Write + Seek> DctWriter<W> {
    /// Starts a trace for graphs on `n` nodes, stamping `seed` into the
    /// header for provenance.
    pub fn new(mut w: W, n: usize, seed: u64) -> io::Result<Self> {
        DctHeader { n, rounds: 0, seed }.write_to(&mut w)?;
        Ok(DctWriter {
            w,
            n,
            rounds: 0,
            last: Vec::new(),
        })
    }

    /// Rounds written so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Appends one round given its graph (diffs against the previous
    /// round internally).
    ///
    /// # Panics
    /// Panics if `g` is not on `n` nodes.
    pub fn push(&mut self, g: &Graph) -> io::Result<()> {
        assert_eq!(g.num_nodes(), self.n, "graph size mismatch");
        let ids = edge_ids(g);
        let flips = symm_diff(&self.last, &ids);
        self.write_frame(&flips)?;
        self.last = ids;
        self.rounds += 1;
        Ok(())
    }

    /// Appends one round given its sorted, duplicate-free flip list
    /// (relative to the previous round) directly.
    pub fn push_flips(&mut self, flips: &[u64]) -> io::Result<()> {
        debug_assert!(flips.windows(2).all(|w| w[0] < w[1]), "flips not sorted");
        self.write_frame(flips)?;
        self.last = symm_diff(&self.last, flips);
        self.rounds += 1;
        Ok(())
    }

    fn write_frame(&mut self, flips: &[u64]) -> io::Result<()> {
        write_varint(&mut self.w, flips.len() as u64)?;
        let mut prev = 0u64;
        for (i, &id) in flips.iter().enumerate() {
            let delta = if i == 0 { id } else { id - prev };
            write_varint(&mut self.w, delta)?;
            prev = id;
        }
        Ok(())
    }

    /// Patches the round count into the header, flushes, and returns the
    /// sink. Dropping a writer without calling this leaves a trace whose
    /// header claims zero rounds.
    pub fn finish(mut self) -> io::Result<W> {
        self.w.seek(SeekFrom::Start(ROUNDS_OFFSET))?;
        self.w.write_all(&self.rounds.to_le_bytes())?;
        self.w.seek(SeekFrom::End(0))?;
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Streaming `.dct` reader: decodes one round per call, holding only the
/// current edge set — a million-round trace is replayed in O(edges)
/// memory.
pub struct DctReader<R: Read> {
    r: R,
    header: DctHeader,
    edges: Vec<u64>,
    consumed: u64,
}

impl<R: Read> DctReader<R> {
    /// Opens a trace, reading and validating the header.
    pub fn new(mut r: R) -> io::Result<Self> {
        let header = DctHeader::read_from(&mut r)?;
        Ok(DctReader {
            r,
            header,
            edges: Vec::new(),
            consumed: 0,
        })
    }

    /// The trace header.
    pub fn header(&self) -> &DctHeader {
        &self.header
    }

    /// Rounds decoded so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Edge count of the most recently decoded round (0 before the
    /// first) — the same live edge set the replay materializes, exposed
    /// so stats consumers don't re-derive it from flip lists.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Decodes the next round's flip list, or `None` at the end of the
    /// trace. Validates monotonicity and the edge-id range.
    pub fn next_flips(&mut self) -> io::Result<Option<Vec<u64>>> {
        if self.consumed >= self.header.rounds {
            return Ok(None);
        }
        let count = read_varint(&mut self.r)?;
        let max_id = num_edge_ids(self.header.n);
        let mut flips = Vec::with_capacity(count.min(1 << 20) as usize);
        let mut prev = 0u64;
        for i in 0..count {
            let delta = read_varint(&mut self.r)?;
            if i > 0 && delta == 0 {
                return Err(corrupt("zero gap: duplicate flip id"));
            }
            let id = prev
                .checked_add(delta)
                .ok_or_else(|| corrupt("flip id overflows u64"))?;
            if id >= max_id {
                return Err(corrupt("flip id out of range for header n"));
            }
            flips.push(id);
            prev = id;
        }
        self.edges = symm_diff(&self.edges, &flips);
        self.consumed += 1;
        Ok(Some(flips))
    }

    /// Materializes the most recently decoded round's graph (the empty
    /// graph before the first round).
    pub fn graph(&self) -> Graph {
        graph_from_ids(self.header.n, &self.edges)
    }

    /// Decodes the next round and materializes its graph, or `None` at
    /// the end of the trace.
    pub fn next_graph(&mut self) -> io::Result<Option<Graph>> {
        Ok(self.next_flips()?.map(|_| self.graph()))
    }
}

impl<R: Read + Seek> DctReader<R> {
    /// Rewinds to round 0 (the decode state resets with the stream).
    pub fn rewind(&mut self) -> io::Result<()> {
        self.r.seek(SeekFrom::Start(HEADER_LEN))?;
        self.edges.clear();
        self.consumed = 0;
        Ok(())
    }
}

/// Encodes an in-memory [`DeltaTrace`] to `.dct` bytes.
pub fn encode_trace(trace: &DeltaTrace, seed: u64) -> Vec<u8> {
    let cursor = io::Cursor::new(Vec::new());
    let mut w = DctWriter::new(cursor, trace.num_nodes(), seed).expect("in-memory write");
    for round in 0..trace.len() {
        w.push_flips(trace.flips(round)).expect("in-memory write");
    }
    w.finish().expect("in-memory write").into_inner()
}

/// Decodes `.dct` bytes into an in-memory [`DeltaTrace`] (plus header).
/// For large traces prefer the streaming [`DctReader`].
pub fn decode_trace(bytes: &[u8]) -> io::Result<(DctHeader, DeltaTrace)> {
    let mut r = DctReader::new(io::Cursor::new(bytes))?;
    let header = *r.header();
    let mut trace = DeltaTrace::new(header.n);
    while let Some(flips) = r.next_flips()? {
        trace.push_flips(flips);
    }
    Ok((header, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncode_dynet::generators;

    #[test]
    fn varints_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX];
        for &v in &values {
            write_varint(&mut buf, v).unwrap();
        }
        let mut cur = io::Cursor::new(buf);
        for &v in &values {
            assert_eq!(read_varint(&mut cur).unwrap(), v);
        }
    }

    #[test]
    fn write_read_round_trip_with_empty_and_full_deltas() {
        let path = generators::path(8);
        let star = generators::star(8, 3);
        // path → path (empty delta) → star (full rewire) → empty-ish.
        let rounds = [path.clone(), path.clone(), star.clone(), path.clone()];
        let cursor = io::Cursor::new(Vec::new());
        let mut w = DctWriter::new(cursor, 8, 42).unwrap();
        for g in &rounds {
            w.push(g).unwrap();
        }
        let bytes = w.finish().unwrap().into_inner();

        let mut r = DctReader::new(io::Cursor::new(bytes)).unwrap();
        assert_eq!(
            *r.header(),
            DctHeader {
                n: 8,
                rounds: 4,
                seed: 42
            }
        );
        for g in &rounds {
            assert_eq!(r.next_graph().unwrap().as_ref(), Some(g));
        }
        assert!(r.next_graph().unwrap().is_none(), "trace ends cleanly");
    }

    #[test]
    fn identical_round_costs_one_byte() {
        let g = generators::complete(10);
        let one_round = {
            let mut w = DctWriter::new(io::Cursor::new(Vec::new()), 10, 0).unwrap();
            w.push(&g).unwrap();
            w.finish().unwrap().into_inner().len()
        };
        let three_rounds = {
            let mut w = DctWriter::new(io::Cursor::new(Vec::new()), 10, 0).unwrap();
            w.push(&g).unwrap();
            w.push(&g).unwrap();
            w.push(&g).unwrap();
            w.finish().unwrap().into_inner().len()
        };
        assert!(one_round > 24 + 45, "first frame carries all 45 edges");
        assert_eq!(
            three_rounds,
            one_round + 2,
            "each unchanged round costs exactly one byte"
        );
    }

    #[test]
    fn encode_decode_trace_helpers_round_trip() {
        let mut trace = DeltaTrace::new(0);
        trace.push(&generators::cycle(6));
        trace.push(&generators::path(6));
        trace.push(&generators::path(6));
        let bytes = encode_trace(&trace, 7);
        let (header, back) = decode_trace(&bytes).unwrap();
        assert_eq!(header.n, 6);
        assert_eq!(header.rounds, 3);
        assert_eq!(header.seed, 7);
        assert_eq!(back, trace);
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        assert!(DctReader::new(io::Cursor::new(b"NOPE".to_vec())).is_err());

        // Out-of-range flip id: header says n = 3 (max id 3) but the
        // frame flips id 5.
        let cursor = io::Cursor::new(Vec::new());
        let mut w = DctWriter::new(cursor, 20, 0).unwrap();
        w.push(&generators::star(20, 0)).unwrap();
        let mut bytes = w.finish().unwrap().into_inner();
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes()); // shrink n
        let mut r = DctReader::new(io::Cursor::new(bytes)).unwrap();
        assert!(r.next_flips().is_err());

        // Truncated frame: header promises a round that is not there.
        let cursor = io::Cursor::new(Vec::new());
        let w = DctWriter::new(cursor, 4, 0).unwrap();
        let mut bytes = w.finish().unwrap().into_inner();
        bytes[8..16].copy_from_slice(&1u64.to_le_bytes()); // claim 1 round
        let mut r = DctReader::new(io::Cursor::new(bytes)).unwrap();
        assert!(r.next_flips().is_err());
    }

    #[test]
    fn rewind_restarts_the_decode() {
        let cursor = io::Cursor::new(Vec::new());
        let mut w = DctWriter::new(cursor, 5, 0).unwrap();
        let a = generators::path(5);
        let b = generators::star(5, 2);
        w.push(&a).unwrap();
        w.push(&b).unwrap();
        let bytes = w.finish().unwrap().into_inner();
        let mut r = DctReader::new(io::Cursor::new(bytes)).unwrap();
        assert_eq!(r.next_graph().unwrap(), Some(a.clone()));
        assert_eq!(r.next_graph().unwrap(), Some(b));
        r.rewind().unwrap();
        assert_eq!(r.consumed(), 0);
        assert_eq!(r.next_graph().unwrap(), Some(a));
    }
}
