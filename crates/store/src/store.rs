//! The content-addressed on-disk store.
//!
//! Layout under the store root:
//!
//! ```text
//! objects/<hh>/<62 hex>.json   one cached cell-seed result per file,
//!                              addressed by the SHA-256 of its key
//! index.log                    append-only `<digest> <bytes>` lines,
//!                              one per put (advisory: rebuilt by gc,
//!                              never consulted on the read path)
//! hits.log                     append-only usage log: a bare `<digest>`
//!                              line per cache hit (gc compacts it to
//!                              `<digest> <count>` lines); advisory like
//!                              the index — gc weighs eviction by it
//! pins                         one `<digest>` per line; pinned objects
//!                              (committed baselines, long campaigns) are
//!                              never evicted by gc
//! ```
//!
//! Writes are atomic (`.tmp-<pid>` then rename), so concurrent writers —
//! shards on a shared filesystem, the serve loop next to a CLI run —
//! never expose a torn object: the worst case is two processes writing
//! the same content to the same address, which is idempotent. Reads
//! verify the stored canonical key string against the requested key, so
//! corruption (or an astronomically unlikely digest collision) degrades
//! to a cache miss, never a wrong result.

use crate::key::CellKey;
use dyncode_dynet::simulator::RunResult;
use dyncode_engine::artifact::{history_from_json, history_to_json};
use dyncode_engine::Json;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Process-global obs metric handles, mirrored to on every operation (in
/// addition to the per-[`Store`] counters): `store.hits/misses/puts`
/// counters and `store.get_ns/put_ns/gc_ns` latency histograms. The
/// sidecar (`run::write_sidecar`) and `obs summarize` both read these, so
/// they reconcile exactly.
struct ObsMetrics {
    hits: &'static dyncode_obs::metrics::Counter,
    misses: &'static dyncode_obs::metrics::Counter,
    puts: &'static dyncode_obs::metrics::Counter,
    get_ns: &'static dyncode_obs::metrics::Histogram,
    put_ns: &'static dyncode_obs::metrics::Histogram,
    gc_ns: &'static dyncode_obs::metrics::Histogram,
}

fn obs_metrics() -> &'static ObsMetrics {
    static M: OnceLock<ObsMetrics> = OnceLock::new();
    M.get_or_init(|| ObsMetrics {
        hits: dyncode_obs::metrics::counter("store.hits"),
        misses: dyncode_obs::metrics::counter("store.misses"),
        puts: dyncode_obs::metrics::counter("store.puts"),
        get_ns: dyncode_obs::metrics::histogram("store.get_ns"),
        put_ns: dyncode_obs::metrics::histogram("store.put_ns"),
        gc_ns: dyncode_obs::metrics::histogram("store.gc_ns"),
    })
}

/// The object-file schema identifier; bump on incompatible change.
pub const CELL_SCHEMA: &str = "dyncode-store-cell/v1";

/// Hit/miss/put counters since [`Store::open`] (process-local).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups that found nothing (or an unreadable object).
    pub misses: u64,
    /// Objects written.
    pub puts: u64,
}

/// An on-disk usage report ([`Store::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Object files present.
    pub objects: u64,
    /// Total object bytes.
    pub bytes: u64,
    /// Digests pinned against eviction (present in `pins`; the pin may
    /// name an object not yet written).
    pub pinned: u64,
}

/// A [`Store::gc`] report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Object files removed.
    pub removed_objects: u64,
    /// Bytes reclaimed.
    pub removed_bytes: u64,
    /// Object bytes remaining after eviction.
    pub remaining_bytes: u64,
    /// Pinned objects held back from eviction (counted only when the
    /// budget would otherwise have claimed them).
    pub pinned_kept: u64,
}

/// A content-addressed store of cell results rooted at one directory.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) the store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        std::fs::create_dir_all(root.join("objects"))?;
        Ok(Store {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// This process's hit/miss/put counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
        }
    }

    fn object_path(&self, digest_hex: &str) -> PathBuf {
        let (shard, rest) = digest_hex.split_at(2);
        self.root
            .join("objects")
            .join(shard)
            .join(format!("{rest}.json"))
    }

    /// Looks up the result stored under `key`. Any failure — absent file,
    /// unparsable JSON, schema or key mismatch — is a miss, never an
    /// error: the orchestrator then recomputes and overwrites.
    pub fn get(&self, key: &CellKey) -> Option<RunResult> {
        let m = obs_metrics();
        let start = Instant::now();
        let loaded = std::fs::read_to_string(self.object_path(key.digest_hex()))
            .ok()
            .and_then(|text| decode_object(&text, key.canonical()).ok());
        m.get_ns.record(start.elapsed().as_nanos() as u64);
        match loaded {
            Some(r) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                m.hits.add(1);
                // Usage log for gc's hit-weighted eviction. Best-effort,
                // like the index: a lost append only makes the object
                // look slightly colder than it is.
                let _ = self.append_hit(key.digest_hex());
                Some(r)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                m.misses.add(1);
                None
            }
        }
    }

    /// Stores `result` under `key`: atomic tmp-then-rename write plus an
    /// `index.log` append. Returns the object path.
    pub fn put(&self, key: &CellKey, result: &RunResult) -> io::Result<PathBuf> {
        let m = obs_metrics();
        let start = Instant::now();
        let path = self.object_path(key.digest_hex());
        let dir = path.parent().expect("object path has a shard dir");
        std::fs::create_dir_all(dir)?;
        let text = encode_object(key.canonical(), result);
        let tmp = dir.join(format!("{}.tmp-{}", key.digest_hex(), std::process::id()));
        std::fs::write(&tmp, &text)?;
        std::fs::rename(&tmp, &path)?;
        // The index is advisory (a human-greppable put log); appends from
        // concurrent processes may interleave but each line is short
        // enough to land intact on any POSIX filesystem.
        use std::io::Write;
        let mut log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.root.join("index.log"))?;
        writeln!(log, "{} {}", key.digest_hex(), text.len())?;
        self.puts.fetch_add(1, Ordering::Relaxed);
        m.puts.add(1);
        m.put_ns.record(start.elapsed().as_nanos() as u64);
        Ok(path)
    }

    fn append_hit(&self, digest_hex: &str) -> io::Result<()> {
        use std::io::Write;
        let mut log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.root.join("hits.log"))?;
        writeln!(log, "{digest_hex}")
    }

    /// Parses `hits.log` into per-digest counts. Bare `<digest>` lines
    /// (live appends) count 1 each; `<digest> <count>` lines (gc's
    /// compacted form) contribute `count`. Unparsable lines are skipped —
    /// the log is advisory.
    fn hit_counts(&self) -> std::collections::HashMap<String, u64> {
        let mut counts = std::collections::HashMap::new();
        let Ok(text) = std::fs::read_to_string(self.root.join("hits.log")) else {
            return counts;
        };
        for line in text.lines() {
            let mut fields = line.split_whitespace();
            let Some(digest) = fields.next() else {
                continue;
            };
            let weight = match fields.next() {
                None => 1,
                Some(c) => match c.parse::<u64>() {
                    Ok(c) => c,
                    Err(_) => continue,
                },
            };
            *counts.entry(digest.to_string()).or_insert(0) += weight;
        }
        counts
    }

    /// Pins `digest_hex` against gc eviction: the digest is recorded in
    /// the `pins` file (atomic rewrite) and [`Store::gc`] will never
    /// remove its object. Returns `Ok(true)` if newly pinned,
    /// `Ok(false)` if it was already pinned. The digest need not name an
    /// existing object — pin-then-put works. Rejects anything that is
    /// not 64 lowercase hex characters.
    pub fn pin(&self, digest_hex: &str) -> io::Result<bool> {
        let valid = digest_hex.len() == 64
            && digest_hex
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
        if !valid {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("not a store digest (need 64 lowercase hex chars): {digest_hex:?}"),
            ));
        }
        let mut pins = self.pins()?;
        if !pins.insert(digest_hex.to_string()) {
            return Ok(false);
        }
        let mut text = String::new();
        for d in &pins {
            text.push_str(d);
            text.push('\n');
        }
        let tmp = self.root.join(format!("pins.tmp-{}", std::process::id()));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, self.root.join("pins"))?;
        Ok(true)
    }

    /// The pinned digest set (empty if no `pins` file exists).
    pub fn pins(&self) -> io::Result<std::collections::BTreeSet<String>> {
        match std::fs::read_to_string(self.root.join("pins")) {
            Ok(text) => Ok(text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(String::from)
                .collect()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Default::default()),
            Err(e) => Err(e),
        }
    }

    /// Walks `objects/` and returns every `(path, bytes, mtime)` triple,
    /// sorted by `(mtime, path)` — oldest first, ties broken by path so
    /// eviction order is deterministic.
    fn walk_objects(&self) -> io::Result<Vec<(PathBuf, u64, std::time::SystemTime)>> {
        let mut out = Vec::new();
        let objects = self.root.join("objects");
        for shard in std::fs::read_dir(&objects)? {
            let shard = shard?.path();
            if !shard.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(&shard)? {
                let path = entry?.path();
                // Skip leftovers from interrupted writes.
                if path.extension().and_then(|e| e.to_str()) != Some("json") {
                    continue;
                }
                let meta = std::fs::metadata(&path)?;
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                out.push((path, meta.len(), mtime));
            }
        }
        out.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
        Ok(out)
    }

    /// On-disk usage: object count, total bytes, and pinned digests.
    pub fn stats(&self) -> io::Result<StoreStats> {
        let objects = self.walk_objects()?;
        Ok(StoreStats {
            objects: objects.len() as u64,
            bytes: objects.iter().map(|(_, len, _)| len).sum(),
            pinned: self.pins()?.len() as u64,
        })
    }

    /// Evicts objects until total object bytes fit under `max_bytes`,
    /// then rewrites `index.log` from the survivors and compacts
    /// `hits.log` to their counts.
    ///
    /// Eviction order is coldest-first: ascending hit count (from
    /// `hits.log`), ties broken by `(mtime, path)` so a never-read store
    /// degrades to the deterministic oldest-first order. Pinned digests
    /// (see [`Store::pin`]) are never evicted — if the pinned objects
    /// alone exceed the budget, gc keeps them all and
    /// `remaining_bytes > max_bytes` in the report.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        let start = Instant::now();
        let mut objects = self.walk_objects()?;
        let pins = self.pins()?;
        let hits = self.hit_counts();
        let digest_of = |path: &Path| -> String {
            let shard = path
                .parent()
                .and_then(|d| d.file_name())
                .and_then(|s| s.to_str())
                .unwrap_or("");
            let rest = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            format!("{shard}{rest}")
        };
        // walk_objects already sorted by (mtime, path); a stable sort on
        // hit count alone preserves that as the tie-break.
        objects.sort_by_key(|(path, _, _)| hits.get(&digest_of(path)).copied().unwrap_or(0));
        let mut total: u64 = objects.iter().map(|(_, len, _)| len).sum();
        let mut report = GcReport::default();
        let mut removed = std::collections::HashSet::new();
        for (path, len, _) in &objects {
            if total <= max_bytes {
                break;
            }
            if pins.contains(&digest_of(path)) {
                report.pinned_kept += 1;
                continue;
            }
            std::fs::remove_file(path)?;
            removed.insert(path.clone());
            total -= len;
            report.removed_objects += 1;
            report.removed_bytes += len;
        }
        report.remaining_bytes = total;
        // Rebuild the index and compact the hit log to match the
        // surviving objects (atomically, like the objects themselves).
        objects.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
        let mut index = String::new();
        let mut compacted = String::new();
        for (path, len, _) in &objects {
            if removed.contains(path) {
                continue;
            }
            let digest = digest_of(path);
            index.push_str(&format!("{digest} {len}\n"));
            if let Some(&count) = hits.get(&digest) {
                compacted.push_str(&format!("{digest} {count}\n"));
            }
        }
        let tmp = self
            .root
            .join(format!("index.log.tmp-{}", std::process::id()));
        std::fs::write(&tmp, index)?;
        std::fs::rename(&tmp, self.root.join("index.log"))?;
        let tmp = self
            .root
            .join(format!("hits.log.tmp-{}", std::process::id()));
        std::fs::write(&tmp, compacted)?;
        std::fs::rename(&tmp, self.root.join("hits.log"))?;
        obs_metrics()
            .gc_ns
            .record(start.elapsed().as_nanos() as u64);
        Ok(report)
    }
}

/// Serializes a cached result: the artifact's run fields (history through
/// the artifact's own 7-column codec) plus the canonical key string and
/// the adversary name, which an artifact keeps in its cell metadata.
fn encode_object(canonical_key: &str, r: &RunResult) -> String {
    Json::obj(vec![
        ("schema", Json::Str(CELL_SCHEMA.into())),
        ("key", Json::Str(canonical_key.into())),
        ("rounds", Json::Num(r.rounds as f64)),
        ("completed", Json::Bool(r.completed)),
        ("total_bits", Json::Num(r.total_bits as f64)),
        ("max_message_bits", Json::Num(r.max_message_bits as f64)),
        ("adversary", Json::Str(r.adversary.clone())),
        ("history", history_to_json(&r.history)),
    ])
    .pretty()
}

/// Parses an object file, verifying both the schema and that the stored
/// canonical key matches the one requested.
fn decode_object(text: &str, expect_key: &str) -> Result<RunResult, String> {
    let json = Json::parse(text)?;
    if json.req("schema", Json::as_str)? != CELL_SCHEMA {
        return Err("unsupported object schema".into());
    }
    if json.req("key", Json::as_str)? != expect_key {
        return Err("stored key does not match the requested key".into());
    }
    Ok(RunResult {
        history: history_from_json(&json)?,
        rounds: json.req("rounds", Json::as_usize)?,
        completed: json.req("completed", Json::as_bool)?,
        total_bits: json.req("total_bits", Json::as_u64)?,
        max_message_bits: json.req("max_message_bits", Json::as_u64)?,
        adversary: json.req("adversary", Json::as_str)?.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncode_dynet::simulator::RoundRecord;
    use dyncode_engine::{AdversaryKind, Campaign, ClassicKind};

    fn temp_store(name: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("dyncode_store_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir).expect("open store")
    }

    fn sample_result(history: bool) -> RunResult {
        RunResult {
            rounds: 17,
            completed: true,
            total_bits: 1234,
            max_message_bits: 16,
            adversary: "shuffled-path".into(),
            history: if history {
                vec![RoundRecord {
                    round: 0,
                    edges: 7,
                    bits: 160,
                    min_dim: 0,
                    max_dim: 1,
                    total_tokens: 8,
                    done: 0,
                }]
            } else {
                vec![]
            },
        }
    }

    fn sample_key(seed: u64) -> CellKey {
        let c = Campaign::builder("s", "store tests")
            .ns(&[8])
            .adversaries(vec![AdversaryKind::Classic(ClassicKind::ShuffledPath)])
            .build()
            .unwrap();
        CellKey::new(&c.cells()[0], seed)
    }

    #[test]
    fn put_get_round_trips_exactly() {
        let store = temp_store("roundtrip");
        for (seed, history) in [(1, false), (2, true)] {
            let key = sample_key(seed);
            let r = sample_result(history);
            assert_eq!(store.get(&key), None, "cold lookup misses");
            store.put(&key, &r).expect("put");
            assert_eq!(store.get(&key), Some(r), "history={history}");
        }
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.puts), (2, 2, 2));
        assert!(store.root().join("index.log").exists());
        std::fs::remove_dir_all(store.root()).ok();
    }

    /// The object bytes existing stores hold, recorded before the history
    /// codec was shared with the artifact.
    #[test]
    fn object_bytes_are_golden() {
        let mut r = sample_result(true);
        r.history.push(RoundRecord {
            round: 1,
            edges: 9,
            bits: 1u64 << 40,
            min_dim: 1,
            max_dim: 3,
            total_tokens: 20,
            done: 2,
        });
        let text = r#"{
  "schema": "dyncode-store-cell/v1",
  "key": "the \"key\"",
  "rounds": 17,
  "completed": true,
  "total_bits": 1234,
  "max_message_bits": 16,
  "adversary": "shuffled-path",
  "history": [
    [
      0,
      7,
      160,
      0,
      1,
      8,
      0
    ],
    [
      1,
      9,
      1099511627776,
      1,
      3,
      20,
      2
    ]
  ]
}
"#;
        assert_eq!(encode_object("the \"key\"", &r), text);
        assert_eq!(decode_object(text, "the \"key\""), Ok(r));
    }

    #[test]
    fn corrupt_or_mismatched_objects_degrade_to_misses() {
        let store = temp_store("corrupt");
        let key = sample_key(2);
        store.put(&key, &sample_result(false)).expect("put");
        // Overwrite the object with garbage: read must miss, not error.
        let path = store.object_path(key.digest_hex());
        std::fs::write(&path, "{not json").unwrap();
        assert_eq!(store.get(&key), None);
        // So must nesting deep enough to overflow an unbounded parser's
        // stack — an abort no caller could contain.
        std::fs::write(&path, "[".repeat(100_000)).unwrap();
        assert_eq!(store.get(&key), None);
        // An object whose embedded key disagrees (e.g. truncated digest
        // collision) also misses.
        std::fs::write(&path, encode_object("someone-else", &sample_result(false))).unwrap();
        assert_eq!(store.get(&key), None);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn gc_evicts_to_budget_and_rewrites_the_index() {
        let store = temp_store("gc");
        for seed in 0..6 {
            store.put(&sample_key(seed), &sample_result(false)).unwrap();
        }
        let before = store.stats().unwrap();
        assert_eq!(before.objects, 6);
        // A budget of zero clears everything.
        let report = store.gc(0).unwrap();
        assert_eq!(report.removed_objects, 6);
        assert_eq!(report.remaining_bytes, 0);
        let after = store.stats().unwrap();
        assert_eq!((after.objects, after.bytes), (0, 0));
        let index = std::fs::read_to_string(store.root().join("index.log")).unwrap();
        assert!(index.is_empty(), "index rebuilt empty: {index:?}");
        // A generous budget is a no-op.
        store.put(&sample_key(9), &sample_result(false)).unwrap();
        let report = store.gc(u64::MAX).unwrap();
        assert_eq!(report.removed_objects, 0);
        assert_eq!(store.stats().unwrap().objects, 1);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn gc_evicts_cold_objects_before_hot_ones() {
        let store = temp_store("gc_hot");
        for seed in 0..4 {
            store.put(&sample_key(seed), &sample_result(false)).unwrap();
        }
        // Seed 2 is read twice, seed 0 once; 1 and 3 stay cold. All four
        // objects are the same size, so a budget of two objects must
        // evict exactly the cold pair regardless of write order.
        for seed in [2, 0, 2] {
            assert!(store.get(&sample_key(seed)).is_some());
        }
        let object_bytes = store.stats().unwrap().bytes / 4;
        let report = store.gc(2 * object_bytes).unwrap();
        assert_eq!(report.removed_objects, 2);
        assert!(store.get(&sample_key(0)).is_some(), "hot survivor");
        assert!(store.get(&sample_key(2)).is_some(), "hot survivor");
        assert_eq!(store.get(&sample_key(1)), None, "cold evictee");
        assert_eq!(store.get(&sample_key(3)), None, "cold evictee");
        // gc compacted the hit log to `digest count` lines for the
        // survivors (the two post-gc probe hits above re-appended bare
        // lines after that, which is fine — check the compacted pair).
        let log = std::fs::read_to_string(store.root().join("hits.log")).unwrap();
        let compacted: Vec<&str> = log
            .lines()
            .filter(|l| l.split_whitespace().count() == 2)
            .collect();
        assert_eq!(compacted.len(), 2, "{log:?}");
        assert!(
            compacted
                .iter()
                .any(|l| l.ends_with(" 2") && l.starts_with(sample_key(2).digest_hex())),
            "{log:?}"
        );
        // A second gc folds the probe hits into the counts.
        store.gc(u64::MAX).unwrap();
        let log = std::fs::read_to_string(store.root().join("hits.log")).unwrap();
        assert!(
            log.lines()
                .any(|l| l == format!("{} 3", sample_key(2).digest_hex())),
            "{log:?}"
        );
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn gc_never_evicts_pinned_objects() {
        let store = temp_store("gc_pin");
        for seed in 0..3 {
            store.put(&sample_key(seed), &sample_result(false)).unwrap();
        }
        // Pin the zero-hit seed-1 object; a zero budget then removes
        // everything else but keeps it.
        assert!(store.pin(sample_key(1).digest_hex()).unwrap());
        assert_eq!(store.stats().unwrap().pinned, 1);
        let report = store.gc(0).unwrap();
        assert_eq!(report.removed_objects, 2);
        assert_eq!(report.pinned_kept, 1);
        assert!(report.remaining_bytes > 0, "budget exceeded by the pin");
        assert!(store.get(&sample_key(1)).is_some(), "pinned survivor");
        // The rebuilt index lists exactly the pinned survivor.
        let index = std::fs::read_to_string(store.root().join("index.log")).unwrap();
        assert_eq!(index.lines().count(), 1);
        assert!(index.starts_with(sample_key(1).digest_hex()), "{index:?}");
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn pin_validates_digests_and_reports_idempotence() {
        let store = temp_store("pin");
        let digest = sample_key(5).digest_hex().to_string();
        assert!(store.pin(&digest).unwrap(), "first pin is new");
        assert!(!store.pin(&digest).unwrap(), "second pin is a no-op");
        assert_eq!(store.pins().unwrap().len(), 1);
        for bad in ["", "abc", &digest.to_uppercase(), &format!("{digest}0")] {
            let err = store.pin(bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad:?}");
        }
        std::fs::remove_dir_all(store.root()).ok();
    }
}
