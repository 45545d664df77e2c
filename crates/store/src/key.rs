//! Canonical cache keys: a cell-seed run is a pure function of its spec,
//! so its result is addressed by the SHA-256 of a canonical string over
//! every determinant — schema version, canonical protocol spec string,
//! adversary name, the full grid point `(n, k, d, b, T, cap)`, placement,
//! instance seed, history flag, the **resolved** kernel, and the
//! simulator seed.
//!
//! Two invariants matter (locked by `tests/prop.rs`):
//!
//! * **Re-parse invariance** — protocol specs and adversary names
//!   round-trip through their canonical strings (`parse ∘ Display = id`),
//!   so a key computed from a re-parsed spec equals the original's.
//! * **Kernel resolution** — the key records the *resolved* backend
//!   ([`dyncode_core::runner::resolve_kernel`]), so `kernel = auto` and
//!   `kernel = fast` share cache entries on fast-eligible specs: by the
//!   kernel equivalence contract their results are bit-identical, and the
//!   resolved name is exactly what the artifact's cell meta records.

use crate::sha::sha256_hex;
use dyncode_core::runner::resolve_kernel;
use dyncode_engine::{Campaign, CellSpec};

/// The key-schema version folded into every digest; bump on any change
/// to the canonical string layout (old cache entries then simply miss).
pub const KEY_SCHEMA: &str = "dyncode-store/v1";

/// Everything that determines a cell's result *except* the simulator
/// seed, as one canonical string. [`CellKey`] appends the seed; the
/// campaign digest joins these per cell.
pub fn cell_prefix(cell: &CellSpec) -> String {
    let p = &cell.params;
    let mut prefix = format!(
        "{KEY_SCHEMA}|proto={}|adv={}|n={}|k={}|d={}|b={}|t={}|cap={}|placement={}|\
         instance_seed={}|history={}|kernel={}",
        cell.protocol,
        cell.adversary.name(),
        p.n,
        p.k,
        p.d,
        p.b,
        cell.t,
        cell.cap,
        cell.placement,
        cell.instance_seed,
        cell.record_history,
        resolve_kernel(&cell.protocol, cell.kernel).name(),
    );
    // The delivery axis entered the canonical string after v1 shipped;
    // the default (`reliable`) is elided so every pre-axis cache object
    // keeps its exact legacy address — warm caches survive the upgrade.
    if !cell.delivery.is_default() {
        prefix.push_str(&format!("|delivery={}", cell.delivery));
    }
    prefix
}

/// The content address of one cell-seed run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellKey {
    canonical: String,
    digest: String,
}

impl CellKey {
    /// Builds the key for `cell` run from `seed`.
    pub fn new(cell: &CellSpec, seed: u64) -> CellKey {
        let canonical = format!("{}|seed={seed}", cell_prefix(cell));
        let digest = sha256_hex(canonical.as_bytes());
        CellKey { canonical, digest }
    }

    /// The full canonical key string (stored inside each object file so
    /// corruption and hash collisions are detectable on read).
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The 64-char lowercase hex SHA-256 of the canonical string — the
    /// object's address under `objects/`.
    pub fn digest_hex(&self) -> &str {
        &self.digest
    }
}

/// The campaign digest: the SHA-256 over the campaign's identity (id and
/// title, which name the artifact), its seed list, and every expanded
/// cell's [`cell_prefix`] in grid order.
///
/// Shards of the same campaign share this digest (it is computed over
/// the **full** grid, before shard selection), so `merge` can verify the
/// shards belong together and `--resume` can verify a partial artifact
/// was produced by the same effective campaign — quick vs full profiles,
/// edited seed lists, or any grid change all produce different digests.
pub fn campaign_digest(campaign: &Campaign) -> String {
    let seeds: Vec<String> = campaign.seeds.iter().map(u64::to_string).collect();
    let mut text = format!(
        "{KEY_SCHEMA}|campaign|id={}|title={}|seeds={}",
        campaign.id,
        campaign.title,
        seeds.join(",")
    );
    for cell in campaign.cells() {
        text.push('\n');
        text.push_str(&cell_prefix(&cell));
    }
    sha256_hex(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncode_engine::{AdversaryKind, ClassicKind, Kernel};

    fn campaign() -> Campaign {
        Campaign::builder("kx", "key tests")
            .ns(&[8])
            .seeds(&[1, 2])
            .adversaries(vec![
                AdversaryKind::Classic(ClassicKind::ShuffledPath),
                AdversaryKind::Classic(ClassicKind::Bottleneck),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn keys_are_stable_and_seed_sensitive() {
        let cells = campaign().cells();
        let k1 = CellKey::new(&cells[0], 1);
        assert_eq!(k1, CellKey::new(&cells[0], 1), "same inputs, same key");
        assert_ne!(k1.digest_hex(), CellKey::new(&cells[0], 2).digest_hex());
        assert_ne!(k1.digest_hex(), CellKey::new(&cells[1], 1).digest_hex());
        assert!(k1.canonical().starts_with(KEY_SCHEMA));
        assert!(k1.canonical().contains("proto=token-forwarding"));
        assert!(k1.canonical().contains("kernel=reference"));
        assert!(k1.canonical().ends_with("seed=1"));
        assert_eq!(k1.digest_hex().len(), 64);
    }

    #[test]
    fn auto_and_fast_share_keys_on_eligible_specs() {
        let mut c = campaign();
        c.protocols = vec![dyncode_engine::ProtocolSpec::parse("field-broadcast(gf2)").unwrap()];
        let base = c.cells();
        c.kernel = Kernel::Auto;
        let auto = c.cells();
        c.kernel = Kernel::Fast;
        let fast = c.cells();
        // auto resolves to fast on gf2: identical results, identical key.
        assert_eq!(
            CellKey::new(&auto[0], 1).digest_hex(),
            CellKey::new(&fast[0], 1).digest_hex()
        );
        // The reference backend is a different key (different provenance).
        assert_ne!(
            CellKey::new(&base[0], 1).digest_hex(),
            CellKey::new(&fast[0], 1).digest_hex()
        );
    }

    #[test]
    fn campaign_digest_is_grid_sensitive_but_shard_independent() {
        let c = campaign();
        let d = campaign_digest(&c);
        assert_eq!(d, campaign_digest(&c.clone()));
        let mut seeds = c.clone();
        seeds.seeds = vec![1];
        assert_ne!(d, campaign_digest(&seeds));
        let mut title = c.clone();
        title.title = "renamed".into();
        assert_ne!(d, campaign_digest(&title));
        let mut grid = c.clone();
        grid.ns = vec![8, 16];
        assert_ne!(d, campaign_digest(&grid));
    }
}
