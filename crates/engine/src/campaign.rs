//! The declarative campaign spec: sweep grids over `(n, k, d, b, T)` ×
//! protocol suite × adversary suite × seeds, with a builder API and a
//! small text parser so scenarios — and protocols — are data, not code.
//!
//! A [`Campaign`] expands into independent [`CellSpec`]s (one per grid
//! point per protocol per adversary); [`run_campaign`] shards
//! `cells × seeds` across the executor and aggregates the results into an
//! [`Artifact`]. Every cell carries its own seeds, so the parallel
//! artifact is byte-identical to the serial one.
//!
//! Protocols are named by `dyncode_core::spec::ProtocolSpec` strings
//! (`protocol = greedy-forward, field-broadcast(gf256), patch-indexed`),
//! so every algorithm the repo implements — configured variants included —
//! is a campaign grid key; each cell's label and metadata carry the
//! canonical spec string into the artifact.
//!
//! Every spec and list in the text format follows the workspace grammar
//! (`dyncode_obs::spec`); this module holds the `.camp` key table and the
//! one validation gate, [`CampaignBuilder::build`]: a campaign that
//! exists expands, labels and instantiates without panicking.

use crate::artifact::{Artifact, CellRecord};
use crate::executor::Engine;
use dyncode_core::params::{Instance, Params, Placement};
use dyncode_core::runner::{fast_ineligibility, resolve_kernel, run_spec_kernel, Kernel};
use dyncode_core::spec::ProtocolSpec;
use dyncode_dynet::simulator::{DeliverySpec, RunResult, SimConfig};
use dyncode_obs::spec::{list, split_list, value, Value};
use dyncode_scenarios::{ClassicKind, ScenarioKind};

/// Which adversary a cell runs against — the engine's name for
/// [`ScenarioKind`], the one type that names one: a classic worst-case
/// family (`adversaries = …`) or a workload model (`scenario = …`).
pub type AdversaryKind = ScenarioKind;

/// A grid dimension: either a constant or a small expression over the
/// cell's `n` (and, for `b`, its `d`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dim {
    /// A fixed value.
    Const(usize),
    /// Equal to `n` (the canonical `k = n` sweeps).
    N,
    /// `⌈log₂ n⌉ + 1` (the paper's Θ(log n) token-size regime).
    LgN1,
    /// A multiple of the cell's `d` (only meaningful for `b`).
    MulD(usize),
}

impl Dim {
    /// Evaluates at `n` with the already-evaluated `d` (`None` when
    /// evaluating `d` itself). A multiple of `d` with no `d` in scope, or
    /// one that overflows, is an error.
    pub fn eval(&self, n: usize, d: Option<usize>) -> Result<usize, String> {
        match (*self, d) {
            (Dim::Const(x), _) => Ok(x),
            (Dim::N, _) => Ok(n),
            (Dim::LgN1, _) => {
                Ok(((usize::BITS - (n.max(2) - 1).leading_zeros()) as usize).max(1) + 1)
            }
            (Dim::MulD(m), None) => Err(format!("`{m}d` is a multiple of d, and no d is in scope")),
            (Dim::MulD(m), Some(d)) => m
                .checked_mul(d)
                .ok_or_else(|| format!("`{m}d` overflows at d = {d}")),
        }
    }

    /// Parses `"n"`, `"lgn+1"`, `"<int>"`, or `"<int>d"`.
    pub fn parse(s: &str) -> Result<Dim, String> {
        let number = |raw: &str| raw.parse().map_err(|_| format!("bad dimension {s:?}"));
        match (s, s.strip_suffix('d')) {
            ("n", _) => Ok(Dim::N),
            ("lgn+1", _) => Ok(Dim::LgN1),
            (_, Some(mult)) => number(mult).map(Dim::MulD),
            (_, None) => number(s).map(Dim::Const),
        }
    }
}

/// The per-cell round cap, as a rule over `(n, k)` so one campaign can
/// sweep sizes without a hand-tuned cap per point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapRule {
    /// `c·n²` — forwarding-style caps.
    MulNN(usize),
    /// `c·n` — linear-time protocols (centralized coding).
    MulN(usize),
    /// `c·(n+k)` — indexed-broadcast-style caps.
    MulNPlusK(usize),
}

impl CapRule {
    /// Evaluates the cap at `(n, k)`; `None` on overflow.
    pub fn eval(&self, n: usize, k: usize) -> Option<usize> {
        match *self {
            CapRule::MulNN(c) => c.checked_mul(n)?.checked_mul(n),
            CapRule::MulN(c) => c.checked_mul(n),
            CapRule::MulNPlusK(c) => c.checked_mul(n.checked_add(k)?),
        }
    }

    /// Parses `"<int>nn"`, `"<int>n"`, or `"<int>(n+k)"`.
    pub fn parse(s: &str) -> Result<CapRule, String> {
        let rule = |prefix: &str| -> Result<usize, String> {
            prefix
                .parse::<usize>()
                .map_err(|_| format!("bad cap rule {s:?}"))
        };
        if let Some(p) = s.strip_suffix("(n+k)") {
            Ok(CapRule::MulNPlusK(rule(p)?))
        } else if let Some(p) = s.strip_suffix("nn") {
            Ok(CapRule::MulNN(rule(p)?))
        } else if let Some(p) = s.strip_suffix('n') {
            Ok(CapRule::MulN(rule(p)?))
        } else {
            Err(format!("bad cap rule {s:?}"))
        }
    }
}

/// A declarative sweep: the full cross product of
/// `n × T × protocol × adversary` (with `k`, `d`, `b` derived per point)
/// run over a common seed list.
#[derive(Clone, Debug, PartialEq)]
pub struct Campaign {
    /// Campaign id; names the artifact (`BENCH_<id>.json`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Protocols under test (registry specs).
    pub protocols: Vec<ProtocolSpec>,
    /// Adversary families to sweep.
    pub adversaries: Vec<AdversaryKind>,
    /// Initial token placement.
    pub placement: Placement,
    /// Node counts to sweep.
    pub ns: Vec<usize>,
    /// Token count per point.
    pub k: Dim,
    /// Token size per point.
    pub d: Dim,
    /// Message budget per point.
    pub b: Dim,
    /// Stability intervals to sweep (1 = fully dynamic).
    pub ts: Vec<usize>,
    /// Simulator seeds per cell.
    pub seeds: Vec<u64>,
    /// Seed for token generation/placement (shared by all cells).
    pub instance_seed: u64,
    /// Round-cap rule.
    pub cap: CapRule,
    /// Execution backend for every cell (`kernel = reference|fast|auto`).
    /// Results are backend-independent by the kernel equivalence
    /// contract; the default `reference` keeps committed baselines
    /// byte-identical.
    pub kernel: Kernel,
    /// Delivery models to sweep (`delivery = reliable, radio(p=0.5), …`).
    /// The default suite is `[reliable]`, whose cells elide the axis from
    /// labels, meta, and store keys — pre-layer baselines and caches stay
    /// byte-valid.
    pub deliveries: Vec<DeliverySpec>,
    /// Record per-round histories into the artifact.
    pub record_history: bool,
    /// Quick-profile node counts (`None` = first two of `ns`).
    pub quick_ns: Option<Vec<usize>>,
    /// Quick-profile seeds (`None` = first of `seeds`).
    pub quick_seeds: Option<Vec<u64>>,
}

impl Campaign {
    /// Starts a builder with required id/title and library defaults
    /// (shuffled-path adversary, one-token-per-node, `k = n`,
    /// `d = lgn+1`, `b = 2d`, `T = 1`, seeds 1–3, cap `10n²`).
    pub fn builder(id: impl Into<String>, title: impl Into<String>) -> CampaignBuilder {
        CampaignBuilder {
            campaign: Campaign {
                id: id.into(),
                title: title.into(),
                protocols: vec![ProtocolSpec::TokenForwarding],
                adversaries: vec![AdversaryKind::Classic(ClassicKind::ShuffledPath)],
                placement: Placement::OneTokenPerNode,
                ns: vec![16, 32],
                k: Dim::N,
                d: Dim::LgN1,
                b: Dim::MulD(2),
                ts: vec![1],
                seeds: vec![1, 2, 3],
                instance_seed: 42,
                cap: CapRule::MulNN(10),
                kernel: Kernel::Reference,
                deliveries: vec![DeliverySpec::Reliable],
                record_history: false,
                quick_ns: None,
                quick_seeds: None,
            },
        }
    }

    /// The quick profile: fewer sizes and seeds for CI-style smoke runs.
    /// Uses the explicit `quick_*` overrides when present, else the first
    /// two sizes and the first seed.
    pub fn quick(&self) -> Campaign {
        let mut c = self.clone();
        c.ns = self
            .quick_ns
            .clone()
            .unwrap_or_else(|| self.ns.iter().copied().take(2).collect());
        c.seeds = self
            .quick_seeds
            .clone()
            .unwrap_or_else(|| self.seeds.iter().copied().take(1).collect());
        c
    }

    /// The grid point at `n`: `d`, `k`, `b` and the round cap evaluated
    /// with checked arithmetic, the parameters checked
    /// ([`Params::check`]) and the placement fitted
    /// ([`Placement::fits`]). [`CampaignBuilder::build`] calls this for
    /// every `n` of both profiles, which is what lets
    /// [`Campaign::cells`] — its other caller — stay infallible.
    fn point(&self, n: usize) -> Result<(Params, usize), String> {
        let dim = |key: &str, why: String| format!("grid point n = {n}: `{key}`: {why}");
        let d = self.d.eval(n, None).map_err(|why| dim("d", why))?;
        let k = self.k.eval(n, Some(d)).map_err(|why| dim("k", why))?;
        let b = self.b.eval(n, Some(d)).map_err(|why| dim("b", why))?;
        let at = |why: String| format!("grid point n = {n} (k = {k}, d = {d}, b = {b}): {why}");
        let cap = self
            .cap
            .eval(n, k)
            .ok_or_else(|| at("the round cap `cap` overflows".into()))?;
        Params::check(n, k, d, b).map_err(at)?;
        self.placement
            .fits(n, k)
            .map_err(|why| at(format!("placement {}: {why}", self.placement)))?;
        Ok((Params { n, k, d, b }, cap))
    }

    /// Expands the grid into cells: `n × T × delivery × protocol ×
    /// adversary`, in that (deterministic) nesting order — adversaries
    /// vary fastest, so a protocol's row across the workload suite is
    /// contiguous in the artifact, and each delivery model carries a full
    /// contiguous protocol × adversary matrix (single-delivery campaigns
    /// — the default — are laid out exactly as before the axis existed).
    ///
    /// # Panics
    /// Panics at a grid point [`CampaignBuilder::build`] would have
    /// rejected (reachable only by editing a built campaign's fields).
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out = Vec::new();
        for &n in &self.ns {
            let (params, cap) = self.point(n).unwrap_or_else(|why| panic!("{why}"));
            for &t in &self.ts {
                for delivery in &self.deliveries {
                    for proto in &self.protocols {
                        for adv in &self.adversaries {
                            out.push(CellSpec {
                                params,
                                t,
                                adversary: adv.clone(),
                                placement: self.placement,
                                protocol: proto.clone(),
                                cap,
                                instance_seed: self.instance_seed,
                                kernel: self.kernel,
                                delivery: delivery.clone(),
                                record_history: self.record_history,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Parses a campaign from the `key = value` spec text format:
    ///
    /// ```text
    /// # scenarios — and protocols — are data, not code
    /// id = tf-nsweep
    /// title = Token forwarding n sweep
    /// protocol = token-forwarding, greedy-forward, field-broadcast(gf256)
    /// adversaries = shuffled-path, bottleneck
    /// scenario = edge-markov(0.05,0.2), churn(0.1,random-connected)
    /// placement = one-token-per-node
    /// n = 16, 32, 64
    /// k = n
    /// d = lgn+1
    /// b = 2d
    /// t = 1
    /// seeds = 1, 2, 3
    /// cap = 10nn
    /// ```
    ///
    /// List values split under the workspace grammar
    /// (`dyncode_obs::spec::split_list`), so configured specs
    /// (`greedy-forward(gather=2,bcast=3)`) work in list position. The
    /// three spec-list axes accumulate: the first `protocol` line
    /// replaces the default (`token-forwarding`) and later lines extend
    /// it; likewise `delivery`; `adversaries` and `scenario` are two
    /// spellings of one axis (any adversary spec is valid under either),
    /// so a campaign can sweep worst-case and stochastic dynamics side by
    /// side. The grid is the full cross product
    /// `n × T × delivery × protocol × adversary`.
    ///
    /// Unknown keys are errors; everything except `id` has a default
    /// (`title` defaults to the id). Errors carry the line number and
    /// key, and enumerate the valid names for the offending position.
    /// An `Ok` has passed [`CampaignBuilder::build`]'s gate: every grid
    /// point of both profiles is valid, so `cells()`, `quick().cells()`
    /// and each cell's `instance()`, `label()` and `meta()` cannot panic.
    pub fn parse(text: &str) -> Result<Campaign, String> {
        let mut c = Campaign::builder("", "").campaign;
        // The spec-list axes start empty so every line extends; one left
        // empty gets its library default back below.
        let defaults = (
            std::mem::take(&mut c.protocols),
            std::mem::take(&mut c.adversaries),
            std::mem::take(&mut c.deliveries),
        );
        let mut saw_title = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lineno = lineno + 1;
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`, got {line:?}"))?;
            let (key, value) = (key.trim(), value.trim());
            let (_, set) = KEYS.iter().find(|row| row.0 == key).ok_or_else(|| {
                format!(
                    "line {lineno}: unknown key {key:?}; valid keys: {}",
                    list(KEYS.iter().map(|row| row.0))
                )
            })?;
            set(&mut c, value).map_err(|why| format!("line {lineno} (`{key}`): {why}"))?;
            saw_title |= key == "title";
        }
        if c.id.is_empty() {
            return Err("campaign spec is missing `id`".into());
        }
        if !saw_title {
            c.title = c.id.clone();
        }
        if c.protocols.is_empty() {
            c.protocols = defaults.0;
        }
        if c.adversaries.is_empty() {
            c.adversaries = defaults.1;
        }
        if c.deliveries.is_empty() {
            c.deliveries = defaults.2;
        }
        CampaignBuilder { campaign: c }.build()
    }
}

/// How one `.camp` key's value lands in the campaign being parsed.
type SetKey = fn(&mut Campaign, &str) -> Result<(), String>;

/// The `.camp` key table: [`Campaign::parse`] dispatches on it and joins
/// its "valid keys" text from it.
const KEYS: &[(&str, SetKey)] = &[
    ("id", |c, v| set(&mut c.id, Ok(v.to_string()))),
    ("title", |c, v| set(&mut c.title, Ok(v.to_string()))),
    ("protocol", |c, v| {
        extend(&mut c.protocols, v, ProtocolSpec::parse)
    }),
    ("adversaries", |c, v| {
        extend(&mut c.adversaries, v, AdversaryKind::parse)
    }),
    ("scenario", |c, v| {
        extend(&mut c.adversaries, v, AdversaryKind::parse)
    }),
    ("placement", |c, v| set(&mut c.placement, v.parse())),
    ("n", |c, v| set(&mut c.ns, numbers(v, "n"))),
    ("k", |c, v| set(&mut c.k, Dim::parse(v))),
    ("d", |c, v| set(&mut c.d, Dim::parse(v))),
    ("b", |c, v| set(&mut c.b, Dim::parse(v))),
    ("t", |c, v| set(&mut c.ts, numbers(v, "t"))),
    ("seeds", |c, v| set(&mut c.seeds, numbers(v, "seed"))),
    ("instance_seed", |c, v| {
        set(&mut c.instance_seed, value(v, "seed", v))
    }),
    ("cap", |c, v| set(&mut c.cap, CapRule::parse(v))),
    ("kernel", |c, v| set(&mut c.kernel, Kernel::parse(v))),
    ("delivery", |c, v| {
        extend(&mut c.deliveries, v, DeliverySpec::parse)
    }),
    ("record_history", |c, v| {
        let on = v.parse().map_err(|_| format!("bad bool {v:?}"));
        set(&mut c.record_history, on)
    }),
    ("quick_n", |c, v| {
        set(&mut c.quick_ns, numbers(v, "n").map(Some))
    }),
    ("quick_seeds", |c, v| {
        set(&mut c.quick_seeds, numbers(v, "seed").map(Some))
    }),
];

/// A scalar key: the last line wins.
fn set<T>(slot: &mut T, parsed: Result<T, String>) -> Result<(), String> {
    *slot = parsed?;
    Ok(())
}

/// A number-list key (`n = 8, 16`).
fn numbers<T: Value>(v: &str, what: &str) -> Result<Vec<T>, String> {
    split_list(v)?
        .into_iter()
        .map(|s| value(s, what, v))
        .collect()
}

/// A spec-list axis key: every line extends the axis.
fn extend<T>(
    axis: &mut Vec<T>,
    v: &str,
    parse: fn(&str) -> Result<T, String>,
) -> Result<(), String> {
    let specs = split_list(v)?;
    if specs.is_empty() {
        return Err("expected at least one spec".into());
    }
    for spec in specs {
        axis.push(parse(spec)?);
    }
    Ok(())
}

/// Builder for [`Campaign`] (see [`Campaign::builder`] for the defaults).
#[derive(Clone, Debug)]
pub struct CampaignBuilder {
    campaign: Campaign,
}

impl CampaignBuilder {
    /// Sets a single protocol under test.
    pub fn protocol(mut self, p: ProtocolSpec) -> Self {
        self.campaign.protocols = vec![p];
        self
    }

    /// Sets the protocol suite to sweep.
    pub fn protocols(mut self, ps: Vec<ProtocolSpec>) -> Self {
        self.campaign.protocols = ps;
        self
    }

    /// Sets the adversary families.
    pub fn adversaries(mut self, a: Vec<AdversaryKind>) -> Self {
        self.campaign.adversaries = a;
        self
    }

    /// Sets the token placement.
    pub fn placement(mut self, p: Placement) -> Self {
        self.campaign.placement = p;
        self
    }

    /// Sets the node counts to sweep.
    pub fn ns(mut self, ns: &[usize]) -> Self {
        self.campaign.ns = ns.to_vec();
        self
    }

    /// Sets the token-count rule.
    pub fn k(mut self, k: Dim) -> Self {
        self.campaign.k = k;
        self
    }

    /// Sets the token-size rule.
    pub fn d(mut self, d: Dim) -> Self {
        self.campaign.d = d;
        self
    }

    /// Sets the message-budget rule.
    pub fn b(mut self, b: Dim) -> Self {
        self.campaign.b = b;
        self
    }

    /// Sets the stability intervals to sweep.
    pub fn ts(mut self, ts: &[usize]) -> Self {
        self.campaign.ts = ts.to_vec();
        self
    }

    /// Sets the simulator seeds per cell.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.campaign.seeds = seeds.to_vec();
        self
    }

    /// Sets the instance-generation seed.
    pub fn instance_seed(mut self, seed: u64) -> Self {
        self.campaign.instance_seed = seed;
        self
    }

    /// Sets the round-cap rule.
    pub fn cap(mut self, cap: CapRule) -> Self {
        self.campaign.cap = cap;
        self
    }

    /// Sets the execution backend for every cell.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.campaign.kernel = kernel;
        self
    }

    /// Sets a single delivery model for every cell.
    pub fn delivery(mut self, d: DeliverySpec) -> Self {
        self.campaign.deliveries = vec![d];
        self
    }

    /// Sets the delivery-model suite to sweep.
    pub fn deliveries(mut self, ds: Vec<DeliverySpec>) -> Self {
        self.campaign.deliveries = ds;
        self
    }

    /// Enables per-round history recording into the artifact.
    pub fn record_history(mut self, on: bool) -> Self {
        self.campaign.record_history = on;
        self
    }

    /// Sets the quick-profile node counts.
    pub fn quick_ns(mut self, ns: &[usize]) -> Self {
        self.campaign.quick_ns = Some(ns.to_vec());
        self
    }

    /// Sets the quick-profile seeds.
    pub fn quick_seeds(mut self, seeds: &[u64]) -> Self {
        self.campaign.quick_seeds = Some(seeds.to_vec());
        self
    }

    /// Validates and returns the campaign — the one gate between a
    /// description and a grid: whatever passes expands and generates its
    /// instances without panicking (see [`Campaign::parse`]).
    pub fn build(self) -> Result<Campaign, String> {
        let c = self.campaign;
        if c.id.is_empty() {
            return Err("campaign id must be nonempty".into());
        }
        for (empty, what) in [
            (c.ns.is_empty(), "n"),
            (c.seeds.is_empty(), "seed"),
            (c.adversaries.is_empty(), "adversary"),
            (c.protocols.is_empty(), "protocol"),
            (c.deliveries.is_empty(), "delivery model"),
        ] {
            if empty {
                return Err(format!("campaign needs at least one {what}"));
            }
        }
        if c.ts.is_empty() || c.ts.contains(&0) {
            return Err("stability intervals must be nonempty and ≥ 1".into());
        }
        // An explicit `kernel = fast` must cover every protocol in the
        // grid — catch the mismatch here, at campaign-build time, instead
        // of panicking mid-sweep inside a worker.
        if c.kernel == Kernel::Fast {
            for spec in &c.protocols {
                if let Some(why) = fast_ineligibility(spec) {
                    return Err(format!("kernel = fast: {why}"));
                }
            }
        }
        // Every n of both profiles must be a valid grid point and meet
        // each protocol's size constraint (quorum: n ≥ 5f+1) — here, not
        // as a panic when `cells()` or `instance()` runs on the caller's
        // thread, outside the executor's per-cell containment.
        for &n in c.ns.iter().chain(c.quick_ns.iter().flatten()) {
            c.point(n)?;
            for spec in &c.protocols {
                if let Err(why) = spec.validate_for_n(n) {
                    return Err(format!("protocol {spec} cannot run at n = {n}: {why}"));
                }
            }
        }
        Ok(c)
    }
}

/// One expanded grid point: everything needed to run its seeds, with no
/// shared mutable state — the unit the executor shards.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// The dissemination parameters at this point.
    pub params: Params,
    /// Stability interval (1 = fully dynamic).
    pub t: usize,
    /// Adversary family.
    pub adversary: AdversaryKind,
    /// Token placement.
    pub placement: Placement,
    /// Protocol under test (a registry spec).
    pub protocol: ProtocolSpec,
    /// Round cap.
    pub cap: usize,
    /// Instance-generation seed.
    pub instance_seed: u64,
    /// Execution backend (reference | fast | auto).
    pub kernel: Kernel,
    /// Delivery model for the broadcast step (`reliable` = legacy path).
    pub delivery: DeliverySpec,
    /// Record per-round history.
    pub record_history: bool,
}

impl CellSpec {
    /// The cell's artifact label (unique within a campaign): the
    /// canonical protocol spec string plus the grid point.
    pub fn label(&self) -> String {
        let p = &self.params;
        let mut label = format!(
            "proto={} n={} k={} d={} b={} t={} adv={}",
            self.protocol,
            p.n,
            p.k,
            p.d,
            p.b,
            self.t,
            self.adversary.name()
        );
        // Elided for the default model: pre-layer campaigns keep their
        // exact historical labels, so committed baselines gate unchanged.
        if !self.delivery.is_default() {
            label.push_str(&format!(" delivery={}", self.delivery));
        }
        label
    }

    /// The cell's artifact metadata pairs.
    pub fn meta(&self) -> Vec<(String, String)> {
        let p = &self.params;
        let mut meta = vec![
            ("protocol".into(), self.protocol.name()),
            ("adversary".into(), self.adversary.name()),
            ("n".into(), p.n.to_string()),
            ("k".into(), p.k.to_string()),
            ("d".into(), p.d.to_string()),
            ("b".into(), p.b.to_string()),
            ("t".into(), self.t.to_string()),
            ("cap".into(), self.cap.to_string()),
            ("instance_seed".into(), self.instance_seed.to_string()),
        ];
        // The *resolved* backend, recorded unconditionally: cache keys
        // (dyncode-store) and artifact provenance must always agree on
        // which kernel actually produced the cell, and `auto` must
        // record what it resolved to, not the request. (`compare`
        // ignores meta, so committed baselines need no regeneration.)
        meta.push((
            "kernel".into(),
            resolve_kernel(&self.protocol, self.kernel).name().into(),
        ));
        // The delivery axis, recorded only when non-default — `reliable`
        // cells keep byte-identical meta to pre-layer artifacts.
        if !self.delivery.is_default() {
            meta.push(("delivery".into(), self.delivery.name()));
        }
        meta
    }

    /// Generates this cell's problem instance (shared by all its seeds —
    /// the adversary places tokens once, before round one).
    pub fn instance(&self) -> Instance {
        Instance::generate(self.params, self.placement, self.instance_seed)
    }

    /// Runs this cell once from `seed`. Deterministic in `(self, seed)`;
    /// completion is asserted for dissemination exactness via
    /// `dyncode_core::runner::run_one`.
    pub fn run(&self, seed: u64) -> RunResult {
        self.run_on(&self.instance(), seed)
    }

    /// [`CellSpec::run`] against a pre-generated instance (which must be
    /// [`CellSpec::instance`] — callers sweeping many seeds generate it
    /// once instead of per seed). Dispatch goes through the protocol
    /// registry's erased factory or the fast backend per the cell's
    /// [`Kernel`] (`dyncode_core::runner::run_spec_kernel`), so any spec
    /// string the registry parses runs here — with identical results on
    /// either backend by the kernel equivalence contract.
    pub fn run_on(&self, inst: &Instance, seed: u64) -> RunResult {
        let mut config = SimConfig::with_max_rounds(self.cap);
        config.record_history = self.record_history;
        config.delivery = self.delivery.clone();
        let adv = || self.adversary.build(self.t);
        run_spec_kernel(
            &self.protocol,
            inst,
            self.t,
            &adv,
            &config,
            seed,
            self.kernel,
        )
    }
}

/// Runs a campaign on the engine: shards `cells × seeds` across the
/// workers, aggregates per cell, and returns the artifact.
///
/// A panicking cell-seed run is contained: it becomes a
/// [`RunError`](crate::RunError) in that cell's `errors` list (and counts
/// in `stats.errors`) while every other run completes normally.
pub fn run_campaign(engine: &Engine, campaign: &Campaign) -> Artifact {
    let cells = campaign.cells();
    // One instance per cell, generated up front and shared by the cell's
    // seeds (instance generation is a function of the cell spec alone).
    let instances: Vec<Instance> = cells.iter().map(CellSpec::instance).collect();
    let jobs: Vec<_> = cells
        .iter()
        .zip(&instances)
        .flat_map(|(cell, inst)| {
            campaign
                .seeds
                .iter()
                .map(move |&seed| move || cell.run_on(inst, seed))
        })
        .collect();
    let outcomes = engine.map(jobs);

    let mut artifact = Artifact::new(campaign.id.clone(), campaign.title.clone());
    // Jobs were emitted cell-major, so the outcomes chunk per cell.
    for (cell, cell_outcomes) in cells.iter().zip(outcomes.chunks(campaign.seeds.len())) {
        artifact.cells.push(CellRecord::from_outcomes(
            cell.label(),
            cell.meta(),
            campaign.seeds.iter().copied().zip(cell_outcomes),
        ));
    }
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Campaign {
        Campaign::builder("tiny", "tiny token-forwarding sweep")
            .ns(&[8, 16])
            .seeds(&[1, 2])
            .adversaries(vec![
                AdversaryKind::Classic(ClassicKind::ShuffledPath),
                AdversaryKind::Classic(ClassicKind::Bottleneck),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn grid_expansion_order_and_labels() {
        let c = tiny();
        let cells = c.cells();
        // 2 sizes × 1 T × 1 protocol × 2 adversaries.
        assert_eq!(cells.len(), 4);
        assert_eq!(
            cells[0].label(),
            "proto=token-forwarding n=8 k=8 d=4 b=8 t=1 adv=shuffled-path"
        );
        assert_eq!(
            cells[1].label(),
            "proto=token-forwarding n=8 k=8 d=4 b=8 t=1 adv=bottleneck"
        );
        assert_eq!(cells[2].params.n, 16);
        assert_eq!(cells[2].params.d, 5); // lg 16 + 1
        assert_eq!(cells[2].params.b, 10); // 2d
        assert_eq!(cells[0].cap, 10 * 8 * 8);
    }

    #[test]
    fn protocol_axis_expands_the_grid() {
        let c = Campaign::parse(
            "
            id = grid
            protocol = token-forwarding, greedy-forward(gather=2,bcast=3)
            protocol = field-broadcast(gf256)
            adversaries = shuffled-path, bottleneck
            n = 8
            seeds = 1
        ",
        )
        .expect("parse");
        assert_eq!(c.protocols.len(), 3, "first line replaces, second extends");
        let cells = c.cells();
        // 1 size × 1 T × 3 protocols × 2 adversaries, adversary fastest.
        assert_eq!(cells.len(), 6);
        assert_eq!(
            cells[0].label(),
            "proto=token-forwarding n=8 k=8 d=4 b=8 t=1 adv=shuffled-path"
        );
        assert_eq!(
            cells[1].label(),
            "proto=token-forwarding n=8 k=8 d=4 b=8 t=1 adv=bottleneck"
        );
        assert_eq!(
            cells[2].label(),
            "proto=greedy-forward(gather=2,bcast=3) n=8 k=8 d=4 b=8 t=1 adv=shuffled-path"
        );
        assert_eq!(
            cells[4].label(),
            "proto=field-broadcast(gf256) n=8 k=8 d=4 b=8 t=1 adv=shuffled-path"
        );
        // The canonical spec string rides into the cell metadata.
        let meta = cells[2].meta();
        assert_eq!(
            meta[0],
            (
                "protocol".to_string(),
                "greedy-forward(gather=2,bcast=3)".to_string()
            )
        );
    }

    #[test]
    fn campaign_runs_and_aggregates() {
        let c = tiny();
        let a = run_campaign(&Engine::new(2), &c);
        assert_eq!(a.id, "tiny");
        assert_eq!(a.cells.len(), 4);
        for cell in &a.cells {
            assert_eq!(cell.stats.runs, 2);
            assert!(cell.stats.all_completed(), "{}", cell.label);
            assert_eq!(cell.runs.len(), 2);
            assert!(cell.errors.is_empty());
            assert!(cell.stats.mean_rounds > 0.0);
            assert!(cell.stats.min_rounds <= cell.stats.max_rounds);
        }
    }

    #[test]
    fn quick_profile_shrinks() {
        let c = tiny();
        let q = c.quick();
        assert_eq!(q.ns, vec![8, 16]);
        assert_eq!(q.seeds, vec![1]);
        let explicit = Campaign::builder("x", "x")
            .ns(&[8, 16, 32])
            .quick_ns(&[8])
            .quick_seeds(&[7])
            .build()
            .unwrap()
            .quick();
        assert_eq!(explicit.ns, vec![8]);
        assert_eq!(explicit.seeds, vec![7]);
    }

    #[test]
    fn spec_text_round_trip() {
        let text = "
            # comment
            id = tf-nsweep
            title = Token forwarding n sweep  # trailing comment
            protocol = token-forwarding
            adversaries = shuffled-path, bottleneck
            placement = round-robin
            n = 8, 16
            k = n
            d = lgn+1
            b = 4d
            t = 1, 2
            seeds = 1, 2, 3
            instance_seed = 9
            cap = 20nn
            record_history = true
            quick_n = 8
            quick_seeds = 1
        ";
        let c = Campaign::parse(text).expect("parse");
        assert_eq!(c.id, "tf-nsweep");
        assert_eq!(c.title, "Token forwarding n sweep");
        assert_eq!(c.adversaries.len(), 2);
        assert_eq!(c.placement, Placement::RoundRobin);
        assert_eq!(c.b, Dim::MulD(4));
        assert_eq!(c.ts, vec![1, 2]);
        assert_eq!(c.instance_seed, 9);
        assert_eq!(c.cap, CapRule::MulNN(20));
        assert!(c.record_history);
        assert_eq!(c.cells().len(), 2 * 2 * 2);
    }

    #[test]
    fn spec_defaults_and_errors() {
        let minimal = Campaign::parse("id = x").unwrap();
        assert_eq!(minimal.title, "x");
        assert_eq!(minimal.k, Dim::N);

        assert!(Campaign::parse("").unwrap_err().contains("missing `id`"));
        let err = Campaign::parse("id = x\nbogus = 1").unwrap_err();
        assert!(
            err.contains("unknown key") && err.contains("valid keys") && err.contains("line 2"),
            "{err}"
        );
        let err = Campaign::parse("id = x\nprotocol = nope").unwrap_err();
        assert!(
            err.contains("unknown protocol")
                && err.contains("`protocol`")
                && err.contains("valid protocols")
                && err.contains("line 2"),
            "errors must carry line, key, and the registry: {err}"
        );
        let err = Campaign::parse("id = x\nadversaries = nope").unwrap_err();
        assert!(
            err.contains("unknown adversary") && err.contains("valid:"),
            "{err}"
        );
        assert!(Campaign::parse("id = x\nn = ")
            .unwrap_err()
            .contains("at least one n"));
        assert!(Campaign::parse("id = x\nt = 0").is_err());
        assert!(Campaign::parse("id = x\ncap = fast").is_err());
        assert!(Campaign::parse("id = x\nno_equals_here").is_err());
    }

    /// Texts that parse line by line but name a grid that cannot exist:
    /// `build` is the gate, so each is an `Err` naming the offending key
    /// or grid point — not a panic when `cells()` or `instance()` runs.
    #[test]
    fn the_gate_rejects_grids_that_would_panic_at_expansion() {
        for (text, names) in [
            ("d = 2d", &["`d`", "n = 16"][..]),
            ("n = 0", &["n = 0", "at least one node"]),
            ("k = 0", &["k = 0", "n = 16", "at least one token"]),
            (
                "d = 20\nb = 4",
                &["n = 16", "d=20 exceeds message size b=4"],
            ),
            ("d = 1", &["n = 16", "d = 1", "below log2(n)"]),
            ("d = 3\nb = 8", &["n = 16", "d=3 bits cannot hold 16"]),
            (
                "n = 16\nd = 3\nb = 3\nk = 4",
                &["n = 16", "b=3 below log2(n)"],
            ),
            ("k = 18446744073709551615d", &["`k`", "n = 16", "overflows"]),
            (
                "cap = 18446744073709551615nn",
                &["`cap`", "n = 16", "overflows"],
            ),
            ("quick_n = 0", &["n = 0", "at least one node"]),
            (
                "placement = all-at-node:99",
                &["placement all-at-node:99", "n = 16"],
            ),
            (
                "placement = clustered:0",
                &["placement clustered:0", "n = 16"],
            ),
            (
                "placement = clustered:99",
                &["placement clustered:99", "n = 16"],
            ),
            (
                "n = 16\nk = 32\nd = 8",
                &["placement one-token-per-node", "n = 16 (k = 32"],
            ),
        ] {
            let err = Campaign::parse(&format!("id = x\n{text}")).expect_err(text);
            for part in names {
                assert!(err.contains(part), "{text:?}: {err:?} must name {part:?}");
            }
        }
        // The builder is the same gate.
        let err = Campaign::builder("x", "x").k(Dim::Const(0)).build();
        assert!(err.unwrap_err().contains("at least one token"));
        // What passes it expands in both profiles.
        let ok = Campaign::parse("id = x\nn = 16, 40\nplacement = clustered:16").unwrap();
        assert_eq!(ok.cells().len(), 2);
        assert_eq!(ok.quick().cells().len(), 2);
    }

    /// List values follow the shared grammar: depth-0 commas, no empty
    /// pieces, each axis line extending its axis.
    #[test]
    fn list_values_follow_the_shared_grammar() {
        for bad in [
            "n = 8,,16",
            "n = 8,",
            "seeds = ,1",
            "protocol = token-forwarding,,centralized",
            "protocol = ",
            "adversaries = shuffled-path,",
            "delivery = radio(p=0.5),,reliable",
            "scenario = churn(0.1,bottleneck",
        ] {
            let err = Campaign::parse(&format!("id = x\n{bad}")).expect_err(bad);
            assert!(err.contains("line 2"), "{bad:?}: {err}");
        }
        let c = Campaign::parse(
            "id = x\nscenario =  shuffled-path \nadversaries = shuffled-path()\n\
             delivery = radio (p=0.5)\ndelivery = reliable()",
        )
        .unwrap();
        assert_eq!(c.adversaries[0], c.adversaries[1]);
        assert_eq!(c.adversaries[0].name(), "shuffled-path");
        assert_eq!(c.deliveries.len(), 2, "delivery lines accumulate too");
    }

    /// A small corpus of valid texts: the committed campaign, the seven
    /// benchmark workload shapes at smoke size, and this module's own.
    const CORPUS: &[&str] = &[
        include_str!("../../../campaigns/e21.camp"),
        "id = cb-gf2\nkernel = auto\nplacement = one-token-per-node\nd = 16\ncap = 100nn\nn = 64\n\
         protocol = field-broadcast(gf2)\nscenario = edge-markov(0.002,0.25)\nk = 32\nb = 128\n\
         seeds = 771\ninstance_seed = 5\n",
        "id = cp\nkernel = auto\nd = 16\ncap = 100nn\nn = 24\n\
         protocol = field-broadcast(m61), field-broadcast(gf257)\n\
         scenario = edge-markov(0.015,0.25)\nk = n\nb = 128\nseeds = 3\n",
        "id = ft-t8\nkernel = auto\nd = 16\ncap = 100nn\nn = 32\n\
         protocol = pipelined-forwarding(8)\nscenario = edge-markov(0.01,0.25)\n\
         k = n\nb = 128\nt = 8\nseeds = 9, 10\n",
        "id = dr\nkernel = auto\nd = 16\ncap = 100nn\nn = 16\n\
         protocol = field-broadcast(gf257,det=7), field-broadcast(m61,det=7)\n\
         adversaries = shuffled-path\nscenario = edge-markov(0.015,0.25)\nk = n\nb = 128\n",
        "id = lq\nkernel = auto\nd = 16\ncap = 100nn\nn = 64\n\
         protocol = field-broadcast(gf2), quorum-decide(f=8,q=4)\n\
         scenario = edge-markov(0.004,0.25)\ndelivery = radio(p=0.25), lossy(eps=0.3)\n\
         k = 16\nb = 128\nseeds = 4\n",
        "id = m0\nkernel = auto\nd = 16\ncap = 100nn\nn = 8\n\
         protocol = token-forwarding, pipelined-forwarding(8), greedy-forward\n\
         protocol = priority-forward, naive-coded, indexed-broadcast\n\
         protocol = field-broadcast(gf256), centralized\nadversaries = shuffled-path\n\
         scenario = edge-markov(0.1,0.3), churn(0.2,random-connected)\nk = n\nb = 32\n\
         record_history = true\n",
        "id = tf-nsweep\ntitle = Token forwarding n sweep  # trailing comment\n\
         protocol = token-forwarding\nadversaries = shuffled-path, bottleneck\n\
         placement = round-robin\nn = 8, 16\nk = n\nd = lgn+1\nb = 4d\nt = 1, 2\n\
         seeds = 1, 2, 3\ninstance_seed = 9\ncap = 20nn\nrecord_history = true\n\
         quick_n = 8\nquick_seeds = 1\n",
        "id = fastlane\nprotocol = field-broadcast(gf2), indexed-broadcast\n\
         adversaries = shuffled-path\nn = 10\nseeds = 1, 2\ncap = 50nn\nkernel = auto\n",
        "id = cross\nprotocol = token-forwarding, greedy-forward(gather=2,bcast=3)\n\
         protocol = field-broadcast(m61,det=3), patch-indexed\nplacement = all-at-node:3\n\
         n = 8\nt = 4\nseeds = 1\ncap = 500(n+k)\n",
    ];

    /// Everything `parse` promises about an `Ok`: both profiles expand,
    /// and every cell labels, describes and instantiates itself.
    fn exercise(c: &Campaign) {
        for profile in [c.clone(), c.quick()] {
            for cell in profile.cells() {
                let (label, meta) = (cell.label(), cell.meta());
                assert!(!label.is_empty() && !meta.is_empty());
                // Mutated digits can name astronomically large grids;
                // generating those is a memory question, not a panic one.
                if cell.params.n <= 64 && cell.params.k <= 64 && cell.params.d <= 4096 {
                    assert_eq!(cell.instance().tokens.len(), cell.params.k);
                }
            }
        }
    }

    #[test]
    fn the_corpus_parses_and_expands() {
        for text in CORPUS {
            exercise(&Campaign::parse(text).unwrap_or_else(|e| panic!("{e}\n{text}")));
        }
    }

    /// Hostile input (ROADMAP "Hostile inputs (a)" for `.camp`): `parse`
    /// never panics — on arbitrary bytes, on a valid text with a few
    /// bytes overwritten, or on a valid text with grid keys overridden
    /// by small random values (the gate's own territory) — and whenever
    /// it returns `Ok`, neither does anything `exercise` runs.
    #[test]
    fn parse_never_panics_and_ok_means_expandable() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xCA4F);
        let (mut accepted, mut gated) = (0, 0);
        let mut probe = |text: &[u8]| match Campaign::parse(&String::from_utf8_lossy(text)) {
            Ok(c) => {
                accepted += 1;
                exercise(&c);
            }
            Err(why) => gated += usize::from(why.starts_with("grid point")),
        };
        for case in 0..256 {
            let len = rng.random_range(0..96usize);
            probe(&(0..len).map(|_| rng.random::<u8>()).collect::<Vec<u8>>());

            let valid = CORPUS[case % CORPUS.len()];
            let mut bytes = valid.as_bytes().to_vec();
            for _ in 0..rng.random_range(1..5usize) {
                // Half the edits stay in the grammar's own alphabet.
                const ALPHABET: &[u8] = b"0123456789,()=dn#\n -.";
                let at = rng.random_range(0..bytes.len());
                bytes[at] = if rng.random::<bool>() {
                    ALPHABET[rng.random_range(0..ALPHABET.len())]
                } else {
                    rng.random::<u8>()
                };
            }
            probe(&bytes);

            let mut text = valid.to_string();
            for _ in 0..rng.random_range(1..4usize) {
                let x = rng.random_range(0..72usize);
                text.push_str(&match rng.random_range(0..9usize) {
                    0 => format!("\nn = {x}"),
                    1 => format!("\nquick_n = {x}"),
                    2 => format!("\nk = {x}"),
                    3 => format!("\nd = {x}"),
                    4 => format!("\nb = {x}"),
                    5 => format!("\nd = {x}d"),
                    6 => format!("\nplacement = clustered:{x}"),
                    7 => format!("\nplacement = all-at-node:{x}"),
                    _ => format!("\ncap = {}(n+k)", usize::MAX / (x + 1)),
                });
            }
            probe(text.as_bytes());
        }
        assert!(
            accepted >= 32 && gated >= 32,
            "both sides of the gate must be reached: {accepted} accepted, {gated} gated"
        );
    }

    #[test]
    fn dim_and_cap_parsing() {
        assert_eq!(Dim::parse("n").unwrap(), Dim::N);
        assert_eq!(Dim::parse("lgn+1").unwrap(), Dim::LgN1);
        assert_eq!(Dim::parse("12").unwrap(), Dim::Const(12));
        assert_eq!(Dim::parse("8d").unwrap(), Dim::MulD(8));
        assert!(Dim::parse("d8").is_err());
        assert_eq!(Dim::LgN1.eval(16, None), Ok(5));
        assert_eq!(Dim::MulD(3).eval(16, Some(7)), Ok(21));
        assert!(Dim::MulD(3).eval(16, None).is_err());
        assert!(Dim::MulD(usize::MAX).eval(16, Some(2)).is_err());

        assert_eq!(CapRule::parse("10nn").unwrap(), CapRule::MulNN(10));
        assert_eq!(CapRule::parse("100n").unwrap(), CapRule::MulN(100));
        assert_eq!(CapRule::parse("50(n+k)").unwrap(), CapRule::MulNPlusK(50));
        assert_eq!(CapRule::MulNPlusK(50).eval(16, 8), Some(50 * 24));
        assert_eq!(CapRule::MulNN(usize::MAX).eval(16, 8), None);
        assert!(CapRule::parse("nn10").is_err());
    }

    #[test]
    fn kernel_key_selects_the_backend_and_results_are_identical() {
        let text = "
            id = fastlane
            protocol = field-broadcast(gf2), indexed-broadcast
            adversaries = shuffled-path
            n = 10
            seeds = 1, 2
            cap = 50nn
            kernel = auto
        ";
        let fast = Campaign::parse(text).expect("parse");
        assert_eq!(fast.kernel, Kernel::Auto);
        let cells = fast.cells();
        assert!(cells.iter().all(|c| c.kernel == Kernel::Auto));
        // Meta records what `auto` *resolved to* (both specs here are
        // fast-eligible), not the request.
        assert!(cells[0]
            .meta()
            .contains(&("kernel".to_string(), "fast".to_string())));

        // Same campaign on the reference backend: identical stats and
        // runs (the equivalence contract seen from the engine).
        let mut reference = fast.clone();
        reference.kernel = Kernel::Reference;
        let a_fast = run_campaign(&Engine::new(2), &fast);
        let a_ref = run_campaign(&Engine::new(2), &reference);
        assert_eq!(a_fast.cells.len(), a_ref.cells.len());
        for (f, r) in a_fast.cells.iter().zip(&a_ref.cells) {
            assert_eq!(f.label, r.label);
            assert_eq!(f.stats, r.stats, "{}", f.label);
            assert_eq!(f.runs, r.runs, "{}", f.label);
        }
        // Reference cells record their backend too — the key is
        // unconditional so provenance and cache keys always agree.
        assert!(a_ref.cells[0]
            .meta
            .contains(&("kernel".to_string(), "reference".to_string())));

        // Bad kernel names are line-anchored errors.
        let err = Campaign::parse("id = x\nkernel = turbo").unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("valid kernels"),
            "{err}"
        );
    }

    #[test]
    fn explicit_fast_kernel_rejects_ineligible_protocols_at_build_time() {
        let text = "
            id = fastlane
            protocol = field-broadcast(gf2), patch-indexed
            adversaries = shuffled-path
            n = 10
            seeds = 1
            kernel = fast
        ";
        let err = Campaign::parse(text).unwrap_err();
        assert!(
            err.contains("kernel = fast") && err.contains("no fast kernel"),
            "{err}"
        );
        assert!(err.contains("eligible specs"), "{err}");
        // The same grid runs fine under auto (per-cell fallback).
        let ok = text.replace("kernel = fast", "kernel = auto");
        assert!(Campaign::parse(&ok).is_ok());
    }

    #[test]
    fn scenario_key_parses_and_composes_with_adversaries() {
        let text = "
            id = workloads
            protocol = token-forwarding
            adversaries = shuffled-path
            scenario = edge-markov(0.05,0.2), churn(0.1,random-connected)
            n = 8
            seeds = 1
        ";
        let c = Campaign::parse(text).expect("parse");
        assert_eq!(c.adversaries.len(), 3, "classic + two scenarios");
        assert_eq!(c.adversaries[0].name(), "shuffled-path");
        assert_eq!(c.adversaries[1].name(), "edge-markov(0.05,0.2)");
        assert_eq!(c.adversaries[2].name(), "churn(0.1,random-connected)");

        // Without `adversaries`, `scenario` replaces the default suite.
        let only = Campaign::parse("id = x\nscenario = waypoint(0.4,0.1)").unwrap();
        assert_eq!(only.adversaries.len(), 1);
        assert_eq!(only.adversaries[0].name(), "waypoint(0.4,0.1)");

        // Bad scenario specs are line-anchored errors.
        let err = Campaign::parse("id = x\nscenario = edge-markov(2,0.1)").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn scenario_campaign_runs_and_aggregates() {
        let c = Campaign::parse(
            "
            id = stochastic
            protocol = token-forwarding
            scenario = edge-markov(0.1,0.3), churn(0.15,random-connected)
            n = 8
            seeds = 1, 2
            cap = 50nn
        ",
        )
        .unwrap();
        let a = run_campaign(&Engine::new(2), &c);
        assert_eq!(a.cells.len(), 2);
        for cell in &a.cells {
            assert!(cell.stats.all_completed(), "{}", cell.label);
        }
    }

    #[test]
    fn tstable_and_pipelined_cells_run() {
        let c = Campaign::builder("t", "t-stable pipelined")
            .protocol(ProtocolSpec::PipelinedForwarding { t: None })
            .ns(&[8])
            .ts(&[1, 4])
            .seeds(&[1])
            .build()
            .unwrap();
        let a = run_campaign(&Engine::new(2), &c);
        assert_eq!(a.cells.len(), 2);
        assert!(a.cells.iter().all(|c| c.stats.all_completed()));
    }

    #[test]
    fn cross_protocol_campaign_runs_every_registry_family() {
        // Five specs × one scenario, patch-indexed (charged model) and a
        // configured field variant included: the full dispatch surface.
        let c = Campaign::parse(
            "
            id = cross
            protocol = token-forwarding, greedy-forward, indexed-broadcast
            protocol = field-broadcast(m61,det=3), patch-indexed
            adversaries = shuffled-path
            n = 8
            t = 4
            seeds = 1
            cap = 500nn
        ",
        )
        .unwrap();
        let a = run_campaign(&Engine::new(2), &c);
        assert_eq!(a.cells.len(), 5);
        for cell in &a.cells {
            assert!(cell.stats.all_completed(), "{}", cell.label);
        }
        // patch-indexed cells charge rounds but no message bits.
        let patch = a
            .cells
            .iter()
            .find(|c| c.label.starts_with("proto=patch-indexed"))
            .expect("patch cell present");
        assert_eq!(patch.runs[0].total_bits, 0);
        assert!(patch.runs[0].rounds > 0);
    }
}
