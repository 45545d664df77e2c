//! The workloads: which campaign specs each one runs, at which frozen
//! size, and how every seed in them is derived from `--seed`.
//!
//! A workload's input is a list of `.camp` campaign texts — the repo's
//! own declarative input format — so the program under test receives only
//! generated inputs. Single-cell workloads run the expanded cells in
//! process on one thread; the spool workloads write the texts into a
//! spool directory and let `serve_once` drain it on two threads. Why each
//! workload exists is recorded once, in `BENCHMARK.json` (`--list` prints
//! it); the sizes and the measured splits behind them are in the README.

/// How a workload's campaigns are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Every cell × seed through `CellSpec::run_on`, one thread.
    Cells,
    /// `serve_once` drains the spool into an empty store.
    SpoolCold,
    /// `serve_once` re-drains the spool against a populated store.
    SpoolWarm,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Execution mode.
    pub mode: Mode,
    specs: fn(&Sizer) -> Vec<(String, String)>,
}

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "coded-binary",
        mode: Mode::Cells,
        specs: coded_binary,
    },
    Workload {
        name: "coded-primefield",
        mode: Mode::Cells,
        specs: coded_primefield,
    },
    Workload {
        name: "forwarding-topology",
        mode: Mode::Cells,
        specs: forwarding_topology,
    },
    Workload {
        name: "derand-reference",
        mode: Mode::Cells,
        specs: derand_reference,
    },
    Workload {
        name: "lossy-quorum",
        mode: Mode::Cells,
        specs: lossy_quorum,
    },
    Workload {
        name: "matrix-spool-cold",
        mode: Mode::SpoolCold,
        specs: matrix_spool_cold,
    },
    Workload {
        name: "matrix-spool-warm",
        mode: Mode::SpoolWarm,
        specs: matrix_spool_warm,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Worker threads of the closed loop: single-cell workloads run on
    /// one, the spool workloads drain on two (this box has two cores).
    pub fn threads(&self) -> usize {
        match self.mode {
            Mode::Cells => 1,
            Mode::SpoolCold | Mode::SpoolWarm => 2,
        }
    }

    /// The campaign texts of this workload for `seed`, as
    /// `(file stem, text)`. `smoke` shrinks every size (n ≤ 64) so the
    /// whole suite runs in seconds; smoke numbers are not comparable with
    /// full ones.
    pub fn campaigns(&self, seed: u64, smoke: bool) -> Vec<(String, String)> {
        (self.specs)(&Sizer { seed, smoke })
    }
}

/// splitmix64: decorrelates the handful of seeds a workload needs from
/// the one `--seed`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Sizer {
    seed: u64,
    smoke: bool,
}

impl Sizer {
    fn pick(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Seed number `i` of campaign `stream`, kept below 10⁹ so the specs
    /// stay readable.
    fn derive(&self, stream: u64, i: u64) -> u64 {
        mix(mix(self.seed ^ mix(stream)).wrapping_add(i)) % 1_000_000_000
    }

    /// One campaign text. Everything common to all workloads is fixed
    /// here: to completion (`cap = 100nn`), one token per node, d = 16,
    /// `kernel = auto`.
    fn camp(&self, stream: u64, id: &str, n: usize, runs: u64, body: &str) -> (String, String) {
        let seeds: Vec<String> = (1..=runs)
            .map(|i| self.derive(stream, i).to_string())
            .collect();
        let text = format!(
            "id = {id}\nkernel = auto\nplacement = one-token-per-node\nd = 16\ncap = 100nn\n\
             n = {n}\n{body}\nseeds = {}\ninstance_seed = {}\n",
            seeds.join(", "),
            self.derive(stream, 0)
        );
        (id.to_string(), text)
    }
}

/// Edge-Markov dynamics repaired to connectivity, the stochastic
/// adversary of the single-cell workloads. The stationary edge density is
/// p_up / (p_up + p_down); `p_up` is chosen per workload for a mean degree
/// of about 4 at its n (6 and 9 on forwarding-topology), the sparse regime
/// of the issue's n = 2048 starting point.
fn edge_markov(p_up: &str) -> String {
    format!("scenario = edge-markov({p_up},0.25)")
}

fn coded_binary(s: &Sizer) -> Vec<(String, String)> {
    vec![
        s.camp(
            11,
            "cb-gf2",
            s.pick(512, 64),
            s.pick(10, 1) as u64,
            &format!(
                "protocol = field-broadcast(gf2)\n{}\nk = {}\nb = 128",
                edge_markov("0.002"),
                s.pick(128, 32)
            ),
        ),
        s.camp(
            12,
            "cb-gf256",
            s.pick(96, 32),
            s.pick(3, 1) as u64,
            &format!(
                "protocol = field-broadcast(gf256)\n{}\nk = n\nb = 128",
                edge_markov("0.01")
            ),
        ),
    ]
}

fn coded_primefield(s: &Sizer) -> Vec<(String, String)> {
    vec![s.camp(
        21,
        "cp",
        s.pick(64, 24),
        s.pick(12, 1) as u64,
        &format!(
            "protocol = field-broadcast(m61), field-broadcast(gf257)\n{}\nk = n\nb = 128",
            edge_markov("0.015")
        ),
    )]
}

fn forwarding_topology(s: &Sizer) -> Vec<(String, String)> {
    vec![
        s.camp(
            31,
            "ft-t1",
            s.pick(160, 32),
            s.pick(2, 1) as u64,
            &format!(
                "protocol = token-forwarding\n{}\nk = n\nb = 128\nt = 1",
                edge_markov("0.01")
            ),
        ),
        s.camp(
            32,
            "ft-t8",
            s.pick(224, 32),
            s.pick(2, 1) as u64,
            &format!(
                "protocol = pipelined-forwarding(8)\n{}\nk = n\nb = 128\nt = 8",
                edge_markov("0.01")
            ),
        ),
    ]
}

fn derand_reference(s: &Sizer) -> Vec<(String, String)> {
    vec![s.camp(
        41,
        "dr",
        s.pick(64, 16),
        s.pick(4, 1) as u64,
        &format!(
            "protocol = field-broadcast(gf257,det=7), field-broadcast(m61,det=7)\n\
             adversaries = shuffled-path\n{}\nk = n\nb = 128",
            edge_markov("0.015")
        ),
    )]
}

fn lossy_quorum(s: &Sizer) -> Vec<(String, String)> {
    vec![s.camp(
        51,
        "lq",
        s.pick(256, 64),
        s.pick(8, 1) as u64,
        &format!(
            "protocol = field-broadcast(gf2), quorum-decide(f=8,q=4)\n{}\n\
             delivery = radio(p=0.25), lossy(eps=0.3)\nk = {}\nb = 128",
            edge_markov("0.004"),
            s.pick(64, 16)
        ),
    )]
}

/// The `campaigns/e21.camp` grid (8 protocols × 3 adversaries) as four
/// spool files with distinct ids, instance seeds and run seeds: 96 runs.
///
/// Few, medium-sized runs rather than the thousand tiny ones the grid
/// invites: every stored run costs the file system a create, a rename and
/// a log append, and past a few hundred of those per second this box's
/// ext4 journal falls behind — a drain of 960 small runs took 0.92 s in
/// the first process and 1.4 s in every process after it. At ~100 puts
/// per second the drain time holds.
fn matrix_spool(s: &Sizer, extra: &str) -> Vec<(String, String)> {
    (0..4u64)
        .map(|i| {
            s.camp(
                61 + i,
                &format!("m{i}"),
                s.pick(32, 8),
                1,
                &format!(
                    "protocol = token-forwarding, pipelined-forwarding(8), greedy-forward\n\
                     protocol = priority-forward, naive-coded, indexed-broadcast\n\
                     protocol = field-broadcast(gf256), centralized\n\
                     adversaries = shuffled-path\n\
                     scenario = edge-markov(0.1,0.3), churn(0.2,random-connected)\n\
                     k = n\nb = 32{extra}"
                ),
            )
        })
        .collect()
}

/// The grid as committed (no history): small stored objects.
fn matrix_spool_cold(s: &Sizer) -> Vec<(String, String)> {
    matrix_spool(s, "")
}

/// The grid with per-round history recorded, so a stored run is a JSON
/// object of tens of kilobytes. Without it a warm drain is a handful of
/// system calls per run and nothing else, and its time followed the state
/// of the file system (17 % from one process to the next); with it the
/// drain is bound by the JSON codec, the layer it exists to guard. The
/// cold workload keeps the plain grid: there the history's writes were
/// the noise.
fn matrix_spool_warm(s: &Sizer) -> Vec<(String, String)> {
    matrix_spool(s, "\nrecord_history = true")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncode_engine::Campaign;

    #[test]
    fn every_spec_parses_at_both_sizes_and_follows_the_seed() {
        for w in &WORKLOADS {
            for smoke in [false, true] {
                let a = w.campaigns(42, smoke);
                assert_eq!(
                    a,
                    w.campaigns(42, smoke),
                    "{}: same seed, same inputs",
                    w.name
                );
                assert_ne!(a, w.campaigns(43, smoke), "{}: seed must matter", w.name);
                for (stem, text) in &a {
                    let c = Campaign::parse(text).unwrap_or_else(|e| panic!("{stem}: {e}\n{text}"));
                    assert_eq!(&c.id, stem);
                    assert!(!c.cells().is_empty());
                    if smoke {
                        assert!(c.ns.iter().all(|&n| n <= 64), "{stem}: smoke n ≤ 64");
                    }
                }
            }
        }
    }

    #[test]
    fn derived_seeds_do_not_collide_within_a_workload() {
        for w in &WORKLOADS {
            let mut seeds: Vec<u64> = Vec::new();
            for (_, text) in w.campaigns(7, false) {
                let c = Campaign::parse(&text).unwrap();
                seeds.extend(&c.seeds);
                seeds.push(c.instance_seed);
            }
            let n = seeds.len();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), n, "{}", w.name);
        }
    }
}
