//! The four workloads: their inputs, built from the workload seed, and the
//! references their outcomes are checked against.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use ule_core::Algorithm;
use ule_graph::gen::{self, Family, FNV_OFFSET_BASIS};
use ule_graph::{analysis, Graph, IdSpace, ImplicitTopology, NodeId, Topology};
use ule_sim::{Adversary, IdMode, Knowledge, Parallelism, SimConfig};

use crate::trace::Exec;

/// The seed whose outcome digests [`Workload::digest`] pins.
pub const DEFAULT_SEED: u64 = 1;

/// Seeds per (algorithm, family) cell of `table1-mix`. Few seeds keep a
/// pass short, so a run gets many passes to take each election's fastest
/// repeat from.
const TABLE1_SEEDS: u64 = 4;
/// Node count of every `table1-mix` graph.
const TABLE1_N: usize = 512;
/// Node counts of the `flood-lockstep` and `flood-delay-2t` graphs. An
/// election that runs out of the host's shared last-level cache goes at
/// the speed its neighbours leave it: on the reference box it moved by up
/// to 1.85× within minutes at 10⁵ nodes, and by 1.4× at 2·10⁴. These
/// elections stay mostly in the per-core caches.
const FLOOD_N: usize = 5_000;
const FLOOD_CYCLE_N: usize = 12_500;
/// Extra delivery delay, in rounds, of the bounded-delay adversary.
pub const MAX_DELAY: u64 = 2;
/// Shard threads of the parallel engine runs.
pub const SHARD_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FloodLockstep,
    FloodDelay2t,
    FloodAsync,
    Table1Mix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FloodLockstep,
        Workload::FloodDelay2t,
        Workload::FloodAsync,
        Workload::Table1Mix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FloodLockstep => "flood-lockstep",
            Workload::FloodDelay2t => "flood-delay-2t",
            Workload::FloodAsync => "flood-async",
            Workload::Table1Mix => "table1-mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Digest of the first pass's outcomes at [`DEFAULT_SEED`] (see
    /// `outcome_digest` in `main.rs`). A change that alters any election's
    /// messages, rounds, bits or leader fails the benchmark at that seed.
    pub fn digest(self) -> u64 {
        match self {
            Workload::FloodLockstep => 0x71bd_13ee_579c_8904,
            Workload::FloodDelay2t => 0x155a_4a93_79f0_6c6a,
            Workload::FloodAsync => 0xce66_893f_4c54_767d,
            Workload::Table1Mix => 0x5b7e_d1b8_cc25_65e4,
        }
    }

    /// Builds the workload's graphs and election configurations.
    pub fn setup(self, seed: u64) -> Setup {
        match self {
            Workload::FloodLockstep => flood_setup(
                seed,
                &[
                    (Family::SparseRandom, FLOOD_N, false),
                    (Family::Torus, FLOOD_N, false),
                    (Family::Cycle, FLOOD_CYCLE_N, true),
                ],
                Adversary::Lockstep,
                Parallelism::Off,
                Exec::Sim,
            ),
            Workload::FloodDelay2t => flood_setup(
                seed,
                &[
                    (Family::SparseRandom, FLOOD_N, false),
                    (Family::Torus, FLOOD_N, false),
                ],
                Adversary::BoundedDelay {
                    max_delay: MAX_DELAY,
                },
                Parallelism::Threads(SHARD_THREADS),
                Exec::Sim,
            ),
            Workload::FloodAsync => flood_setup(
                seed,
                &[
                    // No cycle: its 10⁴ rounds are 10⁴ arbiter handshakes,
                    // each a cross-thread wake-up, whose latency on a
                    // shared host swamps the runtime's own work.
                    (Family::Torus, 10_000, false),
                    (Family::SparseRandom, 10_000, false),
                ],
                Adversary::Lockstep,
                Parallelism::Off,
                Exec::Async,
            ),
            Workload::Table1Mix => table1_setup(seed),
        }
    }

    /// The run each election's outcome must equal, made outside the timed
    /// phase: the sequential engine for the sharded one, the round engine
    /// for the async runtime. `None` where the first timed outcome is the
    /// reference for the later ones.
    pub fn reference(self, case: &Case) -> Option<(SimConfig, Exec)> {
        match self {
            Workload::FloodDelay2t => Some((
                case.cfg.clone().with_parallelism(Parallelism::Off),
                Exec::Sim,
            )),
            Workload::FloodAsync => Some((case.cfg.clone(), Exec::Sim)),
            Workload::FloodLockstep | Workload::Table1Mix => None,
        }
    }
}

/// A graph, materialized or procedural.
pub enum Topo {
    Graph(Graph),
    Implicit(ImplicitTopology),
}

impl Topo {
    pub fn n(&self) -> usize {
        match self {
            Topo::Graph(g) => g.len(),
            Topo::Implicit(t) => t.n(),
        }
    }
}

/// One election of a workload.
pub struct Case {
    /// `algorithm/family/n` plus, on `table1-mix`, `#seed-index`.
    pub label: String,
    pub alg: Algorithm,
    pub family: Family,
    /// Index into [`Setup::topos`].
    pub topo: usize,
    pub cfg: SimConfig,
    pub exec: Exec,
}

impl Case {
    /// The case's cell: its label without the seed index, so a cell is
    /// one algorithm on one graph.
    pub fn cell(&self) -> &str {
        self.label.split('#').next().unwrap_or(&self.label)
    }

    /// Whether the election must elect exactly one leader. Coin-flip
    /// (success ≈ 1/e) and least-el(const) (success 1 − ε) miss with
    /// constant probability by design; their outcomes are still checked
    /// against the reference and the digest.
    pub fn must_elect(&self) -> bool {
        !matches!(self.alg, Algorithm::CoinFlip | Algorithm::LeastElConstant)
    }

    /// The node the election must elect when the algorithm pins it:
    /// FloodMax and TOLE elect the largest identifier.
    pub fn expected_leader(&self) -> Option<NodeId> {
        match (&self.cfg.ids, self.alg) {
            (IdMode::Explicit(ids), Algorithm::FloodMax | Algorithm::Tole) => Some(ids.argmax()),
            _ => None,
        }
    }
}

/// A workload's inputs and how long each set-up phase took.
pub struct Setup {
    pub topos: Vec<Topo>,
    /// Per graph, the diameter the elections are told (an upper bound on
    /// the flood workloads, exact on `table1-mix`).
    pub diameters: Vec<usize>,
    pub cases: Vec<Case>,
    /// Graph generation.
    pub build_s: f64,
    /// Diameter computation.
    pub diameter_s: f64,
    /// Identifier sampling and configuration construction.
    pub config_s: f64,
}

/// A per-election seed: the workload seed mixed with the election's label.
fn election_seed(seed: u64, label: &str) -> u64 {
    gen::fnv1a64(FNV_OFFSET_BASIS ^ seed, label.as_bytes())
}

/// FloodMax on each `(family, n, implicit)` graph, every node told `n`
/// and an upper bound on the diameter, with sampled identifiers.
fn flood_setup(
    seed: u64,
    graphs: &[(Family, usize, bool)],
    adversary: Adversary,
    parallelism: Parallelism,
    exec: Exec,
) -> Setup {
    let t = Instant::now();
    let topos: Vec<Topo> = graphs
        .iter()
        .map(|&(family, n, implicit)| {
            if implicit {
                Topo::Implicit(family.implicit(n).expect("family has an implicit form"))
            } else {
                Topo::Graph(gen::workload_graph(seed, family, n).expect("workload graph builds"))
            }
        })
        .collect();
    let build_s = t.elapsed().as_secs_f64();

    // Twice a double-sweep eccentricity bounds the diameter from above at
    // O(m) cost; implicit families have a closed form.
    let t = Instant::now();
    let bounds: Vec<usize> = topos
        .iter()
        .map(|topo| match topo {
            Topo::Graph(g) => {
                2 * analysis::diameter_double_sweep(g, 0).expect("graph is connected") as usize
            }
            Topo::Implicit(t) => t
                .diameter_hint()
                .expect("implicit families have a diameter"),
        })
        .map(|d| d.max(1))
        .collect();
    let diameter_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let cases = graphs
        .iter()
        .zip(&topos)
        .zip(&bounds)
        .enumerate()
        .map(|(i, ((&(family, _, implicit), topo), &d))| {
            let n = topo.n();
            let label = format!("floodmax/{}/{n}", family.name());
            let eseed = election_seed(seed, &label);
            let ids = IdSpace::standard(n).sample(n, &mut StdRng::seed_from_u64(eseed));
            let cfg = SimConfig::seeded(eseed)
                .with_ids(ids)
                .with_knowledge(Knowledge::n_and_diameter(n, d))
                .with_adversary(adversary.clone())
                .with_parallelism(parallelism)
                .with_edge_stats(!implicit);
            Case {
                label,
                alg: Algorithm::FloodMax,
                family,
                topo: i,
                cfg,
                exec,
            }
        })
        .collect();
    let config_s = t.elapsed().as_secs_f64();
    Setup {
        topos,
        diameters: bounds,
        cases,
        build_s,
        diameter_s,
        config_s,
    }
}

/// Every algorithm on four families at n = 512, [`TABLE1_SEEDS`] seeds
/// each, configured by [`Algorithm::config_for`] on the sequential engine.
fn table1_setup(seed: u64) -> Setup {
    let families = [
        Family::Cycle,
        Family::Torus,
        Family::SparseRandom,
        Family::DenseRandom,
    ];
    let t = Instant::now();
    let graphs: Vec<Graph> = families
        .iter()
        .map(|&f| gen::workload_graph(seed, f, TABLE1_N).expect("workload graph builds"))
        .collect();
    let build_s = t.elapsed().as_secs_f64();

    // `config_for` recomputes the exact diameter for each algorithm that
    // needs it; this phase times one computation per graph on its own.
    let t = Instant::now();
    let diameters = graphs
        .iter()
        .map(|g| analysis::diameter_exact(g).expect("graph is connected") as usize)
        .collect();
    let diameter_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut cases = Vec::new();
    for s in 0..TABLE1_SEEDS {
        for (i, (&family, g)) in families.iter().zip(&graphs).enumerate() {
            for alg in Algorithm::ALL {
                let label = format!("{}/{}/{}#{s}", alg.spec().name, family.name(), g.len());
                let cfg = alg
                    .config_for(g, election_seed(seed, &label))
                    .with_parallelism(Parallelism::Off);
                cases.push(Case {
                    label,
                    alg,
                    family,
                    topo: i,
                    cfg,
                    exec: Exec::Sim,
                });
            }
        }
    }
    let config_s = t.elapsed().as_secs_f64();
    Setup {
        topos: graphs.into_iter().map(Topo::Graph).collect(),
        diameters,
        cases,
        build_s,
        diameter_s,
        config_s,
    }
}
