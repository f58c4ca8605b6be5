//! A uniform handle on every election algorithm in the crate.
//!
//! The experiment harnesses (Table 1 regeneration, the trade-off figure,
//! the lower-bound sweeps) iterate over algorithms; [`Algorithm`] names
//! them, [`AlgorithmSpec`] documents their requirements and claimed
//! bounds, and [`Algorithm::run`] executes one seeded trial with the
//! correct knowledge flags, identifier mode, and round budget.

use crate::{baseline, clustering, dfs_agent, kingdom, las_vegas, least_el, size_estimate};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ule_graph::{analysis, Graph, IdAssignment, IdSpace, Topology};
use ule_sim::{Knowledge, RunOutcome, RuntimeKind, SimConfig};

/// Every election algorithm implemented from the paper (the spanner-based
/// Corollary 4.2 lives in `ule-spanner`, which layers on this crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Least-El with `f(n) = n` (\[11\]; the basis of Theorem 4.4).
    LeastElAll,
    /// Theorem 4.4(A): `f(n) = Θ(log n)`.
    LeastElWhp,
    /// Theorem 4.4(B) with ε = 0.1: `f(n) = 4·ln 10`.
    LeastElConstant,
    /// Corollary 4.5: size estimation, zero knowledge, Las Vegas.
    SizeEstimate,
    /// Corollary 4.6: knows `n` and `D`, Las Vegas, expected `O(m)`/`O(D)`.
    LasVegas,
    /// Theorem 4.7 / Algorithm 1: clustering.
    Clustering,
    /// Theorem 4.1: DFS agents, `O(m)` messages, unbounded time.
    DfsAgent,
    /// Theorem 4.10 / Algorithm 2, known-`D` schedule.
    KingdomKnownD,
    /// Theorem 4.10 / Algorithm 2, doubling-radius schedule (no knowledge).
    KingdomDoubling,
    /// Baseline: FloodMax with known `D`.
    FloodMax,
    /// Peleg \[20\]-style time-optimal election: `O(D)` time, echo
    /// termination, no knowledge.
    Tole,
    /// Baseline: the §1 coin-flip algorithm (success ≈ 1/e).
    CoinFlip,
}

/// Static description of an algorithm's requirements and claimed bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgorithmSpec {
    /// Short name for tables.
    pub name: &'static str,
    /// Where in the paper the algorithm lives.
    pub reference: &'static str,
    /// Whether unique identifiers are required.
    pub needs_ids: bool,
    /// Whether knowledge of `n` is required.
    pub needs_n: bool,
    /// Whether knowledge of `D` is required.
    pub needs_diameter: bool,
    /// Whether the algorithm is deterministic.
    pub deterministic: bool,
    /// Claimed time bound (as printed in Table 1).
    pub time: &'static str,
    /// Claimed message bound.
    pub messages: &'static str,
    /// Claimed success probability.
    pub success: &'static str,
}

impl Algorithm {
    /// All algorithms, in Table 1 order.
    pub const ALL: [Algorithm; 12] = [
        Algorithm::LeastElAll,
        Algorithm::LeastElWhp,
        Algorithm::LeastElConstant,
        Algorithm::SizeEstimate,
        Algorithm::LasVegas,
        Algorithm::Clustering,
        Algorithm::DfsAgent,
        Algorithm::KingdomKnownD,
        Algorithm::KingdomDoubling,
        Algorithm::FloodMax,
        Algorithm::Tole,
        Algorithm::CoinFlip,
    ];

    /// Looks an algorithm up by its [`AlgorithmSpec::name`] string (the
    /// registry the campaign runner sweeps by name).
    pub fn by_name(name: &str) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.spec().name == name)
    }

    /// The claimed asymptotic *shape* of this algorithm's cost on a
    /// concrete instance, as `(time_shape, message_shape)` — measured cost
    /// divided by these should stay a flat constant across a sweep if the
    /// Table 1 claim's shape holds.
    pub fn claimed_shape(self, n: usize, m: usize, d: usize) -> (f64, f64) {
        let n_f = n as f64;
        let m_f = m as f64;
        let d_f = d.max(1) as f64;
        let ln_n = n_f.max(2.0).ln();
        let lnln_n = ln_n.max(1.0).ln().max(1.0);
        match self {
            Algorithm::LeastElAll | Algorithm::SizeEstimate => (d_f, m_f * ln_n.min(d_f)),
            Algorithm::LeastElWhp => (d_f, m_f * lnln_n.min(d_f)),
            Algorithm::LeastElConstant | Algorithm::LasVegas => (d_f, m_f),
            Algorithm::Clustering => (d_f * ln_n, m_f + n_f * ln_n),
            // Sequential identifiers: the minimum is 1, time ≈ 4m·2.
            Algorithm::DfsAgent => (8.0 * m_f, m_f),
            Algorithm::KingdomKnownD => (d_f * ln_n, m_f * ln_n),
            Algorithm::KingdomDoubling => (n_f + d_f * ln_n, m_f * ln_n),
            Algorithm::FloodMax => (d_f, m_f * d_f),
            Algorithm::Tole => (d_f, m_f * d_f.min(n_f)),
            Algorithm::CoinFlip => (1.0, 1.0),
        }
    }

    /// This algorithm's requirements and claimed bounds.
    pub fn spec(self) -> AlgorithmSpec {
        match self {
            Algorithm::LeastElAll => AlgorithmSpec {
                name: "least-el(n)",
                reference: "Thm 4.4, f=n ([11])",
                needs_ids: false,
                needs_n: true,
                needs_diameter: false,
                deterministic: false,
                time: "O(D)",
                messages: "O(m·min(log n, D))",
                success: "whp",
            },
            Algorithm::LeastElWhp => AlgorithmSpec {
                name: "least-el(log n)",
                reference: "Thm 4.4(A)",
                needs_ids: false,
                needs_n: true,
                needs_diameter: false,
                deterministic: false,
                time: "O(D)",
                messages: "O(m·min(log log n, D))",
                success: "whp",
            },
            Algorithm::LeastElConstant => AlgorithmSpec {
                name: "least-el(const)",
                reference: "Thm 4.4(B), ε=0.1",
                needs_ids: false,
                needs_n: true,
                needs_diameter: false,
                deterministic: false,
                time: "O(D)",
                messages: "O(m)",
                success: "1−ε",
            },
            Algorithm::SizeEstimate => AlgorithmSpec {
                name: "size-estimate",
                reference: "Cor 4.5",
                needs_ids: true,
                needs_n: false,
                needs_diameter: false,
                deterministic: false,
                time: "O(D)",
                messages: "O(m·min(log n, D)) whp",
                success: "1",
            },
            Algorithm::LasVegas => AlgorithmSpec {
                name: "las-vegas(n,D)",
                reference: "Cor 4.6",
                needs_ids: false,
                needs_n: true,
                needs_diameter: true,
                deterministic: false,
                time: "exp. O(D)",
                messages: "exp. O(m)",
                success: "1",
            },
            Algorithm::Clustering => AlgorithmSpec {
                name: "clustering",
                reference: "Thm 4.7 / Alg 1",
                needs_ids: false,
                needs_n: true,
                needs_diameter: false,
                deterministic: false,
                time: "O(D log n)",
                messages: "O(m + n log n)",
                success: "whp",
            },
            Algorithm::DfsAgent => AlgorithmSpec {
                name: "dfs-agent",
                reference: "Thm 4.1",
                needs_ids: true,
                needs_n: false,
                needs_diameter: false,
                deterministic: true,
                time: "O(m·2^min_id)",
                messages: "O(m)",
                success: "1",
            },
            Algorithm::KingdomKnownD => AlgorithmSpec {
                name: "kingdom(D)",
                reference: "Thm 4.10 §Knowledge of D",
                needs_ids: true,
                needs_n: false,
                needs_diameter: true,
                deterministic: true,
                time: "O(D log n)",
                messages: "O(m log n)",
                success: "1",
            },
            Algorithm::KingdomDoubling => AlgorithmSpec {
                name: "kingdom(2^p)",
                reference: "Thm 4.10 / Alg 2 (synchronized)",
                needs_ids: true,
                needs_n: false,
                needs_diameter: false,
                deterministic: true,
                time: "O(n + D log n)",
                messages: "O(m log n)",
                success: "1",
            },
            Algorithm::FloodMax => AlgorithmSpec {
                name: "floodmax",
                reference: "classical baseline",
                needs_ids: true,
                needs_n: false,
                needs_diameter: true,
                deterministic: true,
                time: "O(D)",
                messages: "O(m·D)",
                success: "1",
            },
            Algorithm::Tole => AlgorithmSpec {
                name: "tole",
                reference: "[20]-style, echo-terminated",
                needs_ids: true,
                needs_n: false,
                needs_diameter: false,
                deterministic: true,
                time: "O(D)",
                messages: "O(m·min(n, D))",
                success: "1",
            },
            Algorithm::CoinFlip => AlgorithmSpec {
                name: "coin-flip",
                reference: "§1 example",
                needs_ids: false,
                needs_n: true,
                needs_diameter: false,
                deterministic: false,
                time: "1",
                messages: "0",
                success: "≈1/e",
            },
        }
    }

    /// Builds a [`SimConfig`] satisfying this algorithm's requirements:
    /// exact diameter when needed, sampled identifiers when needed
    /// (sequential for [`Algorithm::DfsAgent`], whose running time is
    /// exponential in the smallest identifier), and a permissive round cap.
    ///
    /// The diameter comes from [`analysis::diameter_exact`], which
    /// computes it once per graph and memoizes it there: every further
    /// call on the same graph — other algorithms, other seeds, other
    /// threads — reads the stored value.
    pub fn config_for(self, graph: &Graph, seed: u64) -> SimConfig {
        let d = self.spec().needs_diameter.then(|| {
            analysis::diameter_exact(graph)
                .expect("graph must be connected")
                .max(1) as usize
        });
        self.config_with_diameter(graph.len(), d, seed)
    }

    /// [`Algorithm::config_for`] for any [`Topology`], including implicit
    /// ones with no adjacency arrays to sweep: the diameter, when this
    /// algorithm requires it, comes from the topology's closed form
    /// ([`Topology::diameter_hint`]) instead of a BFS over `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm needs the diameter but the topology offers
    /// no closed form (e.g. a materialized [`Graph`], whose hint is
    /// `None` — use [`Algorithm::config_for`] there).
    pub fn config_for_topo<T: Topology>(self, topo: &T, seed: u64) -> SimConfig {
        let d = self.spec().needs_diameter.then(|| {
            topo.diameter_hint()
                .expect("topology offers no closed-form diameter")
                .max(1)
        });
        self.config_with_diameter(topo.n(), d, seed)
    }

    /// Shared tail of [`Algorithm::config_for`] and
    /// [`Algorithm::config_for_topo`]: everything past diameter discovery
    /// depends only on `n`.
    fn config_with_diameter(self, n: usize, d: Option<usize>, seed: u64) -> SimConfig {
        let spec = self.spec();
        let mut cfg = SimConfig::seeded(seed);
        cfg.knowledge = Knowledge {
            n: spec.needs_n.then_some(n),
            m: None,
            diameter: d,
        };
        if spec.needs_ids {
            let ids = if self == Algorithm::DfsAgent {
                IdAssignment::sequential(n)
            } else {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x1D5_u64);
                IdSpace::standard(n).sample(n, &mut rng)
            };
            cfg = cfg.with_ids(ids);
        }
        if self == Algorithm::DfsAgent {
            cfg = cfg.with_max_rounds(u64::MAX / 4);
        }
        cfg
    }

    /// Runs one seeded trial with an automatically derived configuration.
    pub fn run(self, graph: &Graph, seed: u64) -> RunOutcome {
        let cfg = self.config_for(graph, seed);
        self.run_with(graph, &cfg)
    }

    /// Runs one trial under a caller-provided configuration (which must
    /// satisfy [`AlgorithmSpec`]'s requirements). Generic over
    /// [`Topology`]: pass an [`ule_graph::ImplicitTopology`] to run on a
    /// structured family without materializing it.
    pub fn run_with<T: Topology>(self, graph: &T, cfg: &SimConfig) -> RunOutcome {
        self.run_on(RuntimeKind::Sim, graph, cfg)
    }

    /// [`Algorithm::run_with`] on a caller-selected runtime: the identical
    /// protocol code runs on the lockstep engine or over channels
    /// ([`ule_sim::rt`]), and under [`ule_sim::Adversary::Lockstep`] both
    /// produce the same [`RunOutcome`].
    pub fn run_on<T: Topology>(
        self,
        kind: RuntimeKind,
        graph: &T,
        cfg: &SimConfig,
    ) -> RunOutcome {
        match self {
            Algorithm::LeastElAll => {
                least_el::elect_on(kind, graph, cfg, &least_el::LeastElConfig::all_candidates())
            }
            Algorithm::LeastElWhp => {
                least_el::elect_on(kind, graph, cfg, &least_el::LeastElConfig::whp())
            }
            Algorithm::LeastElConstant => least_el::elect_on(
                kind,
                graph,
                cfg,
                &least_el::LeastElConfig::constant_error(0.1),
            ),
            Algorithm::SizeEstimate => size_estimate::elect_on(kind, graph, cfg),
            Algorithm::LasVegas => {
                las_vegas::elect_on(kind, graph, cfg, &las_vegas::LasVegasConfig::default())
            }
            Algorithm::Clustering => clustering::elect_on(kind, graph, cfg),
            Algorithm::DfsAgent => dfs_agent::elect_on(kind, graph, cfg, false),
            Algorithm::KingdomKnownD => kingdom::elect_known_diameter_on(kind, graph, cfg),
            Algorithm::KingdomDoubling => kingdom::elect_doubling_on(kind, graph, cfg),
            Algorithm::FloodMax => baseline::flood_max_on(kind, graph, cfg),
            Algorithm::Tole => baseline::tole_on(kind, graph, cfg),
            Algorithm::CoinFlip => baseline::coin_flip_on(kind, graph, cfg),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_graph::gen;

    #[test]
    fn config_for_topo_and_implicit_runs_match_materialized() {
        let imp = ule_graph::ImplicitTopology::Torus { rows: 4, cols: 4 };
        let g = imp.materialize();
        for alg in Algorithm::ALL {
            let cfg = alg.config_for(&g, 9);
            let topo_cfg = alg.config_for_topo(&imp, 9);
            assert_eq!(cfg.knowledge, topo_cfg.knowledge, "{alg}");
            assert_eq!(cfg.ids, topo_cfg.ids, "{alg}");
            assert_eq!(cfg.max_rounds, topo_cfg.max_rounds, "{alg}");
            assert_eq!(alg.run_with(&g, &cfg), alg.run_with(&imp, &topo_cfg), "{alg}");
        }
    }

    #[test]
    fn every_algorithm_runs_and_most_elect() {
        let g = gen::torus(4, 4).unwrap();
        for alg in Algorithm::ALL {
            let out = alg.run(&g, 5);
            if alg == Algorithm::CoinFlip {
                // May legitimately fail; just require decisions.
                assert_eq!(out.undecided_count(), 0, "{alg}");
            } else {
                assert!(out.election_succeeded(), "{alg} failed");
            }
        }
    }

    #[test]
    fn specs_are_consistent() {
        for alg in Algorithm::ALL {
            let s = alg.spec();
            assert!(!s.name.is_empty());
            assert!(!s.reference.is_empty());
            let cfg = alg.config_for(&gen::cycle(8).unwrap(), 0);
            assert_eq!(cfg.knowledge.n.is_some(), s.needs_n, "{alg}");
            assert_eq!(cfg.knowledge.diameter.is_some(), s.needs_diameter, "{alg}");
            assert_eq!(
                matches!(cfg.ids, ule_sim::IdMode::Explicit(_)),
                s.needs_ids,
                "{alg}"
            );
        }
    }

    #[test]
    fn display_matches_spec_name() {
        assert_eq!(Algorithm::Clustering.to_string(), "clustering");
        assert_eq!(Algorithm::FloodMax.to_string(), "floodmax");
    }

    #[test]
    fn names_round_trip_through_by_name() {
        for alg in Algorithm::ALL {
            assert_eq!(Algorithm::by_name(alg.spec().name), Some(alg), "{alg}");
        }
        assert_eq!(Algorithm::by_name("no-such-algorithm"), None);
    }

    #[test]
    fn claimed_shapes_are_positive() {
        for alg in Algorithm::ALL {
            let (t, m) = alg.claimed_shape(100, 400, 10);
            assert!(t > 0.0 && m > 0.0, "{alg}");
        }
    }

    #[test]
    fn deterministic_algorithms_ignore_seed() {
        let g = gen::grid(4, 4).unwrap();
        for alg in [
            Algorithm::DfsAgent,
            Algorithm::KingdomKnownD,
            Algorithm::FloodMax,
        ] {
            // Same id assignment (seed affects ids for non-DFS — fix ids
            // by using the same seed, vary only node RNG streams).
            let cfg = alg.config_for(&g, 3);
            let mut cfg2 = cfg.clone();
            cfg2.seed = 999;
            let a = alg.run_with(&g, &cfg);
            let b = alg.run_with(&g, &cfg2);
            assert_eq!(a.messages, b.messages, "{alg}");
            assert_eq!(a.statuses, b.statuses, "{alg}");
        }
    }
}
