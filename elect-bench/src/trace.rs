//! Running one election, plain or traced.
//!
//! A plain election on the round engine goes through
//! [`Algorithm::run_on`], the entry point users call. An async election
//! runs FloodMax on a two-worker [`AsyncRuntime`]. A traced election
//! builds the algorithm's public protocol type here, the way the registry
//! does, wraps each node's protocol in [`Traced`] and hands it to
//! [`Runner::run`]. [`Traced`] times every [`Protocol::on_round`]
//! activation and counts activations and active rounds in process-wide
//! atomics. The caller checks that a traced outcome equals the plain one,
//! so a drift between these factories and the registry's shows up as a
//! failed election, not as a silently different workload.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;
use ule_core::baseline::{CoinFlip, FloodMax, Tole};
use ule_core::clustering::Clustering;
use ule_core::dfs_agent::DfsAgent;
use ule_core::kingdom::{Kingdom, RadiusSchedule};
use ule_core::las_vegas::{LasVegasConfig, LasVegasElect};
use ule_core::least_el::{LeastEl, LeastElConfig};
use ule_core::size_estimate::SizeEstimateElect;
use ule_core::Algorithm;
use ule_graph::{Graph, Port};
use ule_sim::{
    AsyncRuntime, Context, Model, NodeSetup, Protocol, RunOutcome, Runner, RuntimeKind, SimConfig,
    Status,
};

use crate::workloads::Topo;

/// Worker threads of the async runtime in every async election.
const ASYNC_WORKERS: usize = 2;

/// Which runtime drives an election.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// The round engine ([`RuntimeKind::Sim`]).
    Sim,
    /// Threads and channels ([`RuntimeKind::Async`]) with
    /// [`ASYNC_WORKERS`] workers.
    Async,
}

static STEP_NS: AtomicU64 = AtomicU64::new(0);
static ACTIVATIONS: AtomicU64 = AtomicU64::new(0);
static ACTIVE_ROUNDS: AtomicU64 = AtomicU64::new(0);
/// One past the highest round any traced node has run (0 = none yet).
static ROUND_MARK: AtomicU64 = AtomicU64::new(0);

/// What the [`Traced`] wrappers counted since the last [`take_counters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StepCounters {
    /// Wall time spent inside `on_round`, summed over activations.
    pub step_s: f64,
    /// `on_round` calls.
    pub activations: u64,
    /// Distinct rounds in which some node was active, summed over the
    /// elections run. Exact on the round engine at any thread count (its
    /// rounds never go backwards); not meaningful on the async runtime.
    pub active_rounds: u64,
}

/// Reads and clears the counters. Call it between elections, so each
/// election's rounds start from a clean mark.
pub fn take_counters() -> StepCounters {
    ROUND_MARK.store(0, Relaxed);
    StepCounters {
        step_s: STEP_NS.swap(0, Relaxed) as f64 * 1e-9,
        activations: ACTIVATIONS.swap(0, Relaxed),
        active_rounds: ACTIVE_ROUNDS.swap(0, Relaxed),
    }
}

/// A protocol that times its inner protocol's activations.
struct Traced<P>(P);

impl<P: Protocol> Protocol for Traced<P> {
    type Msg = P::Msg;

    fn on_round(&mut self, ctx: &mut Context<'_, P::Msg>, inbox: &[(Port, P::Msg)]) {
        let mark = ctx.round() + 1;
        if ROUND_MARK.load(Relaxed) < mark && ROUND_MARK.fetch_max(mark, Relaxed) < mark {
            ACTIVE_ROUNDS.fetch_add(1, Relaxed);
        }
        let start = Instant::now();
        self.0.on_round(ctx, inbox);
        STEP_NS.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        ACTIVATIONS.fetch_add(1, Relaxed);
    }

    fn status(&self) -> Status {
        self.0.status()
    }
}

/// Runs one election of `alg` on `topo` under `cfg`.
///
/// Only FloodMax runs on the async runtime and on implicit topologies:
/// the workloads need nothing else there, and every further combination
/// would be one more copy of the engine for the optimiser to build.
///
/// # Panics
///
/// Panics on any other combination, and if the election itself panics.
pub fn elect(alg: Algorithm, exec: Exec, topo: &Topo, cfg: &SimConfig, traced: bool) -> RunOutcome {
    let flood = alg == Algorithm::FloodMax;
    match (topo, exec, traced) {
        (Topo::Graph(g), Exec::Sim, false) => alg.run_on(RuntimeKind::Sim, g, cfg),
        (Topo::Graph(g), Exec::Sim, true) => traced_sim(alg, g, cfg),
        (Topo::Graph(g), Exec::Async, false) if flood => {
            AsyncRuntime::new()
                .with_workers(ASYNC_WORKERS)
                .without_trace()
                .run(g, cfg, |_, _, _| FloodMax::new())
                .outcome
        }
        (Topo::Implicit(t), Exec::Sim, false) if flood => {
            Algorithm::FloodMax.run_on(RuntimeKind::Sim, t, cfg)
        }
        (Topo::Implicit(t), Exec::Sim, true) if flood => {
            Runner::new(t, cfg).run(|_, _, _| Traced(FloodMax::new()))
        }
        _ => panic!("no {alg} election on {exec:?} (traced: {traced}) for this topology"),
    }
}

/// A traced election on the round engine, each node's protocol built as
/// the registry (`ule_core::registry`) builds it.
fn traced_sim(alg: Algorithm, g: &Graph, cfg: &SimConfig) -> RunOutcome {
    fn go<P: Protocol>(
        g: &Graph,
        cfg: &SimConfig,
        mut f: impl FnMut(&NodeSetup) -> P,
    ) -> RunOutcome {
        Runner::new(g, cfg).run(|_, s, _| Traced(f(s)))
    }
    let id = |s: &NodeSetup| s.id.expect("algorithm requires identifiers");
    let least_el = |c: LeastElConfig| move |s: &NodeSetup| LeastEl::new(c.clone(), s.degree);
    match alg {
        Algorithm::LeastElAll => go(g, cfg, least_el(LeastElConfig::all_candidates())),
        Algorithm::LeastElWhp => go(g, cfg, least_el(LeastElConfig::whp())),
        Algorithm::LeastElConstant => go(g, cfg, least_el(LeastElConfig::constant_error(0.1))),
        Algorithm::SizeEstimate => go(g, cfg, |s| SizeEstimateElect::new(s.degree)),
        Algorithm::LasVegas => go(g, cfg, |s| {
            LasVegasElect::new(LasVegasConfig::default(), s.degree)
        }),
        Algorithm::Clustering => {
            // As `clustering::elect_on`: the cluster records need a wider
            // CONGEST budget.
            let mut cfg = cfg.clone();
            if let Model::Congest { factor } = cfg.model {
                cfg.model = Model::Congest {
                    factor: factor.max(32),
                };
            }
            go(g, &cfg, |s| Clustering::new(s.degree))
        }
        Algorithm::DfsAgent => go(g, cfg, |s| DfsAgent::new(id(s), s.degree, false)),
        Algorithm::KingdomKnownD => go(g, cfg, |s| {
            Kingdom::new(RadiusSchedule::KnownDiameter, id(s), s.degree)
        }),
        Algorithm::KingdomDoubling => go(g, cfg, |s| {
            Kingdom::new(RadiusSchedule::Doubling, id(s), s.degree)
        }),
        Algorithm::FloodMax => go(g, cfg, |_| FloodMax::new()),
        Algorithm::Tole => go(g, cfg, |s| Tole::new(s.degree)),
        Algorithm::CoinFlip => go(g, cfg, |_| CoinFlip::new()),
    }
}
