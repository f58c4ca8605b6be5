//! The synchronous round engine: the *lockstep scheduler policy* over the
//! runtime-independent execution core ([`crate::exec`]).
//!
//! Executes a [`Protocol`] at every node of a graph under a [`SimConfig`]:
//! messages sent in round `r` arrive at the start of round `r+1`; nodes are
//! activated when messages arrive or when they scheduled a wakeup; the run
//! ends at quiescence or at the round cap (the truncation mechanism of the
//! Theorem 3.13 experiment).
//!
//! The split of responsibilities: node-state storage, protocol stepping,
//! message accounting and outcome assembly live in [`crate::exec`] and are
//! shared with the async threads+channels runtime ([`crate::rt`]). What
//! lives *here* is the scheduling policy — the decision of when each node
//! steps and how staged sends reach their destination inboxes: the active
//! set, the wakeup heap, fast-forward, and the shard/merge machinery.
//!
//! The engine is generic over [`Topology`], so the structured families run
//! off `O(1)`-memory procedural topologies ([`ule_graph::ImplicitTopology`])
//! with no CSR arrays at all; a materialized [`ule_graph::Graph`] is just
//! the `Topology` everybody else passes. Monomorphization keeps the
//! neighbour-resolution arithmetic inline either way.
//!
//! # Event-driven scheduling
//!
//! The paper's algorithms are mostly *sparsely active* — the Theorem 4.1
//! agents sleep exponentially long between moves, and the kingdom/doubling
//! schedules leave most nodes idle most rounds — so the engine never scans
//! all `n` nodes per round. Instead it maintains:
//!
//! * an explicit **active set** for the upcoming round: a node enters it
//!   when a staged message is delivered to it, or when its scheduled wakeup
//!   fires;
//! * a **min-heap of pending wakeups** (`BinaryHeap<Reverse<(round,
//!   node)>>`, lazily invalidated), so discovering the wakeups due in a
//!   round — and fast-forwarding across a fully idle stretch — costs
//!   `O(log n)` per event instead of an `O(n)` scan;
//! * a **dedup bitmap** so a node that both receives a message and has a
//!   wakeup due runs exactly once in the round.
//!
//! Per simulated round the engine therefore pays `O(a log a + w log n)`
//! where `a` is the number of active nodes and `w` the number of wakeup
//! events — independent of `n`. The `a log a` term is the sort that keeps
//! execution order identical to the historical full scan: active nodes run
//! in ascending node-index order, so every run is byte-for-byte
//! deterministic and `RunOutcome`s are reproducible across engine versions
//! (see `tests/scheduler_equivalence.rs`).
//!
//! # Flat-memory hot path, on a diet
//!
//! The per-round machinery walks flat arrays, not pointer-chased trees,
//! and the per-node footprint is kept to scalar columns so graph-scale
//! runs fit in memory:
//!
//! * deliveries queue in the ledger's [`crate::calendar::CalendarQueue`]
//!   (a power-of-two ring of buckets indexed by `delivery_round & mask`,
//!   with a `BTreeMap` overflow tier only for deliveries beyond the ring
//!   horizon), with destination and port compacted to `u32`;
//! * the round's inbound messages live in a shared **inbox arena** — one
//!   `u32` slot per node threading a linked chain through a single
//!   message pool — instead of `n` separate `Vec` inboxes (24 bytes per
//!   node of pointer triple, plus per-node heap blocks);
//! * node bookkeeping is struct-of-arrays ([`crate::exec::NodeStore`]):
//!   timers are a dense `u64` column (`NO_WAKE` sentinel, not
//!   `Option<u64>`), started bits live in an engine-owned bitmap (one
//!   bit per node), statuses are one byte per node, and the RNG column
//!   starts lazy — materialized only if some node actually draws;
//! * the sharded path's per-shard outboxes and scratch buffers are arenas
//!   owned by the engine and reused across rounds — a steady-state round
//!   allocates nothing per message.
//!
//! # Round counting under fast-forward
//!
//! Fast-forwarding is an accounting device, not a semantic change: idle
//! rounds still *count* toward [`RunOutcome::rounds`] (round numbers are
//! model time, and `rounds` is the last active round + 1), they just cost
//! no work. [`RunOutcome::round_totals`] records one entry per *active*
//! round only.
//!
//! # Sharded-parallel stepping
//!
//! Under [`crate::Parallelism`] settings other than `Off`, rounds with large
//! active sets are stepped by several threads. The sorted active list is
//! partitioned into **contiguous shards** (so concatenating shard outputs
//! in shard order reproduces the sequential ascending-node-index order);
//! each shard steps its nodes into a *shard-local* outbox arena — protocol
//! execution, coin flips, and message construction all run off the main
//! thread, reading the round's deliveries from the shared inbox arena —
//! and then a sequential **merge phase** walks the shards in stable shard
//! order, performing every piece of global accounting (message/bit totals,
//! CONGEST checks, watch-edge crossings with their `messages_before`
//! counts, per-directed-edge statistics, wakeup-heap pushes, inbox
//! delivery, next-round activation) exactly as the sequential engine
//! interleaves it. Because node state (including each node's private RNG)
//! is owned by its shard and the merge order equals the sequential order,
//! a run is **byte-for-byte identical at any thread count** —
//! `Parallelism::Off` remains the reference code path, and
//! `tests/scheduler_equivalence.rs` pins the parallel engine against it.
//! Rounds whose active set is too small to amortize thread coordination
//! are stepped inline on the main thread (same code as `Off`).

use crate::adversary::Schedule;
use crate::config::SimConfig;
pub(crate) use crate::exec::splitmix64;
use crate::exec::{
    ids_slice, init_store, step_node, validate_wakeup, InboxArena, Ledger, LedgerSink, RngCol,
    RunCtx, ShardOut, StepScratch, StoreSliceMut, NO_WAKE,
};
#[allow(unused_imports)] // re-exported for in-crate users of the old paths
pub use crate::exec::{node_rng_seed, RunOutcome, Termination, WatchHit};
use crate::protocol::{NodeSetup, Protocol};
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use ule_graph::{NodeId, Port, Topology};

/// One bit per node: has this node ever been activated? Replaces the
/// byte-per-node `started` column (a `Vec<bool>`), and — because within a
/// round every active node steps exactly once — can be updated *after*
/// the stepping loop, which is what lets shard threads share it immutably.
struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    fn new(n: usize) -> Self {
        Bitmap {
            words: vec![0u64; n.div_ceil(64)],
        }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }
}

/// Steps the active nodes of one shard for one round.
///
/// `store` is the contiguous store view covering this shard's node-index
/// range, offset by `base` (`nodes` are ascending global indices, all
/// within `base..base + store len`). Mirrors the sequential stepping loop
/// exactly, except that global accounting is deferred to the merge phase
/// via `out`. `scratch`, `inbox_buf` and `out` are per-shard arenas owned
/// by the caller, reused across rounds; `arena` and `started` are the
/// round's shared read-only delivery and first-activation state.
#[allow(clippy::too_many_arguments)] // engine-internal; mirrors the inline loop's locals
fn step_shard<T: Topology, P: Protocol>(
    rc: &RunCtx<'_, T>,
    round: u64,
    base: NodeId,
    mut store: StoreSliceMut<'_, P>,
    nodes: &[NodeId],
    arena: &InboxArena<P::Msg>,
    started: &Bitmap,
    inbox_buf: &mut Vec<(Port, P::Msg)>,
    scratch: &mut StepScratch<P::Msg>,
    out: &mut ShardOut<P::Msg>,
) {
    for &v in nodes {
        inbox_buf.clear();
        arena.fill(v, inbox_buf);
        let effects = step_node(
            rc,
            round,
            v,
            &mut store,
            v - base,
            !started.get(v),
            inbox_buf,
            scratch,
            &mut out.sends,
        );
        if let Some(w) = effects.rearmed {
            out.wakes.push((w, v));
        }
        if let Some(rng) = effects.drew {
            out.drawn.push((v, rng));
        }
        out.status_changed |= effects.status_changed;
    }
}

/// Runs `factory`-created protocol instances on `topo` under `config`.
///
/// This is the engine behind [`crate::Runner`] on
/// [`crate::RuntimeKind::Sim`]; see the `Runner` docs for the public
/// contract. `factory` is called once per node, in index order, with the
/// node's index, its [`NodeSetup`], and its private RNG (already seeded).
///
/// Under [`crate::Parallelism`] settings other than `Off`, rounds with enough
/// active nodes are stepped by several shard threads and merged
/// deterministically (see the module docs); the outcome is byte-for-byte
/// identical at any thread count — and identical between a materialized
/// [`ule_graph::Graph`] and the equivalent implicit topology.
///
/// # Panics
///
/// Panics if an explicit [`crate::IdMode`] assignment does not cover the
/// graph, if the config is invalid ([`crate::Wakeup::Adversarial`] naming a
/// node `>= n`, a watched edge that is not an edge of the graph, or an
/// [`crate::Adversary`] schedule naming an out-of-range node or a
/// non-edge), or on protocol API misuse (double-send on a port, past
/// wakeups).
pub(crate) fn run_sim<T, P, F>(topo: &T, config: &SimConfig, factory: F) -> RunOutcome
where
    T: Topology,
    P: Protocol,
    F: FnMut(NodeId, &NodeSetup, &mut StdRng) -> P,
{
    let n = topo.n();
    let threads = config.parallelism.effective_threads(n);
    let min_shard_nodes = config.parallelism.min_shard_nodes();

    let mut store = init_store(topo, config, factory);
    let rc = RunCtx {
        topo,
        ids: ids_slice(config, n),
        knowledge: config.knowledge,
        seed: config.seed,
    };

    // Pending wakeups, min-first. Entries are lazily invalidated: an entry
    // `(w, v)` is genuine iff `store.wake[v] == w` when popped (a node
    // that re-arms its timer leaves the superseded entry behind).
    let mut wake_heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();

    // Legacy wakeup validation: the panic messages are part of the API.
    validate_wakeup(config, n);
    // The run's execution model: the wakeup discipline stacked with the
    // configured adversary (see `crate::adversary`). Every wakeup,
    // liveness, and message-fate decision flows through these schedules,
    // and only ever from this sequential control thread. The stack is
    // hand-inlined rather than routed through `adversary::Compose`
    // because the wakeup half only ever constrains `wake_round` — its
    // fate and crash methods are the lockstep defaults — so the hot
    // per-message path consults the adversary alone, with identical
    // semantics (pinned by `tests/properties.rs`).
    let mut wakeup_schedule = config.wakeup.as_schedule();

    let mut ledger: Ledger<P::Msg> = Ledger::new(topo, config);

    let mut last_status_change: Option<u64> = None;
    let mut round_totals: Vec<(u64, u64)> = Vec::new();

    let mut scratch: StepScratch<P::Msg> = StepScratch::default();
    let mut inbox_buf: Vec<(Port, P::Msg)> = Vec::new();
    // Per-shard arenas for the parallel path, reused across rounds: a
    // steady-state sharded round reuses each shard's send/wake capacity
    // and scratch/inbox buffers instead of allocating fresh ones.
    let mut outs: Vec<ShardOut<P::Msg>> = (0..threads).map(|_| ShardOut::new()).collect();
    let mut scratches: Vec<StepScratch<P::Msg>> =
        (0..threads).map(|_| StepScratch::default()).collect();
    let mut bufs: Vec<Vec<(Port, P::Msg)>> = (0..threads).map(|_| Vec::new()).collect();
    // The round's active set (small for sparse protocols) and the dedup
    // bitmap guarding it; due deliveries and wakeups join at the top of
    // the loop.
    let mut active: Vec<NodeId> = Vec::new();
    let mut in_active: Vec<bool> = vec![false; n];
    // The shared two-round delivery arena and the ever-started bitmap.
    // `prepared` is the round whose calendar bucket was pre-drained into
    // the arena's *next* side (`u64::MAX` = none): it is set just before
    // a round steps and consumed by the rotation at the top of the next
    // iteration, so at the loop head it is either `MAX` or `== round`.
    let mut arena: InboxArena<P::Msg> = InboxArena::new(n);
    let mut prepared: u64 = u64::MAX;
    let mut started = Bitmap::new(n);
    // Lazy-RNG draws observed this round (empty once the column is dense).
    let mut drawn: Vec<(NodeId, StdRng)> = Vec::new();

    // Arm the spontaneous wakeups the schedule grants. Round-0 wakeups
    // seed the active set directly: routing them through the heap would be
    // wasted work (under simultaneous wakeup that is n pushes + n pops),
    // and the round-0 execution clears the `wake = 0` markers before any
    // heap lookup could expect entries for them. A node that crashes at or
    // before its wakeup round never participates at all.
    #[allow(clippy::needless_range_loop)] // v is a node id indexing parallel columns
    for v in 0..n {
        // The Compose rule for wakeups, inlined over the two-schedule
        // stack: a node wakes spontaneously only if both halves allow it,
        // at the latest round either demands.
        let wake = match (wakeup_schedule.wake_round(v), ledger.schedule.wake_round(v)) {
            (Some(a), Some(b)) => Some(a.max(b)),
            _ => None,
        };
        if let Some(w) = wake {
            if let Some(c) = ledger.crash_round.get(v) {
                if c <= w {
                    ledger.crash_horizon = ledger.crash_horizon.max(c);
                    continue;
                }
            }
            store.wake[v] = w;
            if w == 0 {
                if !in_active[v] {
                    in_active[v] = true;
                    active.push(v);
                }
            } else {
                wake_heap.push(Reverse((w, v)));
            }
        }
    }

    let mut round: u64 = 0;
    let mut rounds_used: u64 = 0;
    let termination;

    'rounds: loop {
        if round >= config.max_rounds {
            termination = Termination::RoundLimit;
            break;
        }

        // Deliver every message due this round and schedule the
        // recipients. The common case was staged while the previous round
        // stepped: its bucket was pre-drained into the arena's *next*
        // side and the synchronous sends appended directly behind it
        // (`prepared == round`), so this round's bucket is already empty.
        // Only after a fast-forward jump does the bucket still hold the
        // round's deliveries — drain it into *next* here, in global send
        // order (deliveries into crashed nodes were already discarded at
        // fate time). Either way one rotation promotes *next* to the
        // round being stepped, and the arena chains preserve send order
        // per destination.
        ledger.queue.advance_to(round);
        if ledger.queue.next_event_round() == Some(round) {
            debug_assert!(
                prepared != round,
                "a prepared round's bucket must have been pre-drained"
            );
            let mut batch = ledger.queue.take_at(round);
            for (dest, port, msg) in batch.drain(..) {
                arena.deliver_next(dest as usize, port, msg);
            }
            ledger.queue.recycle(batch);
        }
        prepared = u64::MAX;
        arena.rotate();
        for &d in arena.recipients() {
            let d = d as usize;
            if !in_active[d] {
                in_active[d] = true;
                active.push(d);
            }
        }

        // Admit every wakeup due this round; drop superseded entries.
        // Crashed owners need no check here: wakeups are crash-filtered
        // *at arm time* (setup and the two rearm sites below), so every
        // genuine heap entry outlives its owner's crash round.
        while let Some(&Reverse((w, v))) = wake_heap.peek() {
            if w > round {
                break;
            }
            wake_heap.pop();
            if store.wake[v] == w && !in_active[v] {
                in_active[v] = true;
                active.push(v);
            }
        }

        if active.is_empty() {
            // Fast-forward to the next event: the earliest pending
            // delivery or the next genuine wakeup, whichever comes first.
            let next_delivery = ledger.queue.next_event_round();
            let mut next_wake = None;
            while let Some(&Reverse((w, v))) = wake_heap.peek() {
                if store.wake[v] != w {
                    wake_heap.pop();
                    continue;
                }
                next_wake = Some(w);
                break;
            }
            match (next_delivery, next_wake) {
                (Some(d), Some(w)) => {
                    debug_assert!(d.min(w) > round);
                    round = d.min(w);
                    continue 'rounds;
                }
                (Some(r), None) | (None, Some(r)) => {
                    debug_assert!(r > round);
                    round = r;
                    continue 'rounds;
                }
                (None, None) => {
                    termination = Termination::Quiescent;
                    break 'rounds;
                }
            }
        }

        // Ascending node order keeps execution byte-for-byte identical to
        // the historical full scan; the set is small, so the sort is cheap.
        active.sort_unstable();
        rounds_used = round + 1;

        // Shard the round when the active set is large enough to amortize
        // per-round thread coordination (the policy lives on
        // `Parallelism::min_shard_nodes`: `Auto` demands an economic shard
        // size, explicit `Threads(k)` shards eagerly); otherwise — and
        // always under `Parallelism::Off` — step inline, the reference
        // code path.
        let shards = if threads > 1 {
            (active.len() / min_shard_nodes).min(threads).max(1)
        } else {
            1
        };

        // Stage the next round before stepping: messages already queued
        // for `round + 1` (delayed fates decided in earlier rounds) go
        // into the arena's *next* side first, in push order; the stepping
        // below appends its synchronous sends directly behind them —
        // reproducing exactly the order the calendar bucket used to hold.
        // Synchronous sends thereby skip the queue entirely, so at burst
        // scale no round's messages are ever held twice.
        prepared = round + 1;
        if ledger.queue.next_event_round() == Some(round + 1) {
            let mut batch = ledger.queue.take_at(round + 1);
            for (dest, port, msg) in batch.drain(..) {
                arena.deliver_next(dest as usize, port, msg);
            }
            ledger.queue.recycle(batch);
        }

        if shards > 1 {
            // Contiguous chunks of the sorted active list: shard s covers
            // an ascending, disjoint node-index range, so handing each
            // shard the matching sub-range of the store view is a plain
            // split and concatenating shard outputs in shard order
            // reproduces the sequential execution order.
            let chunk = active.len().div_ceil(shards);
            let used = active.len().div_ceil(chunk);
            std::thread::scope(|scope| {
                let mut rest = store.as_mut();
                let mut base: NodeId = 0;
                let rc_ref = &rc;
                let arena_ref = &arena;
                let started_ref = &started;
                for (((nodes, out), scratch), buf) in active
                    .chunks(chunk)
                    .zip(outs.iter_mut())
                    .zip(scratches.iter_mut())
                    .zip(bufs.iter_mut())
                {
                    let hi = nodes[nodes.len() - 1] + 1;
                    let (mine, rem) = rest.split_at_mut(hi - base);
                    rest = rem;
                    let lo = base;
                    base = hi;
                    scope.spawn(move || {
                        step_shard(
                            rc_ref, round, lo, mine, nodes, arena_ref, started_ref, buf, scratch,
                            out,
                        )
                    });
                }
            });
            // Every inbox was cloned into a shard buffer during the
            // scope, so the round's chains are dead: return them to the
            // pool before the merge routes this round's sends, letting
            // the entries be reused in place.
            for &v in &active {
                arena.free(v);
            }
            // Deterministic merge, stable shard order: all global
            // accounting — including every adversary fate decision —
            // happens here, in exactly the order the sequential engine
            // interleaves it. Each shard report is cleared (capacity
            // kept) for the next round.
            for out in &mut outs[..used] {
                if out.status_changed {
                    last_status_change = Some(round);
                }
                for &(w, v) in &out.wakes {
                    // Eager crash filtering, as at setup: a timer its
                    // owner's crash outlives is never armed (the async
                    // runtime makes the same arm-time decision, so the
                    // reported crash horizons agree across runtimes).
                    match ledger.crash_round.get(v) {
                        Some(c) if c <= w => {
                            ledger.crash_horizon = ledger.crash_horizon.max(c);
                            store.wake[v] = NO_WAKE;
                        }
                        _ => wake_heap.push(Reverse((w, v))),
                    }
                }
                for s in out.sends.drain(..) {
                    if let Some((at, dest, port, msg)) = ledger.route(round, s) {
                        if at == round + 1 {
                            arena.deliver_next(dest as usize, port, msg);
                        } else {
                            ledger.queue.push(at, (dest, port, msg));
                        }
                    }
                }
                for (v, rng) in out.drawn.drain(..) {
                    drawn.push((v, rng));
                }
                out.clear();
            }
        } else {
            let mut view = store.as_mut();
            for &v in &active {
                inbox_buf.clear();
                arena.fill(v, &mut inbox_buf);
                // The inbox is cloned out; free the chain now so the
                // node's own sends (and every later node's) reuse the
                // entries in place.
                arena.free(v);
                let first = !started.get(v);
                let effects = {
                    let mut sink = LedgerSink {
                        ledger: &mut ledger,
                        round,
                        arena: &mut arena,
                    };
                    step_node(
                        &rc, round, v, &mut view, v, first, &inbox_buf, &mut scratch, &mut sink,
                    )
                };
                // A changed timer needs a heap entry; the stale entry for
                // the previously armed round (if any) stays in the heap.
                // Crash-filtered eagerly, as at setup.
                if let Some(w) = effects.rearmed {
                    match ledger.crash_round.get(v) {
                        Some(c) if c <= w => {
                            ledger.crash_horizon = ledger.crash_horizon.max(c);
                            view.wake[v] = NO_WAKE;
                        }
                        _ => wake_heap.push(Reverse((w, v))),
                    }
                }
                if effects.status_changed {
                    last_status_change = Some(round);
                }
                if let Some(rng) = effects.drew {
                    drawn.push((v, rng));
                }
            }
        }

        // Everyone active this round has now run once: set their started
        // bits and release their dedup flags. (The round's inbox chains
        // were already freed at fill time; the rotation at the top of the
        // next iteration promotes the staged side.)
        for &v in &active {
            started.set(v);
            in_active[v] = false;
        }
        active.clear();
        // First draws observed on a lazy RNG column: materialize it (all
        // other nodes are still pristine, so fresh streams are exact) and
        // persist the drawn states.
        if !drawn.is_empty() {
            store.densify_rngs(config.seed);
            if let RngCol::Dense(dense) = &mut store.rngs {
                for (v, rng) in drawn.drain(..) {
                    dense[v] = rng;
                }
            }
        }

        round_totals.push((round, ledger.messages));
        round += 1;
    }

    ledger.finish(
        &store.statuses,
        rounds_used,
        round,
        termination,
        last_status_change,
        round_totals,
    )
}

#[cfg(test)]
mod tests {
    use super::run_sim as run;
    use super::*;
    use crate::config::{Model, Parallelism, SimConfig, Wakeup};
    use crate::message::{id_bits, Message, Signal};
    use crate::protocol::{Context, Knowledge, Protocol, Status};
    use ule_graph::{gen, IdAssignment, ImplicitTopology};

    /// Floods the maximum identifier for `deadline` rounds (mini FloodMax).
    #[derive(Debug)]
    struct MiniFloodMax {
        best: u64,
        deadline: u64,
        decided: Status,
    }

    #[derive(Debug, Clone)]
    struct IdMsg(u64);
    impl Message for IdMsg {
        fn size_bits(&self) -> u64 {
            id_bits(self.0)
        }
    }

    impl Protocol for MiniFloodMax {
        type Msg = IdMsg;
        fn on_round(&mut self, ctx: &mut Context<'_, IdMsg>, inbox: &[(usize, IdMsg)]) {
            if ctx.first_activation() {
                self.best = ctx.require_id();
                ctx.broadcast(IdMsg(self.best));
            }
            let mut improved = false;
            for (_, IdMsg(x)) in inbox {
                if *x > self.best {
                    self.best = *x;
                    improved = true;
                }
            }
            if improved {
                ctx.broadcast(IdMsg(self.best));
            }
            if ctx.round() + 1 >= self.deadline {
                self.decided = if self.best == ctx.require_id() {
                    Status::Leader
                } else {
                    Status::NonLeader
                };
            } else {
                ctx.wake_next();
            }
        }
        fn status(&self) -> Status {
            self.decided
        }
    }

    fn flood_cfg(n: usize, _deadline: u64, seed: u64) -> SimConfig {
        SimConfig::seeded(seed)
            .with_ids(IdAssignment::sequential(n))
            .with_knowledge(Knowledge::NONE)
            .with_max_rounds(10_000)
    }

    fn flood(graph: &ule_graph::Graph, deadline: u64, seed: u64) -> RunOutcome {
        let cfg = flood_cfg(graph.len(), deadline, seed);
        run(graph, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline,
            decided: Status::Undecided,
        })
    }

    #[test]
    fn floodmax_elects_max_id_on_cycle() {
        let g = gen::cycle(9).unwrap();
        let out = flood(&g, 8, 3);
        assert_eq!(out.termination, Termination::Quiescent);
        assert!(out.election_succeeded());
        // Sequential IDs: node 8 holds ID 9, the maximum.
        assert_eq!(out.leader(), Some(8));
    }

    #[test]
    fn floodmax_message_count_on_path_is_bounded() {
        let g = gen::path(10).unwrap();
        let out = flood(&g, 12, 0);
        assert!(out.election_succeeded());
        // Flooding max id on a path: at most O(m·D) messages.
        assert!(out.messages <= 2 * 9 * 12);
        assert!(out.messages >= 18, "initial broadcast alone is 18");
    }

    #[test]
    fn truncation_snapshot() {
        let g = gen::path(30).unwrap();
        let out = flood(&g, 40, 0);
        assert!(out.election_succeeded());
        let cfg = flood_cfg(30, 40, 0).with_max_rounds(3);
        let truncated = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 40,
            decided: Status::Undecided,
        });
        assert_eq!(truncated.termination, Termination::RoundLimit);
        assert!(!truncated.election_succeeded());
        assert_eq!(truncated.undecided_count(), 30);
    }

    #[test]
    fn determinism_by_seed() {
        let g = gen::random_connected(20, 40, &mut {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(5)
        })
        .unwrap();
        let a = flood(&g, 25, 42);
        let b = flood(&g, 25, 42);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.statuses, b.statuses);
    }

    #[test]
    fn watch_edge_records_first_crossing() {
        let g = gen::path(6).unwrap();
        let cfg = flood_cfg(6, 10, 0).watching(&[(2, 3), (0, 1)]);
        let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
        let hit = out.watch_hits[0].expect("edge (2,3) must be crossed");
        assert_eq!(hit.round, 0, "initial broadcast crosses every edge");
        let hit2 = out.watch_hits[1].unwrap();
        assert_eq!(hit2.round, 0);
    }

    #[test]
    fn first_use_and_counts_recorded() {
        let g = gen::path(4).unwrap();
        let out = flood(&g, 6, 0);
        // Every directed edge is used at round 0 by the initial broadcast.
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                let idx = g.directed_index(v, p);
                assert_eq!(out.first_directed_use[idx], 0);
                assert!(out.directed_message_counts[idx] >= 1);
            }
        }
        let total: u64 = out.directed_message_counts.iter().sum();
        assert_eq!(total, out.messages);
    }

    #[test]
    fn congest_accounting() {
        let g = gen::path(3).unwrap();
        // Budget factor 1 → 2 bits on n=3; IDs up to 3 need 2 bits → no
        // violation; with huge IDs there are violations.
        let cfg = SimConfig::seeded(0)
            .with_ids(IdAssignment::new(vec![1 << 40, 2, 3]))
            .with_model(Model::Congest { factor: 1 })
            .with_max_rounds(100);
        let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 4,
            decided: Status::Undecided,
        });
        assert!(out.congest_violations > 0);
        assert!(out.max_message_bits >= 41);
        let local = SimConfig::seeded(0)
            .with_ids(IdAssignment::new(vec![1 << 40, 2, 3]))
            .with_model(Model::Local)
            .with_max_rounds(100);
        let out2 = run(&g, &local, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 4,
            decided: Status::Undecided,
        });
        assert_eq!(out2.congest_violations, 0);
    }

    /// A protocol that sleeps a long time, to exercise fast-forwarding.
    struct Sleeper {
        until: u64,
        fired: bool,
    }
    impl Protocol for Sleeper {
        type Msg = Signal;
        fn on_round(&mut self, ctx: &mut Context<'_, Signal>, _inbox: &[(usize, Signal)]) {
            if ctx.first_activation() {
                ctx.wake_at(self.until);
            } else if ctx.round() == self.until {
                self.fired = true;
            }
        }
        fn status(&self) -> Status {
            if self.fired {
                Status::NonLeader
            } else {
                Status::Undecided
            }
        }
    }

    #[test]
    fn fast_forward_skips_idle_rounds() {
        let g = gen::path(2).unwrap();
        let cfg = SimConfig::seeded(0).with_max_rounds(u64::MAX);
        // ule-lint: allow(wall-clock, reason = "throughput timing of the fast-forward itself; elapsed time never reaches simulated state")
        let start = std::time::Instant::now();
        let out = run(&g, &cfg, |_, _, _| Sleeper {
            until: 1_000_000_000,
            fired: false,
        });
        assert!(start.elapsed().as_secs() < 5, "fast-forward failed");
        assert_eq!(out.rounds, 1_000_000_001);
        assert_eq!(out.undecided_count(), 0);
        assert_eq!(out.termination, Termination::Quiescent);
    }

    #[test]
    fn adversarial_wakeup_wakes_on_message() {
        let g = gen::path(5).unwrap();
        let cfg = SimConfig::seeded(0)
            .with_ids(IdAssignment::sequential(5))
            .with_wakeup(Wakeup::Adversarial(vec![0]))
            .with_max_rounds(100);
        // Node 0 floods; others forward on wakeup.
        struct WakeFlood {
            woken: bool,
        }
        impl Protocol for WakeFlood {
            type Msg = Signal;
            fn on_round(&mut self, ctx: &mut Context<'_, Signal>, inbox: &[(usize, Signal)]) {
                if ctx.first_activation() {
                    self.woken = true;
                    if let Some(&(p, _)) = inbox.first() {
                        ctx.broadcast_except(p, Signal);
                    } else {
                        ctx.broadcast(Signal);
                    }
                }
            }
            fn status(&self) -> Status {
                if self.woken {
                    Status::NonLeader
                } else {
                    Status::Undecided
                }
            }
        }
        let out = run(&g, &cfg, |_, _, _| WakeFlood { woken: false });
        assert_eq!(out.undecided_count(), 0, "wake wave must reach everyone");
        // Wave takes one round per hop: node 4 wakes in round 4.
        assert_eq!(out.rounds, 5);
    }

    #[test]
    fn messages_through_round_accumulates() {
        let g = gen::path(6).unwrap();
        let out = flood(&g, 8, 0);
        assert_eq!(out.messages_through(0), 10, "round-0 broadcast is 2m");
        assert_eq!(
            out.messages_through(out.rounds),
            out.messages,
            "totals converge"
        );
        let mut prev = 0;
        for &(_, cum) in &out.round_totals {
            assert!(cum >= prev);
            prev = cum;
        }
    }

    #[test]
    #[should_panic(expected = "Wakeup::Adversarial names node 9")]
    fn adversarial_wakeup_out_of_range_panics() {
        let g = gen::path(5).unwrap();
        let cfg = SimConfig::seeded(0).with_wakeup(Wakeup::Adversarial(vec![0, 9]));
        run(&g, &cfg, |_, _, _| Sleeper {
            until: 10,
            fired: false,
        });
    }

    #[test]
    #[should_panic(expected = "at least one node must wake initially")]
    fn adversarial_wakeup_empty_panics() {
        let g = gen::path(5).unwrap();
        let cfg = SimConfig::seeded(0).with_wakeup(Wakeup::Adversarial(vec![]));
        run(&g, &cfg, |_, _, _| Sleeper {
            until: 10,
            fired: false,
        });
    }

    #[test]
    #[should_panic(expected = "watch edge (0, 3) is not an edge of the graph")]
    fn watching_a_non_edge_panics() {
        let g = gen::path(6).unwrap();
        let cfg = flood_cfg(6, 10, 0).watching(&[(3, 0)]);
        run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
    }

    #[test]
    #[should_panic(expected = "is not an edge of the graph")]
    fn watching_an_out_of_range_node_panics() {
        let g = gen::path(4).unwrap();
        let cfg = flood_cfg(4, 10, 0).watching(&[(2, 17)]);
        run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
    }

    #[test]
    fn duplicate_watch_entries_all_record_the_crossing() {
        let g = gen::path(6).unwrap();
        let cfg = flood_cfg(6, 10, 0).watching(&[(2, 3), (3, 2), (2, 3)]);
        let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
        let first = out.watch_hits[0].expect("edge (2,3) crossed");
        for (i, hit) in out.watch_hits.iter().enumerate() {
            assert_eq!(hit.expect("duplicate entry recorded"), first, "entry {i}");
        }
    }

    /// Nodes re-arming timers across activations leave stale heap entries
    /// behind; the lazy invalidation must neither double-activate nor lose
    /// wakeups. (Re-arming must span *separate* activations: within one
    /// `on_round`, `wake_at` collapses to the minimum before the engine
    /// sees it, and no stale entry is ever created.)
    struct Rearm {
        fires: u64,
    }
    impl Protocol for Rearm {
        type Msg = Signal;
        fn on_round(&mut self, ctx: &mut Context<'_, Signal>, _inbox: &[(usize, Signal)]) {
            match ctx.round() {
                // Arm far in the future and ping the neighbours so the
                // next two activations are message-triggered.
                0 => {
                    ctx.broadcast(Signal);
                    ctx.wake_at(1_000);
                }
                // Re-arm earlier: the (1000, v) heap entry goes stale.
                1 => {
                    ctx.broadcast(Signal);
                    ctx.wake_at(6);
                }
                // Re-arm earlier again: the (6, v) entry goes stale too;
                // it is due at a round the node must *not* run in, so it
                // exercises the admit loop's stale-drop path, while the
                // (1000, v) entries exercise the fast-forward one.
                2 => ctx.wake_at(5),
                5 => {
                    self.fires += 1;
                    ctx.wake_at(7);
                }
                7 => self.fires += 1,
                r => panic!("activated at unexpected round {r}"),
            }
        }
        fn status(&self) -> Status {
            if self.fires == 2 {
                Status::NonLeader
            } else {
                Status::Undecided
            }
        }
    }

    #[test]
    fn rearmed_timers_fire_once_at_the_earliest_round() {
        let g = gen::path(3).unwrap();
        let cfg = SimConfig::seeded(0).with_max_rounds(10_000);
        let out = run(&g, &cfg, |_, _, _| Rearm { fires: 0 });
        assert_eq!(out.termination, Termination::Quiescent);
        assert_eq!(out.undecided_count(), 0);
        assert_eq!(out.rounds, 8, "last activity at round 7");
        // Active rounds: 0-2 (messages), then 5 and 7 — the superseded
        // round-6 entries must not wake anyone and the superseded
        // round-1000 entries must not extend the run past quiescence.
        let active_rounds: Vec<u64> = out.round_totals.iter().map(|&(r, _)| r).collect();
        assert_eq!(active_rounds, vec![0, 1, 2, 5, 7]);
    }

    #[test]
    fn leader_count_helpers() {
        let g = gen::cycle(5).unwrap();
        let out = flood(&g, 6, 0);
        assert_eq!(out.leader_count(), 1);
        assert!(out.leader().is_some());
        assert_eq!(out.undecided_count(), 0);
    }

    #[test]
    fn node_rng_streams_are_independent() {
        // Distinct nodes under one seed get distinct streams.
        let mut seen = std::collections::BTreeSet::new();
        for v in 0..1000 {
            assert!(seen.insert(node_rng_seed(42, v)), "node {v} collided");
        }
        // The historical XOR derivation collides by construction: with
        // c = 0x5151, seeds s and s ^ h(u+c) ^ h(v+c) hand node u and
        // node v the same stream. The chained derivation must not.
        let (s, u, v) = (42u64, 3usize, 7usize);
        let h = |x: u64| splitmix64(x + 0x5151);
        let s2 = s ^ h(u as u64) ^ h(v as u64);
        assert_eq!(
            splitmix64(s ^ h(u as u64)),
            splitmix64(s2 ^ h(v as u64)),
            "sanity: the old derivation really did collide on this pair"
        );
        assert_ne!(node_rng_seed(s, u), node_rng_seed(s2, v));
        // Pin the derivation itself so it cannot silently change again
        // (every pinned fixture in the workspace depends on it).
        assert_eq!(node_rng_seed(0, 0), splitmix64(splitmix64(0)));
        assert_eq!(
            node_rng_seed(1, 2),
            splitmix64(splitmix64(1).wrapping_add(2))
        );
    }

    #[test]
    fn sharded_run_matches_sequential_byte_for_byte() {
        // Small graphs with Threads(k) exercise the shard + merge path on
        // every message-dense round (16 active ≥ 4 nodes/shard × 4).
        let g = gen::cycle(16).unwrap();
        let seq_cfg = flood_cfg(16, 12, 9).with_parallelism(Parallelism::Off);
        let mk = |_: NodeId, _: &NodeSetup, _: &mut StdRng| MiniFloodMax {
            best: 0,
            deadline: 12,
            decided: Status::Undecided,
        };
        let reference = run(&g, &seq_cfg, mk);
        for t in [2usize, 3, 4, 7] {
            let par_cfg = flood_cfg(16, 12, 9).with_parallelism(Parallelism::Threads(t));
            assert_eq!(run(&g, &par_cfg, mk), reference, "threads = {t}");
        }
    }

    #[test]
    fn explicit_lockstep_and_zero_delay_match_the_default_engine() {
        use crate::adversary::Adversary;
        let g = gen::cycle(12).unwrap();
        let reference = flood(&g, 10, 4);
        for adv in [
            Adversary::Lockstep,
            Adversary::BoundedDelay { max_delay: 0 },
            Adversary::Compose(vec![Adversary::Lockstep, Adversary::Lockstep]),
        ] {
            let cfg = flood_cfg(12, 10, 4).with_adversary(adv.clone());
            let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
                best: 0,
                deadline: 10,
                decided: Status::Undecided,
            });
            assert_eq!(out, reference, "{adv:?}");
            assert_eq!(out.messages_dropped, 0);
            assert!(out.crashed.is_empty() && out.late_deliveries.is_empty());
        }
    }

    #[test]
    fn bounded_delay_stretches_rounds_and_counts_late_deliveries() {
        use crate::adversary::Adversary;
        let g = gen::path(8).unwrap();
        let sync = flood(&g, 20, 3);
        let cfg = flood_cfg(8, 20, 3).with_adversary(Adversary::BoundedDelay { max_delay: 4 });
        let delayed = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 20,
            decided: Status::Undecided,
        });
        assert_eq!(delayed.termination, Termination::Quiescent);
        let late: u64 = delayed.late_deliveries.iter().map(|&(_, c)| c).sum();
        assert!(late > 0, "max_delay 4 must actually delay something");
        assert!(
            delayed.late_deliveries.windows(2).all(|w| w[0].0 < w[1].0),
            "late_deliveries must be sorted by round"
        );
        assert_eq!(delayed.messages_dropped, 0, "delay never drops");
        assert!(
            delayed.rounds >= sync.rounds,
            "delays cannot finish the flood earlier"
        );
        // Determinism: same seed, same delayed outcome.
        let again = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 20,
            decided: Status::Undecided,
        });
        assert_eq!(again, delayed);
    }

    #[test]
    fn bounded_delay_is_thread_count_invariant() {
        use crate::adversary::Adversary;
        let g = gen::cycle(16).unwrap();
        let mk = |_: NodeId, _: &NodeSetup, _: &mut StdRng| MiniFloodMax {
            best: 0,
            deadline: 14,
            decided: Status::Undecided,
        };
        let base = flood_cfg(16, 14, 7).with_adversary(Adversary::BoundedDelay { max_delay: 3 });
        let reference = run(&g, &base.clone().with_parallelism(Parallelism::Off), mk);
        for t in [2usize, 3, 5] {
            let par = run(
                &g,
                &base.clone().with_parallelism(Parallelism::Threads(t)),
                mk,
            );
            assert_eq!(par, reference, "threads = {t}");
        }
    }

    #[test]
    fn crashed_node_stops_stepping_and_loses_inbound_messages() {
        use crate::adversary::Adversary;
        // Node 2 of a 5-path crashes at round 0: it never runs, so the
        // flood can never cross it and each side decides on its own max.
        let g = gen::path(5).unwrap();
        let cfg = flood_cfg(5, 10, 0).with_adversary(Adversary::CrashStop {
            schedule: vec![(2, 0)],
        });
        let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
        assert_eq!(out.crashed, vec![2]);
        assert!(out.is_crashed(2) && !out.is_crashed(1));
        assert_eq!(out.statuses[2], Status::Undecided, "frozen at crash");
        // Sequential ids: node 4 holds the max. Nodes 3 and 4 decide
        // Leader-side; nodes 0 and 1 think node 1 (id 2) won their side.
        assert_eq!(out.statuses[4], Status::Leader);
        assert_eq!(
            out.statuses[1],
            Status::Leader,
            "left side elects its own max"
        );
        assert!(!out.election_succeeded(), "two survivors claim leadership");
        assert!(
            out.messages_dropped > 0,
            "messages into the crashed node are lost"
        );
        assert_eq!(out.termination, Termination::Quiescent);
    }

    #[test]
    fn messages_sent_before_a_crash_still_deliver() {
        use crate::adversary::Adversary;
        // Node 2 crashes at round 1, *after* its round-0 broadcast: the
        // broadcast is delivered (delivered-before-crash semantics), so
        // its id 3 becomes a ghost maximum on the left side — nodes 0 and
        // 1 see it and decide NonLeader, leaving the left without any
        // leader, while the right still elects node 4.
        let g = gen::path(5).unwrap();
        let cfg = flood_cfg(5, 10, 0).with_adversary(Adversary::CrashStop {
            schedule: vec![(2, 1)],
        });
        let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
        assert_eq!(out.crashed, vec![2]);
        assert_eq!(out.statuses[0], Status::NonLeader);
        assert_eq!(out.statuses[1], Status::NonLeader);
        assert_eq!(out.statuses[4], Status::Leader);
        assert!(
            out.election_succeeded(),
            "exactly one surviving leader: the ghost max suppressed the left"
        );
    }

    #[test]
    fn crash_aware_success_predicate_excludes_the_dead() {
        use crate::adversary::Adversary;
        // Crash a *leaf* (node 0) before it ever runs: the rest of the
        // path elects normally and the election counts as a success among
        // survivors even though node 0 is forever Undecided.
        let g = gen::path(5).unwrap();
        let cfg = flood_cfg(5, 10, 0).with_adversary(Adversary::CrashStop {
            schedule: vec![(0, 0)],
        });
        let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
        assert_eq!(out.crashed, vec![0]);
        assert_eq!(out.statuses[0], Status::Undecided);
        assert_eq!(out.leader(), Some(4));
        assert!(
            out.election_succeeded(),
            "crashed nodes are exempt from deciding"
        );
    }

    #[test]
    fn all_crashed_terminates_and_never_succeeds() {
        use crate::adversary::Adversary;
        let g = gen::path(3).unwrap();
        let cfg = flood_cfg(3, 10, 0).with_adversary(Adversary::CrashStop {
            schedule: vec![(0, 0), (1, 0), (2, 0)],
        });
        let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
        assert_eq!(out.termination, Termination::AllCrashed);
        assert_eq!(out.crashed, vec![0, 1, 2]);
        assert_eq!(out.messages, 0);
        assert!(!out.election_succeeded());
    }

    #[test]
    fn crash_resolves_pending_wakeups_without_hanging() {
        use crate::adversary::Adversary;
        // A sleeper armed for round 1_000 crashes at round 50: the engine
        // must neither wake it nor spin — the run quiesces, and the crash
        // (whose effect was observed) is reported as fired.
        let g = gen::path(2).unwrap();
        let cfg = SimConfig::seeded(0)
            .with_max_rounds(u64::MAX)
            .with_adversary(Adversary::CrashStop {
                schedule: vec![(0, 50), (1, 50)],
            });
        let out = run(&g, &cfg, |_, _, _| Sleeper {
            until: 1_000,
            fired: false,
        });
        assert_eq!(out.termination, Termination::AllCrashed);
        assert_eq!(out.crashed, vec![0, 1]);
        assert_eq!(out.undecided_count(), 2, "nobody ever fired");
    }

    #[test]
    fn link_failure_partitions_the_flood() {
        use crate::adversary::Adversary;
        // The middle edge of a 6-path dies at round 0: no message ever
        // crosses it, each side floods among itself.
        let g = gen::path(6).unwrap();
        let cfg = flood_cfg(6, 10, 0)
            .watching(&[(2, 3)])
            .with_adversary(Adversary::LinkFailure {
                schedule: vec![((2, 3), 0)],
            });
        let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
        assert!(out.messages_dropped > 0);
        assert!(out.crashed.is_empty());
        assert_eq!(
            out.watch_hits[0], None,
            "dropped messages never count as watch crossings"
        );
        assert_eq!(out.statuses[5], Status::Leader);
        assert_eq!(
            out.statuses[2],
            Status::Leader,
            "left side elects its own max"
        );
        assert!(!out.election_succeeded());
    }

    #[test]
    fn delay_plus_crash_compose() {
        use crate::adversary::Adversary;
        let g = gen::cycle(10).unwrap();
        let cfg = flood_cfg(10, 30, 5).with_adversary(Adversary::Compose(vec![
            Adversary::BoundedDelay { max_delay: 2 },
            Adversary::CrashStop {
                schedule: vec![(4, 3)],
            },
        ]));
        let mk = |_: NodeId, _: &NodeSetup, _: &mut StdRng| MiniFloodMax {
            best: 0,
            deadline: 30,
            decided: Status::Undecided,
        };
        let out = run(&g, &cfg, mk);
        assert_eq!(out.crashed, vec![4]);
        assert!(out.messages_dropped > 0, "the dead node's inbound drops");
        // Byte-for-byte reproducible, including under sharding.
        let par = run(
            &g,
            &cfg.clone().with_parallelism(Parallelism::Threads(3)),
            mk,
        );
        assert_eq!(par, out);
    }

    #[test]
    fn sharded_run_preserves_watch_hits_and_edge_stats() {
        let g = gen::path(12).unwrap();
        let watch = [(5, 6), (0, 1)];
        let mk = |_: NodeId, _: &NodeSetup, _: &mut StdRng| MiniFloodMax {
            best: 0,
            deadline: 14,
            decided: Status::Undecided,
        };
        let seq = run(
            &g,
            &flood_cfg(12, 14, 0)
                .watching(&watch)
                .with_parallelism(Parallelism::Off),
            mk,
        );
        let par = run(
            &g,
            &flood_cfg(12, 14, 0)
                .watching(&watch)
                .with_parallelism(Parallelism::Threads(3)),
            mk,
        );
        assert_eq!(par, seq);
        assert!(par.watch_hits.iter().all(Option::is_some));
    }

    #[test]
    fn implicit_topology_matches_the_materialized_graph() {
        // The same run on the procedural cycle and on its CSR
        // materialization must agree field for field, inline and sharded.
        let g = gen::cycle(16).unwrap();
        let t = ImplicitTopology::Cycle { n: 16 };
        let mk = |_: NodeId, _: &NodeSetup, _: &mut StdRng| MiniFloodMax {
            best: 0,
            deadline: 12,
            decided: Status::Undecided,
        };
        for cfg in [
            flood_cfg(16, 12, 9),
            flood_cfg(16, 12, 9).with_parallelism(Parallelism::Threads(3)),
            flood_cfg(16, 12, 9).with_adversary(crate::adversary::Adversary::BoundedDelay {
                max_delay: 2,
            }),
        ] {
            assert_eq!(run(&t, &cfg, mk), run(&g, &cfg, mk));
        }
    }

    #[test]
    fn edge_stats_off_empties_only_the_per_edge_arrays() {
        use crate::adversary::Adversary;
        let g = gen::cycle(10).unwrap();
        let mk = |_: NodeId, _: &NodeSetup, _: &mut StdRng| MiniFloodMax {
            best: 0,
            deadline: 8,
            decided: Status::Undecided,
        };
        let blank = |mut o: RunOutcome| {
            o.first_directed_use = Vec::new();
            o.directed_message_counts = Vec::new();
            o
        };
        let on = run(&g, &flood_cfg(10, 8, 2), mk);
        assert!(!on.first_directed_use.is_empty());
        let off = run(&g, &flood_cfg(10, 8, 2).with_edge_stats(false), mk);
        assert!(off.first_directed_use.is_empty());
        assert!(off.directed_message_counts.is_empty());
        assert_eq!(off, blank(on));
        // Asynchronous fates consume per-edge send indices internally even
        // when the outcome omits the arrays — delays must be unchanged.
        let adv = Adversary::BoundedDelay { max_delay: 3 };
        let don = run(&g, &flood_cfg(10, 8, 2).with_adversary(adv.clone()), mk);
        let doff = run(
            &g,
            &flood_cfg(10, 8, 2)
                .with_adversary(adv)
                .with_edge_stats(false),
            mk,
        );
        assert_eq!(doff, blank(don));
    }

    /// Draws from the node RNG only from round 2 on, so the lazy column
    /// densifies mid-run; each draw is checked against the values a
    /// pristine stream yields, pinning that lazy derivation plus the
    /// densify write-back reproduce a dense column's streams exactly.
    struct LateCoin {
        expect: [u64; 2],
        got: u64,
        done: bool,
    }
    impl Protocol for LateCoin {
        type Msg = Signal;
        fn on_round(&mut self, ctx: &mut Context<'_, Signal>, _inbox: &[(usize, Signal)]) {
            use rand::Rng;
            match ctx.round() {
                0 | 1 => ctx.wake_next(),
                2 => {
                    if ctx.rng().gen::<u64>() == self.expect[0] {
                        self.got += 1;
                    }
                    ctx.wake_next();
                }
                3 => {
                    if ctx.rng().gen::<u64>() == self.expect[1] {
                        self.got += 1;
                    }
                    self.done = true;
                }
                r => panic!("unexpected activation at round {r}"),
            }
        }
        fn status(&self) -> Status {
            if self.done && self.got == 2 {
                Status::NonLeader
            } else {
                Status::Undecided
            }
        }
    }

    #[test]
    fn lazy_rng_column_densifies_with_exact_streams() {
        use rand::Rng;
        let g = gen::cycle(8).unwrap();
        let cfg = SimConfig::seeded(77).with_max_rounds(100);
        // The factory snapshots the stream's first two values *without*
        // drawing from the real RNG (a clone draws instead), so the store
        // stays lazy until the protocols draw at rounds 2 and 3.
        let mk = |_: NodeId, _: &NodeSetup, rng: &mut StdRng| {
            let mut probe = rng.clone();
            LateCoin {
                expect: [probe.gen(), probe.gen()],
                got: 0,
                done: false,
            }
        };
        let out = run(&g, &cfg, mk);
        assert_eq!(
            out.undecided_count(),
            0,
            "every node's lazy draws must match its pristine stream"
        );
        // And the whole thing is thread-count invariant.
        let par = run(&g, &cfg.clone().with_parallelism(Parallelism::Threads(3)), mk);
        assert_eq!(par, out);
    }

    /// Factories that draw densify the column at init time.
    #[test]
    fn factory_draws_densify_at_init() {
        use rand::Rng;
        let g = gen::cycle(6).unwrap();
        let cfg = SimConfig::seeded(5).with_max_rounds(100);
        // Node 3's factory draws; later factories continue on a dense
        // column. Each node then verifies its post-factory stream state.
        let mk = |v: NodeId, _: &NodeSetup, rng: &mut StdRng| {
            if v >= 3 {
                let _burn: u64 = rng.gen();
            }
            let mut probe = rng.clone();
            LateCoin {
                expect: [probe.gen(), probe.gen()],
                got: 0,
                done: false,
            }
        };
        let out = run(&g, &cfg, mk);
        assert_eq!(out.undecided_count(), 0);
    }
}
