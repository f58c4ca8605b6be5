//! The async threads+channels runtime: real message passing, no round
//! barrier.
//!
//! Drives the *same* [`Protocol`] implementations as the lockstep engine
//! ([`crate::Runner`] on [`RuntimeKind::Sim`]), but over `std::sync::mpsc`
//! channels: the nodes are partitioned across a worker thread pool, every
//! message crosses a channel wrapped in a [`Frame`] whose sequence
//! number is gated on arrival ([`crate::transport::LinkGate`]), and there
//! is no global round loop — a node runs whenever its inputs are ready,
//! and idle stretches are crossed by an **arbiter handshake** instead of a
//! clock (round-free wakeups).
//!
//! # Conservative scheduling and the exactness guarantee
//!
//! This is a conservative parallel discrete-event simulation in the
//! Chandy–Misra tradition, with the engine's round numbers as virtual
//! time. Each node tracks a per-port **clock**: one past the latest *send*
//! round it has seen on that port (per-edge FIFO delivery — enforced by
//! the frame gates — makes that a lower bound on anything still in
//! flight, because a sender's send rounds strictly increase, so every
//! later frame on the port is delivered after its own send round). A node
//! executes its next event (earliest pending delivery or its own wakeup
//! timer) only once every in-port clock has reached that round, so no
//! earlier input can still arrive. When nothing is executable anywhere
//! and no frame is in flight, the last worker to block computes the
//! globally earliest next event `r*` and broadcasts an advance to `r*`
//! (or stops the run: quiescence / round cap) — the async analogue of the
//! engine's fast-forward, with the same semantics: skipped rounds count
//! as model time but cost no work.
//!
//! Because each activation consumes exactly the inputs the synchronous
//! model prescribes for that round — with inboxes ordered by `(send
//! round, sender, emission index)`, the engine's global send order, and
//! identical per-node RNG streams from `crate::exec::init_store` — the
//! runtime *reproduces the synchronous execution exactly*. The
//! [`RunOutcome`] of [`AsyncRuntime::run`] is **equal** to the engine's,
//! field for field: same leader, same message/bit totals, same rounds,
//! same per-edge statistics (`tests/async_conformance.rs` pins all 12
//! registry algorithms, under every adversary). This is deliberately
//! stronger than "message totals within tolerance": agreement validates
//! the simulator's accounting against real concurrent execution.
//!
//! # Adversaries without a sequential bottleneck
//!
//! Delay, crash and link-failure adversaries run here with engine-equal
//! outcomes because message fates are a pure function of `(run_seed,
//! directed edge, per-edge send index)` (see [`crate::adversary`]): each
//! worker derives the fate of its own sends locally from its per-edge
//! [`LinkSeq`] counters — the same coordinates the engine's ledger feeds
//! the schedule — so no global merge order is needed. Dropped sends still
//! consume a frame sequence number (the receiving gate tolerates the
//! gap), crashes suppress wakeups *at arm time* on both runtimes, and
//! deliveries into a node at or past its crash round are discarded at the
//! sender. Watch-edge accounting, whose `messages_before` field *is* a
//! global-interleaving quantity, is reconstructed post-hoc from the
//! delivery trace: events sorted by `(round, node)` are the engine's
//! execution order, and replaying the fate derivation over the logged
//! sends recovers exactly which send first crossed each watched edge.
//!
//! # Determinism and the delivery trace
//!
//! The outcome is deterministic at any worker count for the same reason
//! the engine is at any thread count: scheduling freedom moves wall-clock,
//! never the computation. In addition, a run records a [`DeliveryTrace`] —
//! which node ran at which round, what it consumed and what it emitted —
//! and [`replay`] re-executes a trace sequentially, verifying every step
//! and rebuilding the identical outcome and trace byte for byte.

use crate::adversary::{Adversary, Fate, Schedule, SendView};
use crate::calendar::CalendarQueue;
use crate::config::SimConfig;
use crate::exec::{
    ids_slice, init_store, step_node, validate_wakeup, CrashRounds, RunCtx, RunOutcome, SendSink,
    StagedSend, StepScratch, StoreSliceMut, Termination, WatchHit, NO_WAKE,
};
use crate::protocol::{NodeSetup, Protocol, Status};
use crate::transport::{Frame, LinkGate, LinkSeq};
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Mutex;
use ule_graph::{NodeId, Port, Topology};

/// Which runtime drives a run: the lockstep round simulator or the async
/// threads+channels runtime. Both execute the identical protocol code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeKind {
    /// The synchronous round engine: sequential reference semantics with
    /// optional sharded-parallel stepping.
    #[default]
    Sim,
    /// The async threads+channels runtime ([`AsyncRuntime`]): real message
    /// passing over `mpsc` channels, exact-conformant with the engine
    /// under every execution model.
    Async,
}

impl RuntimeKind {
    /// Stable lower-case name, as spelled in `ule-xp` specs.
    pub fn name(self) -> &'static str {
        match self {
            RuntimeKind::Sim => "sim",
            RuntimeKind::Async => "async",
        }
    }
}

/// One activation in a [`DeliveryTrace`]: node `node` ran at `round`,
/// consumed `delivered` and emitted `sent`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The (virtual-time) round of the activation.
    pub round: u64,
    /// The activated node.
    pub node: NodeId,
    /// Deliveries consumed, in inbox order: `(in-port, sender, emission
    /// index within the sender's activation)`.
    pub delivered: Vec<(Port, NodeId, u64)>,
    /// Frames emitted, in emission order: `(directed-edge index, frame
    /// sequence number on that link)`.
    pub sent: Vec<(usize, u64)>,
}

/// The delivery log of a deterministic-seed async run: every activation,
/// with what it consumed and emitted, sorted by `(round, node)` — the
/// engine's execution order. [`replay`] re-executes a trace sequentially
/// and must reproduce both the outcome and the trace byte for byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliveryTrace {
    /// The activations, sorted by `(round, node)`.
    pub events: Vec<TraceEvent>,
}

/// An async run's results: the outcome (equal to the engine's for the
/// same graph, config and factory) plus the delivery trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncRun {
    /// Everything measured, field-for-field comparable with the engine's
    /// outcome for the same graph, config and factory.
    pub outcome: RunOutcome,
    /// The delivery log (empty if trace recording was disabled).
    pub trace: DeliveryTrace,
}

/// Configuration of the async runtime: worker-pool size and trace
/// recording. The defaults record a trace and size the pool to the
/// machine (one worker inside a [`crate::harness::parallel_trials`]
/// fan-out, where the cores are already saturated).
#[derive(Debug, Clone, Default)]
pub struct AsyncRuntime {
    workers: Option<usize>,
    no_trace: bool,
}

impl AsyncRuntime {
    /// The default configuration.
    pub fn new() -> Self {
        AsyncRuntime::default()
    }

    /// Pins the worker-pool size (must be nonzero; values above `n` are
    /// clamped). The outcome is identical at any worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "the worker pool needs at least one thread");
        self.workers = Some(workers);
        self
    }

    /// Disables delivery-trace recording (the outcome is unaffected).
    pub fn without_trace(mut self) -> Self {
        self.no_trace = true;
        self
    }

    /// Runs `factory`-created protocol instances on `graph` under
    /// `config`, over channels. Every execution model is supported; the
    /// outcome equals the engine's field for field.
    ///
    /// # Panics
    ///
    /// As the engine: invalid configs and protocol API misuse panic
    /// (the panic surfaces on the main thread).
    pub fn run<T, P, F>(&self, graph: &T, config: &SimConfig, factory: F) -> AsyncRun
    where
        T: Topology,
        P: Protocol,
        F: FnMut(NodeId, &NodeSetup, &mut StdRng) -> P,
    {
        let n = graph.n();
        validate_wakeup(config, n);
        validate_watch_edges(graph, config);
        let mut store = init_store(graph, config, factory);
        // The lazy RNG column is an engine-side diet: its first-draw
        // write-back protocol lives in the engine's merge phase, so this
        // runtime materializes the identical streams up front instead.
        store.densify_rngs(config.seed);
        if n == 0 {
            return AsyncRun {
                outcome: assemble(
                    Vec::new(),
                    &store.statuses,
                    Termination::Quiescent,
                    0,
                    &CrashRounds::default(),
                    0,
                )
                .0,
                trace: DeliveryTrace::default(),
            };
        }
        // Build the adversary schedule on the main thread. Fate queries
        // are pure (`message_fate(&self)`), so the workers share it by
        // reference; `wake_round`/`crash_round` are consulted here only.
        let mut schedule = config.adversary.build(config.seed, graph);
        let synchronous = config.adversary == Adversary::Lockstep;
        let crash_round = CrashRounds::new(&mut *schedule, n);
        // Arm the spontaneous wakeups: the engine's stacked rule (wakeup
        // discipline AND adversary must wake — later round wins), with
        // crashes resolved eagerly at arm time exactly as the engine does.
        let mut setup_horizon = 0u64;
        let mut wakeup_schedule = config.wakeup.as_schedule();
        for v in 0..n {
            let wake = match (wakeup_schedule.wake_round(v), schedule.wake_round(v)) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
            if let Some(w) = wake {
                match crash_round.get(v) {
                    Some(c) if c <= w => setup_horizon = setup_horizon.max(c),
                    _ => store.wake[v] = w,
                }
            }
        }
        let schedule: &dyn Schedule = &*schedule;
        let crash_round = &crash_round;
        let rc = RunCtx {
            topo: graph,
            ids: ids_slice(config, n),
            knowledge: config.knowledge,
            seed: config.seed,
        };

        let workers = self.workers.unwrap_or_else(|| default_workers(n)).min(n);
        let chunk = n.div_ceil(workers);
        let n_workers = n.div_ceil(chunk);
        let budget = config.model.bit_budget(n);
        let dcount = graph.directed_edge_count();

        let mut stats: Vec<WorkerStats> =
            (0..n_workers).map(|_| WorkerStats::new(dcount)).collect();
        let coord = Mutex::new(Coord {
            blocked: 0,
            in_flight: 0,
            next_event: vec![u64::MAX; n_workers],
            last_exec: vec![None; n_workers],
            termination: None,
            end_round: 0,
        });
        let mut senders: Vec<Sender<Packet<P::Msg>>> = Vec::with_capacity(n_workers);
        let mut receivers: Vec<Receiver<Packet<P::Msg>>> = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }

        // Watch-edge reconstruction needs the event log even when the
        // caller asked for no public trace.
        let record_trace = !self.no_trace || !config.watch_edges.is_empty();
        std::thread::scope(|scope| {
            let mut rest = store.as_mut();
            let coord = &coord;
            for ((w, stat), rx) in stats.iter_mut().enumerate().zip(receivers) {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(n);
                let (mine, rem) = rest.split_at_mut(hi - lo);
                rest = rem;
                let senders = senders.clone();
                scope.spawn(move || {
                    let worker = Worker {
                        w,
                        lo,
                        hi,
                        chunk,
                        cap: config.max_rounds,
                        budget,
                        n_workers,
                        record_trace,
                        synchronous,
                        rc,
                        schedule,
                        crash_round,
                        store: mine,
                        rt: (lo..hi).map(|v| NodeRt::new(graph.degree(v))).collect(),
                        started: vec![false; hi - lo],
                        inbox: Vec::new(),
                        stats: stat,
                        senders,
                        coord,
                        scratch: StepScratch::default(),
                    };
                    worker.run(rx)
                });
            }
        });
        drop(senders);

        let (termination, end_round) = {
            let coord = lock(&coord);
            (
                coord
                    .termination
                    .expect("workers stopped without an arbiter decision"),
                coord.end_round,
            )
        };
        let (mut outcome, mut events) = assemble(
            stats,
            &store.statuses,
            termination,
            end_round,
            crash_round,
            setup_horizon,
        );
        events.sort_by_key(|e| (e.round, e.node));
        if !config.watch_edges.is_empty() {
            outcome.watch_hits =
                reconstruct_watch_hits(graph, config, &events, synchronous, schedule, crash_round);
            if self.no_trace {
                events.clear();
            }
        }
        if !config.edge_stats {
            outcome.first_directed_use = Vec::new();
            outcome.directed_message_counts = Vec::new();
        }
        AsyncRun {
            outcome,
            trace: DeliveryTrace { events },
        }
    }
}

/// Panics (like the engine's ledger) if a configured watch edge is not an
/// edge of `graph`.
fn validate_watch_edges<T: Topology>(graph: &T, config: &SimConfig) {
    for &(a, b) in &config.watch_edges {
        assert!(
            graph.has_edge(a, b),
            "watch edge ({a}, {b}) is not an edge of the graph"
        );
    }
}

/// Rebuilds the engine's watch-edge accounting from the delivery trace.
///
/// `events` sorted by `(round, node)` is exactly the engine's execution
/// order, and every activation logs *all* of its sends — including
/// dropped ones — as `(directed edge, per-edge send index)`. Re-deriving
/// each send's fate (plus the sender-side dead-on-arrival crash check)
/// therefore recovers which sends the engine actually delivered, in the
/// engine's global send order; `messages_before` counts every send —
/// delivered or not — strictly before the first delivered crossing, which
/// is what the ledger counts too.
fn reconstruct_watch_hits<T: Topology>(
    graph: &T,
    config: &SimConfig,
    events: &[TraceEvent],
    synchronous: bool,
    schedule: &dyn Schedule,
    crash_round: &CrashRounds,
) -> Vec<Option<WatchHit>> {
    // Directed-edge index -> (src, dest), and normalized undirected edge
    // -> positions in `config.watch_edges` (duplicates all resolve).
    let mut endpoints = vec![(0 as NodeId, 0 as NodeId); graph.directed_edge_count()];
    for v in 0..graph.n() {
        for p in 0..graph.degree(v) {
            let (dest, _rev, didx) = graph.endpoint_indexed(v, p);
            endpoints[didx] = (v, dest);
        }
    }
    // Keyed exactly as the ledger keys its index: entries as configured,
    // lookups normalized.
    let mut watch_index: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
    for (i, &(a, b)) in config.watch_edges.iter().enumerate() {
        watch_index.entry((a, b)).or_default().push(i);
    }
    let mut hits: Vec<Option<WatchHit>> = vec![None; config.watch_edges.len()];
    let mut unresolved = hits.len();
    let mut sent_so_far: u64 = 0;
    'events: for ev in events {
        for &(didx, edge_seq) in &ev.sent {
            let (src, dest) = endpoints[didx];
            let delivered = if synchronous {
                true
            } else {
                let view = SendView {
                    round: ev.round,
                    edge_seq,
                    src,
                    dest,
                    didx,
                };
                match schedule.message_fate(&view) {
                    Fate::Dropped => false,
                    Fate::Deliver { round: at } => {
                        !crash_round.get(dest).is_some_and(|c| c <= at)
                    }
                }
            };
            sent_so_far += 1;
            if !delivered {
                continue;
            }
            let key = (src.min(dest), src.max(dest));
            if let Some(indices) = watch_index.get(&key) {
                for &i in indices {
                    if hits[i].is_none() {
                        hits[i] = Some(WatchHit {
                            round: ev.round,
                            messages_before: sent_so_far - 1,
                        });
                        unresolved -= 1;
                    }
                }
                if unresolved == 0 {
                    break 'events;
                }
            }
        }
    }
    hits
}

/// Re-executes a recorded [`DeliveryTrace`] sequentially: every activation
/// is replayed in `(round, node)` order, its consumed deliveries and
/// emitted frames are verified against the trace, and the identical
/// [`AsyncRun`] — outcome *and* regenerated trace — is rebuilt byte for
/// byte. `graph`, `config` and `factory` must be those of the recorded
/// run.
///
/// # Panics
///
/// Panics if the trace does not match the execution (a divergence means
/// the trace, the config or the protocol changed since recording).
pub fn replay<T, P, F>(graph: &T, config: &SimConfig, factory: F, trace: &DeliveryTrace) -> AsyncRun
where
    T: Topology,
    P: Protocol,
    F: FnMut(NodeId, &NodeSetup, &mut StdRng) -> P,
{
    let n = graph.n();
    validate_wakeup(config, n);
    validate_watch_edges(graph, config);
    let mut store = init_store(graph, config, factory);
    store.densify_rngs(config.seed);
    let mut schedule = config.adversary.build(config.seed, graph);
    let synchronous = config.adversary == Adversary::Lockstep;
    let crash_round = CrashRounds::new(&mut *schedule, n);
    let mut setup_horizon = 0u64;
    let mut wakeup_schedule = config.wakeup.as_schedule();
    for v in 0..n {
        let wake = match (wakeup_schedule.wake_round(v), schedule.wake_round(v)) {
            (Some(a), Some(b)) => Some(a.max(b)),
            _ => None,
        };
        if let Some(w) = wake {
            match crash_round.get(v) {
                Some(c) if c <= w => setup_horizon = setup_horizon.max(c),
                _ => store.wake[v] = w,
            }
        }
    }
    let schedule: &dyn Schedule = &*schedule;
    let rc = RunCtx {
        topo: graph,
        ids: ids_slice(config, n),
        knowledge: config.knowledge,
        seed: config.seed,
    };
    let cap = config.max_rounds;
    let budget = config.model.bit_budget(n);
    let mut rt: Vec<NodeRt<P::Msg>> = (0..n).map(|v| NodeRt::new(graph.degree(v))).collect();
    let mut stats = WorkerStats::new(graph.directed_edge_count());
    let mut scratch: StepScratch<P::Msg> = StepScratch::default();
    let mut inbox: Vec<(Port, P::Msg)> = Vec::new();
    let mut started = vec![false; n];
    // A replay is a one-worker execution with no channels: every delivery
    // is local, so the sink's sender list and arbiter are never touched.
    let senders: Vec<Sender<Packet<P::Msg>>> = Vec::new();
    let coord = Mutex::new(Coord {
        blocked: 0,
        in_flight: 0,
        next_event: Vec::new(),
        last_exec: Vec::new(),
        termination: None,
        end_round: 0,
    });

    {
        let mut view = store.as_mut();
        for ev in &trace.events {
            let (v, e) = (ev.node, ev.round);
            assert!(
                v < n,
                "replay: trace names node {v}, but the graph has {n} nodes"
            );
            assert!(
                e < cap,
                "replay: trace activates node {v} at round {e}, at or past the round cap {cap}"
            );
            let mut due = rt[v].pending.take_at(e);
            due.sort_by_key(|a| (a.0, a.1, a.2));
            if due.is_empty() {
                assert_eq!(
                    view.wake[v], e,
                    "replay: node {v} has no delivery and no timer due at round {e}"
                );
            }
            let delivered: Vec<(Port, NodeId, u64)> = due
                .iter()
                .map(|&(_, src, emit, port, _)| (port, src, emit))
                .collect();
            assert_eq!(
                delivered, ev.delivered,
                "replay divergence: node {v} at round {e} consumes different deliveries"
            );
            inbox.clear();
            inbox.extend(due.drain(..).map(|(_, _, _, port, msg)| (port, msg)));
            rt[v].pending.recycle(due);
            let mut sink = ChannelSink {
                round: e,
                lo: 0,
                hi: n,
                chunk: n,
                budget,
                synchronous,
                schedule,
                crash_round: &crash_round,
                rt: &mut rt,
                stats: &mut stats,
                senders: &senders,
                coord: &coord,
                emit: 0,
                sent_log: Vec::new(),
                record_trace: true,
            };
            let effects = step_node(
                &rc, e, v, &mut view, v, !started[v], &inbox, &mut scratch, &mut sink,
            );
            started[v] = true;
            let sent = std::mem::take(&mut sink.sent_log);
            assert_eq!(
                sent, ev.sent,
                "replay divergence: node {v} at round {e} emits different frames"
            );
            if let Some(w) = effects.rearmed {
                if let Some(c) = crash_round.get(v) {
                    if c <= w {
                        view.wake[v] = NO_WAKE;
                        stats.crash_horizon = stats.crash_horizon.max(c);
                    }
                }
            }
            stats.note_exec(e, v, delivered, sent, effects.status_changed, true);
        }
    }

    // The trace carries no termination verdict; re-derive it the way the
    // arbiter did. Any event left executable below the cap means the
    // trace is truncated — that is a divergence, not a verdict.
    let r_next = (0..n)
        .map(|v| next_event_round(store.wake[v], &mut rt[v]))
        .min()
        .unwrap_or(u64::MAX);
    let rounds_done = stats.last_exec.map_or(0, |r| r + 1);
    let (termination, end_round) = if r_next == u64::MAX {
        if rounds_done >= cap {
            (Termination::RoundLimit, cap)
        } else {
            (Termination::Quiescent, rounds_done)
        }
    } else {
        assert!(
            r_next >= cap,
            "replay: trace ended with an executable event at round {r_next} (cap {cap})"
        );
        (
            Termination::RoundLimit,
            if rounds_done >= cap { cap } else { r_next },
        )
    };
    let (mut outcome, mut events) = assemble(
        vec![stats],
        &store.statuses,
        termination,
        end_round,
        &crash_round,
        setup_horizon,
    );
    events.sort_by_key(|e| (e.round, e.node));
    if !config.watch_edges.is_empty() {
        outcome.watch_hits =
            reconstruct_watch_hits(graph, config, &events, synchronous, schedule, &crash_round);
    }
    if !config.edge_stats {
        outcome.first_directed_use = Vec::new();
        outcome.directed_message_counts = Vec::new();
    }
    AsyncRun {
        outcome,
        trace: DeliveryTrace { events },
    }
}

/// Worker-pool size when the caller does not pin one: the machine's
/// parallelism, except inside a trial fan-out (cores already saturated).
fn default_workers(n: usize) -> usize {
    if crate::harness::in_trial_fanout() {
        1
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n)
    }
}

/// Locks ignoring poisoning: the arbiter state stays consistent because
/// every critical section is a few counter updates; on a worker panic the
/// run is abandoned (the panic propagates) and the state is only read for
/// cleanup.
fn lock(coord: &Mutex<Coord>) -> std::sync::MutexGuard<'_, Coord> {
    coord
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What crosses the worker channels.
enum Packet<M> {
    /// One protocol message: the [`Frame`] carries the link sequence
    /// number (gated on arrival) and the delivery metadata
    /// `[send round, delivery round, sender, emission index]`; the
    /// protocol payload rides alongside, untouched.
    Payload {
        dest: NodeId,
        port: Port,
        frame: Frame,
        msg: M,
    },
    /// Arbiter broadcast: no frame below round `upto` is outstanding
    /// anywhere — every in-port clock may advance to it.
    Advance { upto: u64 },
    /// Arbiter broadcast: the run is over.
    Stop,
}

/// The arbiter state: who is blocked, what is in flight, and each
/// worker's report. A worker that blocks with every peer blocked and
/// nothing in flight performs the advance/stop decision itself — there is
/// no dedicated coordinator thread.
struct Coord {
    blocked: usize,
    /// Packets sent but not yet processed (incremented *before* the send).
    in_flight: u64,
    /// Per worker: earliest next event round (`u64::MAX` = none).
    next_event: Vec<u64>,
    /// Per worker: latest executed round.
    last_exec: Vec<Option<u64>>,
    termination: Option<Termination>,
    /// The engine's `end_round` at the arbiter's stop decision (the round
    /// its loop would have broken at): `rounds_done` on quiescence, the
    /// truncation round on a round-limit stop. Crash horizons extend it
    /// during assembly, exactly as in `Ledger::finish`.
    end_round: u64,
}

/// Horizon of each node's delivery calendar: under the lockstep model
/// every delivery lands one round ahead, so a tiny ring suffices — and at
/// `n = 10⁶+` nodes a per-node ring must stay small (delay adversaries
/// past the horizon land in the overflow tier).
const NODE_CALENDAR_HORIZON: usize = 8;

/// Per-node runtime state beyond the [`crate::exec::NodeStore`] entry.
struct NodeRt<M> {
    /// Deliveries by round, in a flat calendar ring (the node's base round
    /// advances as it executes); entries are `(send round, sender,
    /// emission index, port, message)`, sorted at activation into the
    /// engine's inbox order.
    pending: CalendarQueue<(u64, NodeId, u64, Port, M)>,
    /// Per in-port clock: no delivery at or below this round is still in
    /// flight on that port.
    in_clock: Vec<u64>,
    /// Frame-sequence gate over the in-ports.
    gate: LinkGate,
}

impl<M> NodeRt<M> {
    fn new(degree: usize) -> Self {
        NodeRt {
            pending: CalendarQueue::with_horizon(NODE_CALENDAR_HORIZON),
            in_clock: vec![0; degree],
            gate: LinkGate::new(degree),
        }
    }
}

/// The earliest round a node has any reason to run: its timer (`wake`,
/// with [`NO_WAKE`] `== u64::MAX` meaning none) or its earliest queued
/// delivery.
fn next_event_round<M>(wake: u64, rt: &mut NodeRt<M>) -> u64 {
    let delivery = rt.pending.next_event_round().unwrap_or(u64::MAX);
    wake.min(delivery)
}

/// Gates, decodes and queues one frame at its destination.
///
/// The port clock advances to `send round + 1`, not to the delivery
/// round: per-directed-edge send rounds strictly increase (a node sends
/// at most once per port per round), so after a frame sent at round `s`
/// arrives, nothing still in flight on this port can be due at or before
/// `s + 1` — even when a delay adversary scatters delivery rounds out of
/// order.
fn deliver_frame<M>(dest: &mut NodeRt<M>, port: Port, frame: &Frame, msg: M) {
    let words = dest.gate.accept(port, frame);
    debug_assert_eq!(
        words.len(),
        4,
        "delivery frame carries [send round, deliver at, src, emit]"
    );
    let (send_round, at, src, emit) = (words[0], words[1], words[2] as NodeId, words[3]);
    dest.in_clock[port] = dest.in_clock[port].max(send_round + 1);
    dest.pending.push(at, (send_round, src, emit, port, msg));
}

/// Per-worker accounting, merged into the [`RunOutcome`] after the pool
/// joins. Workers own disjoint node ranges, so per-directed-edge entries
/// never collide (a node's out-edges belong to its owner).
struct WorkerStats {
    messages: u64,
    bits: u64,
    congest_violations: u64,
    max_message_bits: u64,
    first_directed_use: Vec<u64>,
    directed_message_counts: Vec<u64>,
    /// Outgoing link sequencers, by directed-edge index.
    link_seq: Vec<LinkSeq>,
    /// Messages sent per round (for the cumulative `round_totals`);
    /// dropped sends count, exactly as in the ledger.
    sends_per_round: BTreeMap<u64, u64>,
    /// Rounds in which any owned node ran (the active rounds).
    executed: BTreeSet<u64>,
    /// Sends the adversary dropped or that would arrive at a crashed
    /// destination (sender-side dead-on-arrival).
    messages_dropped: u64,
    /// Deliveries later than the synchronous `round + 1`, tallied by
    /// delivery round.
    late: BTreeMap<u64, u64>,
    /// Latest crash round that suppressed a wakeup of an owned node.
    crash_horizon: u64,
    last_status_change: Option<u64>,
    last_exec: Option<u64>,
    events: Vec<TraceEvent>,
}

impl WorkerStats {
    fn new(dcount: usize) -> Self {
        WorkerStats {
            messages: 0,
            bits: 0,
            congest_violations: 0,
            max_message_bits: 0,
            first_directed_use: vec![u64::MAX; dcount],
            directed_message_counts: vec![0u64; dcount],
            link_seq: (0..dcount).map(|_| LinkSeq::new()).collect(),
            sends_per_round: BTreeMap::new(),
            executed: BTreeSet::new(),
            messages_dropped: 0,
            late: BTreeMap::new(),
            crash_horizon: 0,
            last_status_change: None,
            last_exec: None,
            events: Vec::new(),
        }
    }

    /// Books one activation of `node` at `round`.
    fn note_exec(
        &mut self,
        round: u64,
        node: NodeId,
        delivered: Vec<(Port, NodeId, u64)>,
        sent: Vec<(usize, u64)>,
        status_changed: bool,
        record_trace: bool,
    ) {
        self.executed.insert(round);
        self.last_exec = Some(self.last_exec.map_or(round, |r| r.max(round)));
        if status_changed {
            self.last_status_change = Some(self.last_status_change.map_or(round, |r| r.max(round)));
        }
        if record_trace {
            self.events.push(TraceEvent {
                round,
                node,
                delivered,
                sent,
            });
        }
    }
}

/// The [`SendSink`] of the async runtime: accounts each send, stamps it
/// into a [`Frame`] on its link, and either queues it locally (the
/// destination shares this worker) or ships it over the destination
/// worker's channel.
struct ChannelSink<'a, M> {
    round: u64,
    /// This worker's node range (`lo..hi`); `rt` is indexed by `v - lo`.
    lo: NodeId,
    hi: NodeId,
    chunk: usize,
    budget: u64,
    /// Fast path: under [`Adversary::Lockstep`] no fate is queried.
    synchronous: bool,
    schedule: &'a dyn Schedule,
    crash_round: &'a CrashRounds,
    rt: &'a mut [NodeRt<M>],
    stats: &'a mut WorkerStats,
    senders: &'a [Sender<Packet<M>>],
    coord: &'a Mutex<Coord>,
    /// Emission index within the current activation.
    emit: u64,
    /// `(directed-edge index, frame seq)` log of the current activation —
    /// dropped sends included (the fate derivation recovers them).
    sent_log: Vec<(usize, u64)>,
    record_trace: bool,
}

impl<M> SendSink<M> for ChannelSink<'_, M> {
    fn accept(&mut self, send: StagedSend<M>) {
        let emit = self.emit;
        self.emit += 1;
        let st = &mut *self.stats;
        // The per-edge send index feeding the fate stream: the count
        // *before* this send — the same coordinate the engine's ledger
        // derives, and the value the link sequencer stamps next.
        let edge_seq = st.directed_message_counts[send.didx];
        st.messages += 1;
        st.bits += send.bits;
        st.max_message_bits = st.max_message_bits.max(send.bits);
        if send.bits > self.budget {
            st.congest_violations += 1;
        }
        st.directed_message_counts[send.didx] += 1;
        if st.first_directed_use[send.didx] == u64::MAX {
            st.first_directed_use[send.didx] = self.round;
        }
        *st.sends_per_round.entry(self.round).or_insert(0) += 1;

        let deliver_at = if self.synchronous {
            self.round + 1
        } else {
            let view = SendView {
                round: self.round,
                edge_seq,
                src: send.src,
                dest: send.dest,
                didx: send.didx,
            };
            match self.schedule.message_fate(&view) {
                Fate::Dropped => {
                    // Dropped sends still consume their frame sequence
                    // number so the receiving gate sees a gap, never a
                    // regression; the seq is consumed by not stamping.
                    let seq = st.link_seq[send.didx].stamp(Vec::new()).seq;
                    debug_assert_eq!(seq, edge_seq);
                    if self.record_trace {
                        self.sent_log.push((send.didx, seq));
                    }
                    st.messages_dropped += 1;
                    return;
                }
                Fate::Deliver { round: at } => {
                    assert!(
                        at > self.round,
                        "schedule delivered a round-{} send at round {at}",
                        self.round
                    );
                    at
                }
            }
        };
        // Sender-side crash check: a message into a node at or past its
        // crash round is dead on arrival — same rule as the ledger.
        if let Some(c) = self.crash_round.get(send.dest) {
            if c <= deliver_at {
                let seq = st.link_seq[send.didx].stamp(Vec::new()).seq;
                debug_assert_eq!(seq, edge_seq);
                if self.record_trace {
                    self.sent_log.push((send.didx, seq));
                }
                st.messages_dropped += 1;
                st.crash_horizon = st.crash_horizon.max(c);
                return;
            }
        }
        if deliver_at > self.round + 1 {
            *st.late.entry(deliver_at).or_insert(0) += 1;
        }

        let frame = st.link_seq[send.didx].stamp(vec![
            self.round,
            deliver_at,
            send.src as u64,
            emit,
        ]);
        debug_assert_eq!(frame.seq, edge_seq);
        if self.record_trace {
            self.sent_log.push((send.didx, frame.seq));
        }
        if send.dest >= self.lo && send.dest < self.hi {
            // The destination shares this worker: queue it directly —
            // through the same gate the channel path uses.
            deliver_frame(
                &mut self.rt[send.dest - self.lo],
                send.dest_port,
                &frame,
                send.msg,
            );
        } else {
            {
                let mut c = lock(self.coord);
                c.in_flight += 1;
            }
            self.senders[send.dest / self.chunk]
                .send(Packet::Payload {
                    dest: send.dest,
                    port: send.dest_port,
                    frame,
                    msg: send.msg,
                })
                .expect("a worker channel closed mid-run");
        }
    }
}

/// What the arbiter decided at a global block.
enum Decision {
    Advance(u64),
    Stop,
}

/// One pool worker: owns the contiguous node range `lo..hi`.
struct Worker<'env, T: Topology, P: Protocol> {
    w: usize,
    lo: NodeId,
    hi: NodeId,
    chunk: usize,
    cap: u64,
    budget: u64,
    n_workers: usize,
    record_trace: bool,
    synchronous: bool,
    rc: RunCtx<'env, T>,
    schedule: &'env dyn Schedule,
    crash_round: &'env CrashRounds,
    store: StoreSliceMut<'env, P>,
    rt: Vec<NodeRt<P::Msg>>,
    /// Ever-activated flags for the owned range (indexed by `v - lo`).
    started: Vec<bool>,
    /// Reusable inbox buffer for the node currently stepping.
    inbox: Vec<(Port, P::Msg)>,
    stats: &'env mut WorkerStats,
    senders: Vec<Sender<Packet<P::Msg>>>,
    coord: &'env Mutex<Coord>,
    scratch: StepScratch<P::Msg>,
}

impl<T: Topology, P: Protocol> Worker<'_, T, P> {
    fn run(mut self, rx: Receiver<Packet<P::Msg>>) {
        // A protocol panic must not strand the peers in `recv` forever:
        // broadcast Stop, then let the panic propagate through the scope.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.drive(&rx)));
        if let Err(payload) = result {
            {
                let mut c = lock(self.coord);
                c.in_flight += self.n_workers as u64;
            }
            for s in &self.senders {
                let _ = s.send(Packet::Stop);
            }
            std::panic::resume_unwind(payload);
        }
    }

    fn drive(&mut self, rx: &Receiver<Packet<P::Msg>>) {
        loop {
            // Drain the channel without blocking.
            let mut got = false;
            loop {
                match rx.try_recv() {
                    Ok(pkt) => {
                        got = true;
                        if self.handle(pkt) {
                            return;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return,
                }
            }
            // Execute everything executable; local deliveries can unlock
            // earlier nodes, so sweep until a full pass does nothing.
            let mut ran = false;
            loop {
                let mut pass = false;
                for i in 0..(self.hi - self.lo) {
                    while let Some(e) = self.executable(i) {
                        self.execute(i, e);
                        pass = true;
                    }
                }
                if !pass {
                    break;
                }
                ran = true;
            }
            if got || ran {
                continue;
            }
            // Nothing to do: report, maybe arbitrate, then block.
            if self.block(rx) {
                return;
            }
        }
    }

    /// The round node `lo + i` can execute now, if any: its next event,
    /// provided every in-port clock has reached it and it is below the
    /// round cap.
    fn executable(&mut self, i: usize) -> Option<u64> {
        let e = next_event_round(self.store.wake[i], &mut self.rt[i]);
        if e == u64::MAX || e >= self.cap {
            return None;
        }
        if self.rt[i].in_clock.iter().all(|&c| c >= e) {
            Some(e)
        } else {
            None
        }
    }

    /// Executes node `lo + i` at round `e`.
    fn execute(&mut self, i: usize, e: u64) {
        let v = self.lo + i;
        debug_assert!(
            !self.crash_round.get(v).is_some_and(|c| c <= e),
            "a crashed node became executable (arm/send-time filtering is broken)"
        );
        let mut due = self.rt[i].pending.take_at(e);
        // The engine's inbox order — the global send order: ascending send
        // round, then sender, then the sender's emission order.
        due.sort_by_key(|a| (a.0, a.1, a.2));
        let delivered: Vec<(Port, NodeId, u64)> = if self.record_trace {
            due.iter()
                .map(|&(_, src, emit, port, _)| (port, src, emit))
                .collect()
        } else {
            Vec::new()
        };
        self.inbox.clear();
        self.inbox
            .extend(due.drain(..).map(|(_, _, _, port, msg)| (port, msg)));
        self.rt[i].pending.recycle(due);
        let first = !self.started[i];
        let mut sink = ChannelSink {
            round: e,
            lo: self.lo,
            hi: self.hi,
            chunk: self.chunk,
            budget: self.budget,
            synchronous: self.synchronous,
            schedule: self.schedule,
            crash_round: self.crash_round,
            rt: &mut self.rt,
            stats: self.stats,
            senders: &self.senders,
            coord: self.coord,
            emit: 0,
            sent_log: Vec::new(),
            record_trace: self.record_trace,
        };
        let effects = step_node(
            &self.rc,
            e,
            v,
            &mut self.store,
            i,
            first,
            &self.inbox,
            &mut self.scratch,
            &mut sink,
        );
        self.started[i] = true;
        let sent = std::mem::take(&mut sink.sent_log);
        // A re-armed timer at or past the node's crash round is resolved
        // eagerly, exactly as the engine's merge does.
        if let Some(w) = effects.rearmed {
            if let Some(c) = self.crash_round.get(v) {
                if c <= w {
                    self.store.wake[i] = NO_WAKE;
                    self.stats.crash_horizon = self.stats.crash_horizon.max(c);
                }
            }
        }
        self.stats.note_exec(
            e,
            v,
            delivered,
            sent,
            effects.status_changed,
            self.record_trace,
        );
    }

    /// Reports this worker idle and blocks on the channel; the last
    /// worker to block (with nothing in flight) arbitrates. Returns true
    /// when the run is over.
    fn block(&mut self, rx: &Receiver<Packet<P::Msg>>) -> bool {
        let decision = {
            let mut c = lock(self.coord);
            c.blocked += 1;
            c.next_event[self.w] = (0..(self.hi - self.lo))
                .map(|i| next_event_round(self.store.wake[i], &mut self.rt[i]))
                .min()
                .unwrap_or(u64::MAX);
            c.last_exec[self.w] = self.stats.last_exec;
            if c.blocked == self.n_workers && c.in_flight == 0 {
                let r_star = c.next_event.iter().copied().min().unwrap_or(u64::MAX);
                let rounds_done = c
                    .last_exec
                    .iter()
                    .filter_map(|&r| r)
                    .max()
                    .map_or(0, |r| r + 1);
                let decision = if r_star == u64::MAX {
                    // Quiescent — unless the run *ended at* the cap, which
                    // the engine reports as a truncation.
                    if rounds_done >= self.cap {
                        c.termination = Some(Termination::RoundLimit);
                        c.end_round = self.cap;
                        Decision::Stop
                    } else {
                        c.termination = Some(Termination::Quiescent);
                        c.end_round = rounds_done;
                        Decision::Stop
                    }
                } else if r_star >= self.cap {
                    c.termination = Some(Termination::RoundLimit);
                    // The engine breaks as soon as its round counter
                    // reaches the cap: right after an active round at
                    // `cap - 1`, or after fast-forwarding to `r*`.
                    c.end_round = if rounds_done >= self.cap {
                        self.cap
                    } else {
                        r_star
                    };
                    Decision::Stop
                } else {
                    Decision::Advance(r_star)
                };
                c.in_flight += self.n_workers as u64;
                Some(decision)
            } else {
                None
            }
        };
        if let Some(d) = decision {
            for s in &self.senders {
                let pkt = match d {
                    Decision::Advance(upto) => Packet::Advance { upto },
                    Decision::Stop => Packet::Stop,
                };
                s.send(pkt).expect("a worker channel closed mid-run");
            }
        }
        match rx.recv() {
            Ok(pkt) => {
                {
                    let mut c = lock(self.coord);
                    c.blocked -= 1;
                }
                self.handle(pkt)
            }
            Err(_) => true,
        }
    }

    /// Processes one packet; returns true on Stop.
    fn handle(&mut self, pkt: Packet<P::Msg>) -> bool {
        match pkt {
            Packet::Payload {
                dest,
                port,
                frame,
                msg,
            } => {
                deliver_frame(&mut self.rt[dest - self.lo], port, &frame, msg);
                let mut c = lock(self.coord);
                c.in_flight -= 1;
                false
            }
            Packet::Advance { upto } => {
                for node in self.rt.iter_mut() {
                    for clock in node.in_clock.iter_mut() {
                        *clock = (*clock).max(upto);
                    }
                }
                let mut c = lock(self.coord);
                c.in_flight -= 1;
                false
            }
            Packet::Stop => true,
        }
    }
}

/// Merges per-worker accounting into the [`RunOutcome`] (plus the raw,
/// unsorted trace events). The crash finishing — horizon-extended end
/// round, crashed roster, all-crashed downgrade — replicates
/// `Ledger::finish` exactly. Watch hits are reconstructed by the caller
/// (they need the sorted trace).
fn assemble(
    stats: Vec<WorkerStats>,
    statuses: &[Status],
    termination: Termination,
    end_round: u64,
    crash_round: &CrashRounds,
    setup_horizon: u64,
) -> (RunOutcome, Vec<TraceEvent>) {
    let dcount = stats.first().map_or(0, |s| s.first_directed_use.len());
    let mut messages = 0u64;
    let mut bits = 0u64;
    let mut congest_violations = 0u64;
    let mut max_message_bits = 0u64;
    let mut first_directed_use = vec![u64::MAX; dcount];
    let mut directed_message_counts = vec![0u64; dcount];
    let mut sends_per_round: BTreeMap<u64, u64> = BTreeMap::new();
    let mut executed: BTreeSet<u64> = BTreeSet::new();
    let mut messages_dropped = 0u64;
    let mut late: BTreeMap<u64, u64> = BTreeMap::new();
    let mut crash_horizon = setup_horizon;
    let mut last_status_change: Option<u64> = None;
    let mut last_exec: Option<u64> = None;
    let mut events: Vec<TraceEvent> = Vec::new();
    for st in stats {
        messages += st.messages;
        bits += st.bits;
        congest_violations += st.congest_violations;
        max_message_bits = max_message_bits.max(st.max_message_bits);
        for (acc, v) in first_directed_use.iter_mut().zip(st.first_directed_use) {
            *acc = (*acc).min(v);
        }
        for (acc, v) in directed_message_counts
            .iter_mut()
            .zip(st.directed_message_counts)
        {
            *acc += v;
        }
        for (r, c) in st.sends_per_round {
            *sends_per_round.entry(r).or_insert(0) += c;
        }
        executed.extend(st.executed);
        messages_dropped += st.messages_dropped;
        for (r, c) in st.late {
            *late.entry(r).or_insert(0) += c;
        }
        crash_horizon = crash_horizon.max(st.crash_horizon);
        last_status_change = match (last_status_change, st.last_status_change) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        last_exec = match (last_exec, st.last_exec) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        events.extend(st.events);
    }
    let mut round_totals: Vec<(u64, u64)> = Vec::with_capacity(executed.len());
    let mut cumulative = 0u64;
    for r in executed {
        cumulative += sends_per_round.get(&r).copied().unwrap_or(0);
        round_totals.push((r, cumulative));
    }
    // `Ledger::finish`: every crash at or before the furthest round the
    // run observed — including crashes only witnessed through suppressed
    // wakeups or dead-on-arrival sends — is reported as crashed.
    let end = end_round.max(crash_horizon);
    let n = statuses.len();
    let crashed: Vec<NodeId> = (0..n)
        .filter(|&v| crash_round.get(v).is_some_and(|c| c <= end))
        .collect();
    let termination = if termination == Termination::Quiescent && n > 0 && crashed.len() == n {
        Termination::AllCrashed
    } else {
        termination
    };
    let outcome = RunOutcome {
        rounds: last_exec.map_or(0, |r| r + 1),
        messages,
        bits,
        statuses: statuses.to_vec(),
        termination,
        congest_violations,
        max_message_bits,
        watch_hits: Vec::new(),
        first_directed_use,
        directed_message_counts,
        last_status_change,
        round_totals,
        crashed,
        messages_dropped,
        late_deliveries: late.into_iter().collect(),
    };
    (outcome, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Wakeup;
    use crate::engine::run_sim as run;
    use crate::message::{id_bits, Message, Signal};
    use crate::protocol::{Context, Status};
    use ule_graph::{gen, IdAssignment};

    /// Floods the maximum identifier for `deadline` rounds (mini FloodMax).
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

    fn mk(deadline: u64) -> impl FnMut(NodeId, &NodeSetup, &mut StdRng) -> MiniFloodMax {
        move |_, _, _| MiniFloodMax {
            best: 0,
            deadline,
            decided: Status::Undecided,
        }
    }

    fn cfg(n: usize, seed: u64) -> SimConfig {
        SimConfig::seeded(seed)
            .with_ids(IdAssignment::sequential(n))
            .with_max_rounds(10_000)
    }

    #[test]
    fn matches_engine_exactly_at_any_worker_count() {
        let g = gen::cycle(9).unwrap();
        let reference = run(&g, &cfg(9, 3), mk(8));
        for workers in [1, 2, 3, 8] {
            let a = AsyncRuntime::new()
                .with_workers(workers)
                .run(&g, &cfg(9, 3), mk(8));
            assert_eq!(a.outcome, reference, "workers = {workers}");
        }
    }

    #[test]
    fn adversarial_wakeup_and_round_limit_conform() {
        let g = gen::path(7).unwrap();
        let base = cfg(7, 0).with_wakeup(Wakeup::Adversarial(vec![0]));
        let reference = run(&g, &base, mk(10));
        let a = AsyncRuntime::new().run(&g, &base, mk(10));
        assert_eq!(a.outcome, reference);
        // Truncation: same snapshot, same verdict.
        let cut = base.clone().with_max_rounds(3);
        assert_eq!(
            AsyncRuntime::new().run(&g, &cut, mk(10)).outcome,
            run(&g, &cut, mk(10))
        );
    }

    #[test]
    fn replay_reproduces_the_run_byte_for_byte() {
        let g = gen::torus(3, 3).unwrap();
        let recorded = AsyncRuntime::new()
            .with_workers(3)
            .run(&g, &cfg(9, 11), mk(7));
        assert!(!recorded.trace.events.is_empty());
        let replayed = replay(&g, &cfg(9, 11), mk(7), &recorded.trace);
        assert_eq!(replayed, recorded);
    }

    #[test]
    fn runtime_kind_names_are_stable() {
        assert_eq!(RuntimeKind::Sim.name(), "sim");
        assert_eq!(RuntimeKind::Async.name(), "async");
    }

    /// Every adversary, engine-equal at several worker counts — the core
    /// of the per-edge fate-stream refactor (`tests/async_conformance.rs`
    /// covers the full registry; this is the in-crate smoke version).
    #[test]
    fn adversaries_conform_to_the_engine() {
        let g = gen::torus(3, 3).unwrap();
        let adversaries = [
            Adversary::BoundedDelay { max_delay: 3 },
            Adversary::CrashStop {
                schedule: vec![(2, 4), (7, 6)],
            },
            Adversary::LinkFailure {
                schedule: vec![((0, 1), 3), ((4, 5), 0)],
            },
            Adversary::Compose(vec![
                Adversary::BoundedDelay { max_delay: 2 },
                Adversary::CrashStop {
                    schedule: vec![(5, 5)],
                },
                Adversary::LinkFailure {
                    schedule: vec![((0, 3), 2)],
                },
            ]),
        ];
        for adv in adversaries {
            let c = cfg(9, 5).with_adversary(adv.clone());
            let reference = run(&g, &c, mk(12));
            for workers in [1, 2, 4] {
                let a = AsyncRuntime::new()
                    .with_workers(workers)
                    .run(&g, &c, mk(12));
                assert_eq!(a.outcome, reference, "{adv:?}, workers = {workers}");
            }
        }
    }

    /// Delays past the per-node calendar horizon exercise the overflow
    /// tier and the send-round-aware inbox sort.
    #[test]
    fn long_delays_past_the_calendar_horizon_conform() {
        let g = gen::cycle(8).unwrap();
        let c = cfg(8, 9)
            .with_adversary(Adversary::BoundedDelay { max_delay: 40 })
            .with_max_rounds(10_000);
        let reference = run(&g, &c, mk(400));
        for workers in [1, 3] {
            let a = AsyncRuntime::new().with_workers(workers).run(&g, &c, mk(400));
            assert_eq!(a.outcome, reference, "workers = {workers}");
        }
    }

    /// Watch hits — a global-interleaving quantity — are reconstructed
    /// from the trace and must equal the ledger's, adversary or not.
    #[test]
    fn watch_hits_are_reconstructed_exactly() {
        let g = gen::torus(3, 3).unwrap();
        for adv in [
            Adversary::Lockstep,
            Adversary::BoundedDelay { max_delay: 2 },
            Adversary::Compose(vec![
                Adversary::BoundedDelay { max_delay: 2 },
                Adversary::LinkFailure {
                    schedule: vec![((1, 2), 1)],
                },
            ]),
        ] {
            let c = cfg(9, 7).with_adversary(adv.clone()).watching(&[(0, 1), (4, 5)]);
            let reference = run(&g, &c, mk(12));
            assert!(reference.watch_hits.iter().any(|h| h.is_some()));
            for workers in [1, 2] {
                let a = AsyncRuntime::new().with_workers(workers).run(&g, &c, mk(12));
                assert_eq!(a.outcome, reference, "{adv:?}, workers = {workers}");
            }
            // Reconstruction must also work when the public trace is off.
            let quiet = AsyncRuntime::new().without_trace().run(&g, &c, mk(12));
            assert_eq!(quiet.outcome, reference, "{adv:?}, without_trace");
            assert!(quiet.trace.events.is_empty());
        }
    }

    /// An adversarial replay reproduces the run — dropped sends included
    /// (they are logged in the trace and re-derived on replay).
    #[test]
    fn adversarial_replay_reproduces_the_run() {
        let g = gen::torus(3, 3).unwrap();
        let c = cfg(9, 13).with_adversary(Adversary::Compose(vec![
            Adversary::BoundedDelay { max_delay: 2 },
            Adversary::CrashStop {
                schedule: vec![(3, 4), (8, 7)],
            },
            Adversary::LinkFailure {
                schedule: vec![((0, 1), 2)],
            },
        ]));
        let recorded = AsyncRuntime::new().with_workers(3).run(&g, &c, mk(12));
        let replayed = replay(&g, &c, mk(12), &recorded.trace);
        assert_eq!(replayed, recorded);
        assert_eq!(recorded.outcome, run(&g, &c, mk(12)));
    }

    /// A sleeper exercising the arbiter's fast-forward (round-free
    /// wakeups): long idle stretches must cost no work and the round
    /// accounting must match the engine's.
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
    fn arbiter_fast_forwards_idle_stretches() {
        let g = gen::path(2).unwrap();
        let c = SimConfig::seeded(0).with_max_rounds(u64::MAX);
        // ule-lint: allow(wall-clock, reason = "throughput timing of the arbiter fast-forward; elapsed time never reaches simulated state")
        let start = std::time::Instant::now();
        let a = AsyncRuntime::new().run(&g, &c, |_, _, _| Sleeper {
            until: 1_000_000_000,
            fired: false,
        });
        assert!(
            start.elapsed().as_secs() < 5,
            "advance failed to skip ahead"
        );
        assert_eq!(a.outcome.rounds, 1_000_000_001);
        assert_eq!(a.outcome.termination, Termination::Quiescent);
        let reference = run(&g, &c, |_, _, _| Sleeper {
            until: 1_000_000_000,
            fired: false,
        });
        assert_eq!(a.outcome, reference);
    }

    #[test]
    fn congest_accounting_conforms() {
        let g = gen::path(3).unwrap();
        let c = SimConfig::seeded(0)
            .with_ids(IdAssignment::new(vec![1 << 40, 2, 3]))
            .with_model(crate::Model::Congest { factor: 1 })
            .with_max_rounds(100);
        let reference = run(&g, &c, mk(4));
        let a = AsyncRuntime::new().run(&g, &c, mk(4));
        assert_eq!(a.outcome, reference);
        assert!(a.outcome.congest_violations > 0);
    }
}
