//! The async threads+channels runtime: real message passing, no round
//! barrier.
//!
//! Drives the *same* [`Protocol`] implementations as the lockstep engine
//! ([`crate::Runner`] on [`RuntimeKind::Sim`]), but over `std::sync::mpsc`
//! channels: the nodes are partitioned across a worker thread pool, every
//! message crosses a channel with a [`Frame`] header whose sequence
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
//! # One accounting core
//!
//! The runtime keeps no accounting of its own: each worker counts its
//! sends in its own `crate::exec::Tally`, decides their fates and
//! filters its timers through the run's shared `crate::exec::Fates`, and
//! looks crossings up in the shared `crate::exec::WatchIndex` — the very
//! code the engine's ledger runs. The tallies merge after the pool joins
//! and finish into the [`RunOutcome`] exactly as the engine's does.
//!
//! Delay, crash and link-failure adversaries need no sequential
//! bottleneck because message fates are a pure function of `(run_seed,
//! directed edge, per-edge send index)` (see [`crate::adversary`]), and a
//! directed edge's sends all come from the worker owning its source, so
//! that worker's per-edge count is the engine's. The same count is the
//! frame's sequence number: dropped sends consume one too (the receiving
//! gate tolerates the gap), crashes suppress wakeups *at arm time* on
//! both runtimes, and deliveries into a node at or past its crash round
//! are discarded at the sender. Watch hits are the one global-interleaving
//! quantity (`messages_before`): each worker keeps its earliest delivered
//! crossing of each watched edge as `(round, sender, emission index)`, a
//! position in the engine's global send order, and the delivery trace
//! sorted by `(round, node)` — the engine's execution order — counts the
//! sends before that position.
//!
//! # Determinism and the delivery trace
//!
//! The outcome is deterministic at any worker count for the same reason
//! the engine is at any thread count: scheduling freedom moves wall-clock,
//! never the computation. In addition, a run records a [`DeliveryTrace`] —
//! which node ran at which round, what it consumed and what it emitted —
//! and [`replay`] re-executes a trace sequentially, verifying every step
//! and rebuilding the identical outcome and trace byte for byte.

use crate::calendar::CalendarQueue;
use crate::config::SimConfig;
use crate::exec::{
    init_store, step_node, validate_wakeup, Bitmap, Fates, NodeStore, RunCtx, RunOutcome, SendSink,
    StagedSend, StepScratch, StoreSliceMut, Tally, Termination, WatchHit, WatchIndex,
};
use crate::protocol::{NodeSetup, Protocol, Status};
use crate::transport::{Frame, LinkGate};
use rand::rngs::StdRng;
use std::collections::BTreeMap;
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
        let (mut store, mut fates, watch) = set_up(graph, config, factory);
        // An empty graph still gets one idle worker, whose first arbiter
        // call ends the run.
        let workers = self.workers.unwrap_or_else(|| default_workers(n));
        let chunk = n.div_ceil(workers.clamp(1, n.max(1))).max(1);
        let n_workers = n.div_ceil(chunk).max(1);
        let mut logs: Vec<WorkerLog> = (0..n_workers)
            .map(|_| WorkerLog::new(graph, config, &watch))
            .collect();
        fates.arm_wakeups(config, &mut logs[0].tally, &mut store.wake, |_, _| {});
        let sh = Shared {
            rc: RunCtx::new(graph, config),
            fates,
            watch,
            coord: Mutex::new(Coord::new(n_workers)),
            cap: config.max_rounds,
            chunk,
            n_workers,
            // Watch hits are positioned through the event log, so it is
            // kept even when the caller asked for no public trace.
            record_trace: !self.no_trace || !config.watch_edges.is_empty(),
        };
        let mut senders: Vec<Sender<Packet<P::Msg>>> = Vec::with_capacity(n_workers);
        let mut receivers: Vec<Receiver<Packet<P::Msg>>> = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }

        std::thread::scope(|scope| {
            let mut rest = store.as_mut();
            for ((w, log), rx) in logs.iter_mut().enumerate().zip(receivers) {
                let lo = w * chunk;
                let (mine, rem) = rest.split_at_mut((chunk * (w + 1)).min(n) - lo);
                rest = rem;
                let worker = Worker::new(&sh, w, lo, mine, log, senders.clone());
                scope.spawn(move || worker.run(rx));
            }
        });
        drop(senders);

        let (termination, end_round) = lock(&sh.coord)
            .verdict
            .expect("workers stopped without an arbiter decision");
        finish(
            logs,
            &store.statuses,
            termination,
            end_round,
            &sh.fates,
            !self.no_trace,
        )
    }
}

/// The set-up [`AsyncRuntime::run`] and [`replay`] share: config
/// validation (the engine's panics), the node store with its RNG streams
/// materialized, the adversary and the watch index.
fn set_up<T, P, F>(graph: &T, config: &SimConfig, factory: F) -> (NodeStore<P>, Fates, WatchIndex)
where
    T: Topology,
    P: Protocol,
    F: FnMut(NodeId, &NodeSetup, &mut StdRng) -> P,
{
    validate_wakeup(config, graph.n());
    let watch = WatchIndex::new(graph, &config.watch_edges);
    let mut store = init_store(graph, config, factory);
    // The lazy RNG column is an engine-side diet: its first-draw
    // write-back protocol lives in the engine's merge phase, so this
    // runtime materializes the identical streams up front instead.
    store.densify_rngs(config.seed);
    (store, Fates::new(graph, config), watch)
}

/// Merges the workers' logs into the run's result: one [`Tally`], finished
/// exactly as the engine finishes its own, the engine's `round_totals`,
/// the trace in `(round, node)` order, and each watch entry's earliest
/// crossing turned into its [`WatchHit`].
fn finish(
    logs: Vec<WorkerLog>,
    statuses: &[Status],
    termination: Termination,
    end_round: u64,
    fates: &Fates,
    keep_trace: bool,
) -> AsyncRun {
    let mut logs = logs.into_iter();
    let mut all = logs.next().expect("every run has a worker");
    for log in logs {
        all.tally.merge(log.tally);
        for (r, c) in log.round_sends {
            *all.round_sends.entry(r).or_insert(0) += c;
        }
        all.events.extend(log.events);
        for (a, b) in all.crossings.iter_mut().zip(log.crossings) {
            *a = (*a).min(b);
        }
    }
    let mut events = all.events;
    events.sort_by_key(|e| (e.round, e.node));
    let mut cumulative = 0u64;
    let round_totals: Vec<(u64, u64)> = all
        .round_sends
        .into_iter()
        .map(|(r, c)| {
            cumulative += c;
            (r, cumulative)
        })
        .collect();
    let watch_hits = all
        .crossings
        .iter()
        .map(|&(round, src, emit)| {
            (round != u64::MAX).then(|| {
                let before = events.partition_point(|e| (e.round, e.node) < (round, src));
                WatchHit {
                    round,
                    messages_before: events[..before]
                        .iter()
                        .map(|e| e.sent.len() as u64)
                        .sum::<u64>()
                        + emit,
                }
            })
        })
        .collect();
    if !keep_trace {
        events.clear();
    }
    AsyncRun {
        outcome: all.tally.finish(
            statuses,
            end_round,
            termination,
            &fates.crash_round,
            watch_hits,
            round_totals,
        ),
        trace: DeliveryTrace { events },
    }
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
    let cap = config.max_rounds;
    let (mut store, mut fates, watch) = set_up(graph, config, factory);
    let mut log = WorkerLog::new(graph, config, &watch);
    fates.arm_wakeups(config, &mut log.tally, &mut store.wake, |_, _| {});
    // A replay is one worker owning every node: every delivery is local,
    // so it needs no channels and never blocks on the arbiter.
    let sh = Shared {
        rc: RunCtx::new(graph, config),
        fates,
        watch,
        coord: Mutex::new(Coord::new(1)),
        cap,
        chunk: n.max(1),
        n_workers: 1,
        record_trace: true,
    };
    let mut worker = Worker::new(&sh, 0, 0, store.as_mut(), &mut log, Vec::new());
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
        assert_eq!(
            next_event_round(worker.store.wake[v], &mut worker.rt[v]),
            e,
            "replay: node {v} has no delivery and no timer due at round {e}"
        );
        worker.execute(v, e);
        let done = worker.log.events.last().expect("execute logs the event");
        assert_eq!(
            done.delivered, ev.delivered,
            "replay divergence: node {v} at round {e} consumes different deliveries"
        );
        assert_eq!(
            done.sent, ev.sent,
            "replay divergence: node {v} at round {e} emits different frames"
        );
    }

    // The trace carries no termination verdict; re-derive it the way the
    // arbiter did. Any event left executable below the cap means the
    // trace is truncated — that is a divergence, not a verdict.
    let r_next = (0..n)
        .map(|v| next_event_round(worker.store.wake[v], &mut worker.rt[v]))
        .min()
        .unwrap_or(u64::MAX);
    let rounds_done = worker.last_exec().map_or(0, |r| r + 1);
    let (termination, end_round) = verdict(r_next, rounds_done, cap).unwrap_or_else(|| {
        panic!("replay: trace ended with an executable event at round {r_next} (cap {cap})")
    });
    drop(worker);
    finish(
        vec![log],
        &store.statuses,
        termination,
        end_round,
        &sh.fates,
        true,
    )
}

/// The arbiter's decision once no frame is in flight and `r_star` is the
/// globally earliest next event (`u64::MAX` = none): `None` to advance to
/// `r_star`, or the termination and the engine's end round (the round its
/// loop would have broken at).
fn verdict(r_star: u64, rounds_done: u64, cap: u64) -> Option<(Termination, u64)> {
    if r_star == u64::MAX {
        // Quiescent — unless the run *ended at* the cap, which the engine
        // reports as a truncation.
        Some(if rounds_done >= cap {
            (Termination::RoundLimit, cap)
        } else {
            (Termination::Quiescent, rounds_done)
        })
    } else if r_star >= cap {
        // The engine breaks as soon as its round counter reaches the cap:
        // right after an active round at `cap - 1`, or after
        // fast-forwarding to `r*`.
        Some((
            Termination::RoundLimit,
            if rounds_done >= cap { cap } else { r_star },
        ))
    } else {
        None
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
    /// One protocol message: the [`Frame`] header (gated on arrival) and
    /// the protocol payload, untouched.
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
    /// The stop decision: termination and end round (see [`verdict`]).
    verdict: Option<(Termination, u64)>,
}

impl Coord {
    fn new(n_workers: usize) -> Self {
        Coord {
            blocked: 0,
            in_flight: 0,
            next_event: vec![u64::MAX; n_workers],
            last_exec: vec![None; n_workers],
            verdict: None,
        }
    }
}

/// Run-wide state every worker reads.
struct Shared<'env, T> {
    rc: RunCtx<'env, T>,
    fates: Fates,
    watch: WatchIndex,
    coord: Mutex<Coord>,
    cap: u64,
    /// Nodes per worker: node `v` belongs to worker `v / chunk`.
    chunk: usize,
    n_workers: usize,
    record_trace: bool,
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
/// with `NO_WAKE == u64::MAX` meaning none) or its earliest queued
/// delivery.
fn next_event_round<M>(wake: u64, rt: &mut NodeRt<M>) -> u64 {
    let delivery = rt.pending.next_event_round().unwrap_or(u64::MAX);
    wake.min(delivery)
}

/// Gates and queues one frame at its destination.
///
/// The port clock advances to `send round + 1`, not to the delivery
/// round: per-directed-edge send rounds strictly increase (a node sends
/// at most once per port per round), so after a frame sent at round `s`
/// arrives, nothing still in flight on this port can be due at or before
/// `s + 1` — even when a delay adversary scatters delivery rounds out of
/// order.
fn deliver_frame<M>(dest: &mut NodeRt<M>, port: Port, frame: Frame, msg: M) {
    dest.gate.accept(port, &frame);
    dest.in_clock[port] = dest.in_clock[port].max(frame.send_round + 1);
    dest.pending.push(
        frame.deliver_at,
        (frame.send_round, frame.src, frame.emit, port, msg),
    );
}

/// What one worker records: its share of the run's [`Tally`], plus what
/// only this runtime needs — the sends per executed round (behind
/// `round_totals`), its trace events, and its earliest crossing of each
/// watched edge.
struct WorkerLog {
    tally: Tally,
    /// Sends per executed round; every active round has an entry.
    round_sends: BTreeMap<u64, u64>,
    events: Vec<TraceEvent>,
    /// Per watch entry: the earliest delivered crossing as `(round,
    /// sender, emission index)`, a position in the engine's global send
    /// order (`u64::MAX` round = none).
    crossings: Vec<(u64, NodeId, u64)>,
}

impl WorkerLog {
    fn new<T: Topology>(graph: &T, config: &SimConfig, watch: &WatchIndex) -> Self {
        WorkerLog {
            // Per-edge counts are the frame sequence numbers, so they are
            // kept even with edge statistics off.
            tally: Tally::new(graph, config, true),
            round_sends: BTreeMap::new(),
            events: Vec::new(),
            crossings: vec![(u64::MAX, 0, 0); watch.len()],
        }
    }
}

/// The [`SendSink`] of the async runtime: accounts each send through the
/// shared core, heads it with its [`Frame`], and either queues it locally
/// (the destination shares this worker) or ships it over the destination
/// worker's channel.
struct ChannelSink<'a, 'env, T, M> {
    round: u64,
    /// This worker's node range (`lo..hi`); `rt` is indexed by `v - lo`.
    lo: NodeId,
    hi: NodeId,
    sh: &'a Shared<'env, T>,
    rt: &'a mut [NodeRt<M>],
    log: &'a mut WorkerLog,
    senders: &'a [Sender<Packet<M>>],
    /// Emission index within the current activation.
    emit: u64,
    /// `(directed-edge index, frame seq)` log of the current activation —
    /// dropped sends included.
    sent: Vec<(usize, u64)>,
}

impl<T, M> SendSink<M> for ChannelSink<'_, '_, T, M> {
    fn accept(&mut self, send: StagedSend<M>) {
        let emit = self.emit;
        self.emit += 1;
        // The edge's send count before this send: the fate coordinate and
        // the frame's sequence number. A dropped send consumes one too, so
        // the receiving gate sees a gap, never a regression.
        let seq = self.log.tally.count(self.round, send.bits, send.didx);
        if self.sh.record_trace {
            self.sent.push((send.didx, seq));
        }
        let Some(deliver_at) = self
            .sh
            .fates
            .fate(&mut self.log.tally, self.round, seq, &send)
        else {
            return;
        };
        for &i in self.sh.watch.get(send.src, send.dest) {
            let c = &mut self.log.crossings[i];
            *c = (*c).min((self.round, send.src, emit));
        }
        let frame = Frame {
            seq,
            send_round: self.round,
            deliver_at,
            src: send.src,
            emit,
        };
        if (self.lo..self.hi).contains(&send.dest) {
            // The destination shares this worker: queue it directly —
            // through the same gate the channel path uses.
            deliver_frame(
                &mut self.rt[send.dest - self.lo],
                send.dest_port,
                frame,
                send.msg,
            );
        } else {
            lock(&self.sh.coord).in_flight += 1;
            self.senders[send.dest / self.sh.chunk]
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
struct Worker<'a, 'env, T: Topology, P: Protocol> {
    w: usize,
    lo: NodeId,
    hi: NodeId,
    sh: &'a Shared<'env, T>,
    store: StoreSliceMut<'a, P>,
    rt: Vec<NodeRt<P::Msg>>,
    /// Ever-activated flags for the owned range (indexed by `v - lo`).
    started: Bitmap,
    /// Reusable inbox buffer for the node currently stepping.
    inbox: Vec<(Port, P::Msg)>,
    log: &'a mut WorkerLog,
    senders: Vec<Sender<Packet<P::Msg>>>,
    scratch: StepScratch<P::Msg>,
}

impl<'a, 'env, T: Topology, P: Protocol> Worker<'a, 'env, T, P> {
    fn new(
        sh: &'a Shared<'env, T>,
        w: usize,
        lo: NodeId,
        store: StoreSliceMut<'a, P>,
        log: &'a mut WorkerLog,
        senders: Vec<Sender<Packet<P::Msg>>>,
    ) -> Self {
        let hi = lo + store.protos.len();
        Worker {
            w,
            lo,
            hi,
            sh,
            store,
            rt: (lo..hi)
                .map(|v| NodeRt::new(sh.rc.topo.degree(v)))
                .collect(),
            started: Bitmap::new(hi - lo),
            inbox: Vec::new(),
            log,
            senders,
            scratch: StepScratch::default(),
        }
    }

    fn run(mut self, rx: Receiver<Packet<P::Msg>>) {
        // A protocol panic must not strand the peers in `recv` forever:
        // broadcast Stop, then let the panic propagate through the scope.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.drive(&rx)));
        if let Err(payload) = result {
            lock(&self.sh.coord).in_flight += self.sh.n_workers as u64;
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
                        self.execute(self.lo + i, e);
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
        if e == u64::MAX || e >= self.sh.cap {
            return None;
        }
        if self.rt[i].in_clock.iter().all(|&c| c >= e) {
            Some(e)
        } else {
            None
        }
    }

    /// The latest round this worker executed.
    fn last_exec(&self) -> Option<u64> {
        self.log.round_sends.keys().next_back().copied()
    }

    /// Executes node `v` (owned by this worker) at round `e`.
    fn execute(&mut self, v: NodeId, e: u64) {
        let i = v - self.lo;
        debug_assert!(
            !self.sh.fates.crash_round.get(v).is_some_and(|c| c <= e),
            "a crashed node became executable (arm/send-time filtering is broken)"
        );
        let mut due = self.rt[i].pending.take_at(e);
        // The engine's inbox order — the global send order: ascending send
        // round, then sender, then the sender's emission order.
        due.sort_by_key(|a| (a.0, a.1, a.2));
        let delivered: Vec<(Port, NodeId, u64)> = if self.sh.record_trace {
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
        let mut sink = ChannelSink {
            round: e,
            lo: self.lo,
            hi: self.hi,
            sh: self.sh,
            rt: &mut self.rt,
            log: &mut *self.log,
            senders: &self.senders,
            emit: 0,
            sent: Vec::new(),
        };
        let effects = step_node(
            &self.sh.rc,
            e,
            v,
            &mut self.store,
            i,
            !self.started.contains(i),
            &self.inbox,
            &mut self.scratch,
            &mut sink,
        );
        let (emitted, sent) = (sink.emit, sink.sent);
        self.started.insert(i);
        if let Some(w) = effects.rearmed {
            self.sh
                .fates
                .arm(&mut self.log.tally, v, w, &mut self.store.wake[i]);
        }
        if effects.status_changed {
            self.log.tally.note_status_change(e);
        }
        *self.log.round_sends.entry(e).or_insert(0) += emitted;
        if self.sh.record_trace {
            self.log.events.push(TraceEvent {
                round: e,
                node: v,
                delivered,
                sent,
            });
        }
    }

    /// Reports this worker idle and blocks on the channel; the last
    /// worker to block (with nothing in flight) arbitrates. Returns true
    /// when the run is over.
    fn block(&mut self, rx: &Receiver<Packet<P::Msg>>) -> bool {
        let sh = self.sh;
        let decision = {
            let mut c = lock(&sh.coord);
            c.blocked += 1;
            c.next_event[self.w] = (0..(self.hi - self.lo))
                .map(|i| next_event_round(self.store.wake[i], &mut self.rt[i]))
                .min()
                .unwrap_or(u64::MAX);
            c.last_exec[self.w] = self.last_exec();
            if c.blocked == sh.n_workers && c.in_flight == 0 {
                let r_star = c.next_event.iter().copied().min().unwrap_or(u64::MAX);
                let rounds_done = c
                    .last_exec
                    .iter()
                    .filter_map(|&r| r)
                    .max()
                    .map_or(0, |r| r + 1);
                c.verdict = verdict(r_star, rounds_done, sh.cap);
                c.in_flight += sh.n_workers as u64;
                Some(match c.verdict {
                    Some(_) => Decision::Stop,
                    None => Decision::Advance(r_star),
                })
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
                lock(&sh.coord).blocked -= 1;
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
                deliver_frame(&mut self.rt[dest - self.lo], port, frame, msg);
                lock(&self.sh.coord).in_flight -= 1;
                false
            }
            Packet::Advance { upto } => {
                for node in self.rt.iter_mut() {
                    for clock in node.in_clock.iter_mut() {
                        *clock = (*clock).max(upto);
                    }
                }
                lock(&self.sh.coord).in_flight -= 1;
                false
            }
            Packet::Stop => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Adversary;
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
                let a = AsyncRuntime::new().with_workers(workers).run(&g, &c, mk(12));
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
    /// from the trace and must equal the ledger's, adversary or not, for
    /// entries given high endpoint first and for duplicate entries too.
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
            let c = cfg(9, 7)
                .with_adversary(adv.clone())
                .watching(&[(0, 1), (4, 5), (5, 4), (0, 1)]);
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
