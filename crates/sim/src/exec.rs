//! The runtime-independent execution core.
//!
//! Everything in this module is shared verbatim by every runtime that can
//! drive a [`Protocol`]: the lockstep round engine ([`crate::Runner`] on
//! the sim runtime, a *scheduler policy* layered on this core) and the
//! async threads+channels runtime ([`crate::rt`]). It owns:
//!
//! * **node-state storage** — `NodeStore`: struct-of-arrays bookkeeping
//!   for every node (protocol instances, private RNG streams seeded by
//!   [`node_rng_seed`], wakeup timers and statuses as parallel flat
//!   arrays), constructed identically by every runtime (`init_store`) and
//!   sliced contiguously across shard/worker threads (`StoreSliceMut`).
//!   The store is on a memory diet for graph-scale runs: per-node setups
//!   are rebuilt on the stack from a shared `RunCtx` at each activation,
//!   timers are a dense `u64` column with a `NO_WAKE` sentinel, and the
//!   RNG column starts lazy (`RngCol::Lazy`) — nothing is allocated until some
//!   node actually draws (most deterministic protocols never do);
//! * **protocol stepping** — `step_node`: the one activation sequence
//!   (clear a due timer, hand the caller-gathered inbox to the protocol,
//!   run `on_round`, report re-armed timers and status changes, stage
//!   sends), parameterized over a `SendSink` so each runtime decides where
//!   staged sends go without re-implementing the stepping rules, and over
//!   a [`Topology`] so implicit (procedural) graphs never materialize;
//! * **message accounting** — `Ledger`: message/bit totals, CONGEST
//!   budget checks, per-directed-edge statistics (lazily allocated, see
//!   [`crate::SimConfig::edge_stats`]), watch-edge crossings, adversary
//!   fates, and delivery queueing through a flat [`CalendarQueue`] (ring
//!   buffer for the near-future window, `BTreeMap` overflow tier for
//!   far-future deliveries);
//! * **outcome assembly** — [`RunOutcome`] and the final crash/termination
//!   bookkeeping (`Ledger::finish`).
//!
//! What is *not* here is exactly what distinguishes runtimes: the decision
//! of **when** a node steps (the lockstep engine's active set, wakeup heap
//! and fast-forward live in `engine`; the async runtime's per-edge clocks
//! and quiescence arbiter live in `rt`), and the transport that moves a
//! staged send to its destination inbox (the engine delivers through the
//! ledger's calendar queue; the async runtime ships frames over
//! `std::sync::mpsc` channels). Both scheduling policies execute the same
//! core in the same order, which is why their outcomes agree exactly
//! (pinned by `tests/async_conformance.rs`).

use crate::adversary::{Adversary, Fate, Schedule, SendView};
use crate::calendar::CalendarQueue;
use crate::config::{IdMode, SimConfig, Wakeup};
use crate::message::Message;
use crate::protocol::{Context, Knowledge, NodeSetup, Protocol, Status};
use rand::rngs::StdRng;
use rand::SeedableRng;
// ule-lint: allow(unordered-iter, reason = "HashMap import used only for watch_index, which is lookup-only (see its suppressions)")
use std::collections::HashMap;
use ule_graph::{Id, NodeId, Port, Topology};

/// Why the run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// No messages in flight and no scheduled wakeups — the execution is
    /// over for good.
    Quiescent,
    /// The round cap was reached; statuses are a truncation snapshot.
    RoundLimit,
    /// The execution went quiescent because every node fail-stopped
    /// (see [`crate::adversary::CrashStop`]); nobody is left to decide.
    AllCrashed,
}

/// First crossing of a watched edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchHit {
    /// Round in which the first message crossed the edge.
    pub round: u64,
    /// Number of messages sent anywhere in the network strictly before
    /// that message — the "cost until bridge crossing" of Theorem 3.1.
    pub messages_before: u64,
}

/// Everything measured during one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Number of rounds with activity (the last active round + 1).
    pub rounds: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bits sent.
    pub bits: u64,
    /// Final status of every node.
    pub statuses: Vec<Status>,
    /// Why the run stopped.
    pub termination: Termination,
    /// Messages whose size exceeded the CONGEST budget.
    pub congest_violations: u64,
    /// Largest single message, in bits.
    pub max_message_bits: u64,
    /// Per watched edge (same order as `SimConfig::watch_edges`): the first
    /// crossing, if any.
    pub watch_hits: Vec<Option<WatchHit>>,
    /// Round of first use of each directed edge (`u64::MAX` = never),
    /// indexed by [`ule_graph::Graph::directed_index`]. Drives the
    /// Lemma 3.5 edge-ordering experiment. Empty when the run disabled
    /// per-edge statistics ([`crate::SimConfig::edge_stats`]).
    pub first_directed_use: Vec<u64>,
    /// Message count per directed edge, same indexing (and same
    /// [`crate::SimConfig::edge_stats`] caveat).
    pub directed_message_counts: Vec<u64>,
    /// The last round in which any node changed status (`None` if no node
    /// ever decided).
    pub last_status_change: Option<u64>,
    /// Cumulative message totals at the end of each *active* round,
    /// as `(round, total)` pairs in increasing round order. Supports the
    /// Lemma 3.5 accounting, which counts messages sent up to and
    /// including a crossing round.
    pub round_totals: Vec<(u64, u64)>,
    /// Nodes whose fail-stop crash fired by the end of the run, ascending.
    /// Empty under the default [`crate::Adversary::Lockstep`] schedule.
    pub crashed: Vec<NodeId>,
    /// Sends the adversary discarded in flight (link failures, deliveries
    /// into crashed nodes). Dropped sends still count toward
    /// [`RunOutcome::messages`] — the sender paid for them.
    pub messages_dropped: u64,
    /// Messages delivered later than the synchronous `send + 1` round,
    /// as `(delivery round, count)` pairs in increasing round order.
    /// Empty unless a delay adversary is configured.
    pub late_deliveries: Vec<(u64, u64)>,
}

impl RunOutcome {
    /// The elected node, if *exactly one* node holds status `Leader`.
    pub fn leader(&self) -> Option<NodeId> {
        let mut it = self
            .statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::Leader);
        match (it.next(), it.next()) {
            (Some((v, _)), None) => Some(v),
            _ => None,
        }
    }

    /// Number of nodes holding status `Leader`.
    pub fn leader_count(&self) -> usize {
        self.statuses
            .iter()
            .filter(|s| **s == Status::Leader)
            .count()
    }

    /// Whether node `v` fail-stopped during the run.
    pub fn is_crashed(&self, v: NodeId) -> bool {
        self.crashed.binary_search(&v).is_ok()
    }

    /// The paper's success predicate for implicit leader election: exactly
    /// one `Leader`, every other node `NonLeader` (nobody `Undecided`).
    ///
    /// Under a fault adversary the predicate is evaluated over the
    /// *surviving* nodes: crashed nodes are exempt from deciding and a
    /// crashed `Leader` does not count (its survivors must re-elect). A
    /// run that ended [`Termination::AllCrashed`] never succeeds. With no
    /// crashes this is exactly the historical predicate.
    pub fn election_succeeded(&self) -> bool {
        if self.termination == Termination::AllCrashed {
            return false;
        }
        let mut leaders = 0usize;
        for (v, s) in self.statuses.iter().enumerate() {
            if !self.crashed.is_empty() && self.is_crashed(v) {
                continue;
            }
            match s {
                Status::Undecided => return false,
                Status::Leader => leaders += 1,
                Status::NonLeader => {}
            }
        }
        leaders == 1
    }

    /// Count of still-undecided nodes.
    pub fn undecided_count(&self) -> usize {
        self.statuses
            .iter()
            .filter(|s| matches!(s, Status::Undecided))
            .count()
    }

    /// Total messages sent in rounds `<= round` — the quantity the
    /// Lemma 3.5 counting argument bounds from below at a bridge crossing.
    pub fn messages_through(&self, round: u64) -> u64 {
        match self.round_totals.binary_search_by_key(&round, |&(r, _)| r) {
            Ok(i) => self.round_totals[i].1,
            Err(0) => 0,
            Err(i) => self.round_totals[i - 1].1,
        }
    }
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Seed of node `node`'s private RNG stream in a run seeded with `seed`.
///
/// Derivation is *chained*: hash the run seed, add the node index, hash
/// again. The historical derivation XOR-combined the two
/// (`seed ^ splitmix64(node + 0x5151)`), under which distinct
/// `(seed, node)` pairs collide onto identical streams — for any nodes
/// `u != v`, running with seed `s ^ splitmix64(u + c) ^ splitmix64(v + c)`
/// hands node `v` exactly the stream node `u` had under seed `s`, so
/// seed sweeps silently reused coin flips across trials. Chaining has no
/// such algebraic structure (pinned by `node_rng_streams_are_independent`).
pub fn node_rng_seed(seed: u64, node: NodeId) -> u64 {
    splitmix64(splitmix64(seed).wrapping_add(node as u64))
}

/// Sentinel in the dense wakeup column meaning "no timer armed". A
/// protocol calling `wake_at(u64::MAX)` is asking never to be woken, which
/// is exactly what the sentinel encodes, so [`step_node`] normalizes that
/// request to a disarmed timer.
pub(crate) const NO_WAKE: u64 = u64::MAX;

/// Run-wide facts shared by every activation: the topology, the
/// identifier column (a zero-copy view into the configured
/// [`ule_graph::IdAssignment`]), the knowledge grant, and the run seed
/// (for deriving RNG streams lazily). `step_node` rebuilds a node's
/// [`NodeSetup`] on the stack from this instead of the store carrying an
/// `n`-sized setup column.
#[derive(Debug)]
pub(crate) struct RunCtx<'a, T> {
    pub(crate) topo: &'a T,
    pub(crate) ids: Option<&'a [Id]>,
    pub(crate) knowledge: Knowledge,
    pub(crate) seed: u64,
}

// Manual impls: the derived ones would demand `T: Copy`, and the context
// only holds a reference to the topology.
impl<T> Clone for RunCtx<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for RunCtx<'_, T> {}

/// The identifier column of `config` as a zero-copy slice (`None` for
/// anonymous runs).
///
/// # Panics
///
/// Panics if an explicit assignment does not cover the graph (the panic
/// message is part of the API, shared with [`init_store`]).
pub(crate) fn ids_slice(config: &SimConfig, n: usize) -> Option<&[Id]> {
    match &config.ids {
        IdMode::Anonymous => None,
        IdMode::Explicit(a) => {
            assert_eq!(a.len(), n, "identifier assignment does not cover the graph");
            Some(a.as_slice())
        }
    }
}

/// The per-node RNG column. Starts `Lazy` — no allocation, streams derived
/// on the fly from [`node_rng_seed`] at each activation — and densifies to
/// one materialized `StdRng` per node the moment any node actually draws
/// (a drawn stream has state that must persist across activations).
/// Deterministic protocols like FloodMax never draw, so graph-scale runs
/// never pay the `32n`-byte column.
pub(crate) enum RngCol {
    /// No node has drawn yet; streams are derived per activation.
    Lazy,
    /// Materialized streams, one per node.
    Dense(Vec<StdRng>),
}

/// A by-reference view of [`RngCol`] over a contiguous node range.
pub(crate) enum RngSliceMut<'a> {
    /// See [`RngCol::Lazy`].
    Lazy,
    /// See [`RngCol::Dense`].
    Dense(&'a mut [StdRng]),
}

impl<'a> RngSliceMut<'a> {
    fn split_at_mut(self, mid: usize) -> (RngSliceMut<'a>, RngSliceMut<'a>) {
        match self {
            RngSliceMut::Lazy => (RngSliceMut::Lazy, RngSliceMut::Lazy),
            RngSliceMut::Dense(s) => {
                let (l, r) = s.split_at_mut(mid);
                (RngSliceMut::Dense(l), RngSliceMut::Dense(r))
            }
        }
    }
}

/// Struct-of-arrays node bookkeeping: everything a runtime must store per
/// node between activations, as parallel flat arrays indexed by node.
/// Protocol state stays behind `protos[v]` (a protocol is arbitrary user
/// data); timers and statuses are dense scalar columns (`u64` with the
/// [`NO_WAKE`] sentinel, one-byte `Status`), and the RNG column is lazy
/// ([`RngCol`]). Per-node setups and inboxes deliberately do **not** live
/// here: setups are rebuilt on the stack from [`RunCtx`] and inboxes are
/// gathered per round by the runtime (the engine's inbox arena, the async
/// runtime's per-worker calendar), so idle nodes cost 0 bytes of either.
/// Runtime-independent: both the lockstep engine and the async runtime
/// drive a `NodeStore<P>` built by [`init_store`].
pub(crate) struct NodeStore<P: Protocol> {
    pub(crate) protos: Vec<P>,
    pub(crate) rngs: RngCol,
    pub(crate) wake: Vec<u64>,
    pub(crate) statuses: Vec<Status>,
}

impl<P: Protocol> NodeStore<P> {
    /// A mutable whole-store view, sliceable across threads.
    pub(crate) fn as_mut(&mut self) -> StoreSliceMut<'_, P> {
        StoreSliceMut {
            protos: &mut self.protos,
            rngs: match &mut self.rngs {
                RngCol::Lazy => RngSliceMut::Lazy,
                RngCol::Dense(v) => RngSliceMut::Dense(v),
            },
            wake: &mut self.wake,
            statuses: &mut self.statuses,
        }
    }

    /// Materializes the lazy RNG column: every node gets the fresh stream
    /// [`node_rng_seed`] derives for it. Correct exactly when no node has
    /// drawn yet (fresh streams *are* their current state); callers that
    /// observed a draw write the drawn state back afterwards. No-op on an
    /// already-dense column.
    pub(crate) fn densify_rngs(&mut self, seed: u64) {
        if matches!(self.rngs, RngCol::Lazy) {
            let n = self.statuses.len();
            self.rngs = RngCol::Dense(
                (0..n)
                    .map(|v| StdRng::seed_from_u64(node_rng_seed(seed, v)))
                    .collect(),
            );
        }
    }
}

/// A mutable view over a contiguous node range of a [`NodeStore`]. The
/// sharded engine and the async worker pool hand each thread a disjoint
/// slice via [`StoreSliceMut::split_at_mut`] — the SoA equivalent of
/// splitting a `&mut [NodeSlot]`.
pub(crate) struct StoreSliceMut<'a, P: Protocol> {
    pub(crate) protos: &'a mut [P],
    pub(crate) rngs: RngSliceMut<'a>,
    pub(crate) wake: &'a mut [u64],
    pub(crate) statuses: &'a mut [Status],
}

impl<'a, P: Protocol> StoreSliceMut<'a, P> {
    /// Splits the view at `mid` into two disjoint views (every parallel
    /// array split at the same index).
    pub(crate) fn split_at_mut(self, mid: usize) -> (StoreSliceMut<'a, P>, StoreSliceMut<'a, P>) {
        let (protos_l, protos_r) = self.protos.split_at_mut(mid);
        let (rngs_l, rngs_r) = self.rngs.split_at_mut(mid);
        let (wake_l, wake_r) = self.wake.split_at_mut(mid);
        let (statuses_l, statuses_r) = self.statuses.split_at_mut(mid);
        (
            StoreSliceMut {
                protos: protos_l,
                rngs: rngs_l,
                wake: wake_l,
                statuses: statuses_l,
            },
            StoreSliceMut {
                protos: protos_r,
                rngs: rngs_r,
                wake: wake_r,
                statuses: statuses_r,
            },
        )
    }
}

/// One message produced by a stepped node, carrying the metadata the
/// accounting phase needs to reproduce the sequential engine's bookkeeping
/// exactly.
pub(crate) struct StagedSend<M> {
    /// Sending node (for watch-edge lookup).
    pub(crate) src: NodeId,
    /// Receiving node.
    pub(crate) dest: NodeId,
    /// Port at which `dest` hears the message.
    pub(crate) dest_port: Port,
    /// Directed-edge index of the sending `(src, port)` pair.
    pub(crate) didx: usize,
    /// Wire size, computed where the message was built.
    pub(crate) bits: u64,
    pub(crate) msg: M,
}

/// Everything a shard reports back to the lockstep engine's merge phase.
/// Instances live in a per-shard arena owned by the engine and are reused
/// across rounds (capacity-retaining [`ShardOut::clear`]), so steady-state
/// rounds allocate nothing per message.
pub(crate) struct ShardOut<M> {
    /// Sends in sequential order (ascending node, then send order).
    pub(crate) sends: Vec<StagedSend<M>>,
    /// `(round, node)` wakeup-heap entries armed by this shard's nodes.
    pub(crate) wakes: Vec<(u64, NodeId)>,
    /// Nodes that drew from a lazily-derived RNG stream this round, with
    /// the drawn state (triggers densification at the merge).
    pub(crate) drawn: Vec<(NodeId, StdRng)>,
    /// Whether any node in the shard changed status this round.
    pub(crate) status_changed: bool,
}

impl<M> ShardOut<M> {
    pub(crate) fn new() -> Self {
        ShardOut {
            sends: Vec::new(),
            wakes: Vec::new(),
            drawn: Vec::new(),
            status_changed: false,
        }
    }

    /// Empties the shard report for the next round, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.sends.clear();
        self.wakes.clear();
        self.drawn.clear();
        self.status_changed = false;
    }
}

/// Where [`step_node`] delivers the sends a node stages: the lockstep
/// engine's shard path collects them into a `Vec` for the merge phase, its
/// inline path records them straight into the [`Ledger`] (no intermediate
/// buffer — the reference code path stays allocation-free), and the async
/// runtime ships them into `mpsc` channels. Monomorphized: the stepping
/// loop pays no dispatch cost.
pub(crate) trait SendSink<M> {
    /// Accepts one staged send, in the node's emission order.
    fn accept(&mut self, send: StagedSend<M>);
}

impl<M> SendSink<M> for Vec<StagedSend<M>> {
    fn accept(&mut self, send: StagedSend<M>) {
        self.push(send);
    }
}

/// "No entry" sentinel for [`InboxArena`] chain links and slot heads.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Entries per pool block: 64 Ki keeps blocks ≈1 MiB for an 8-byte
/// message, so the pool grows in flat increments with no realloc copy —
/// at burst scale (10⁷ nodes all sending at once) a doubling `Vec` would
/// briefly hold ~1.5× the pool in live memory.
const ARENA_CHUNK_BITS: u32 = 16;
const ARENA_CHUNK: usize = 1 << ARENA_CHUNK_BITS;

/// One queued delivery: the hearing port, the previous entry in the same
/// inbox's chain (chains grow at the head; [`InboxArena::fill`] restores
/// insertion order), and the message.
struct InboxEntry<M> {
    port: u32,
    prev: u32,
    msg: M,
}

/// Two rounds of inbound messages for the whole graph — the round being
/// stepped (*cur*) and the one being staged (*next*) — as per-node chains
/// threaded through one shared entry pool. Replaces the per-node
/// `Vec<Vec<(Port, M)>>` inbox column — 24 bytes of pointer triple per
/// node plus a heap block per non-empty inbox — with one `u32` head per
/// node per side plus a pool sized by the round's message count.
///
/// The pool is chunked (fixed ~1 MiB blocks, never reallocated) and
/// free-listed: the engine frees a node's chain as soon as its inbox is
/// cloned out, so entries consumed from *cur* are immediately reused for
/// deliveries into *next* and the pool's footprint stays at roughly one
/// round's messages even though two rounds are addressable. A freed
/// entry's message is dropped only on slot reuse — fine for the plain-data
/// message types protocols send.
///
/// Chain order per inbox is insertion order, i.e. exactly the historical
/// per-inbox push order (deliveries happen on the sequential control
/// thread in global send order). Stepping threads read *cur* immutably
/// ([`InboxArena::fill`] clones each message once into the shard's
/// reusable inbox buffer); *next* is written only from the control thread
/// (the inline sink, the shard merge, and the calendar drains).
pub(crate) struct InboxArena<M> {
    /// Fixed-size pool blocks; entry `j` lives at
    /// `blocks[j >> CHUNK_BITS][j & (CHUNK - 1)]`.
    blocks: Vec<Vec<InboxEntry<M>>>,
    /// Head of the free list, threaded through `prev`.
    free: u32,
    /// Persistent `n × u32` chain heads for the round being stepped.
    cur_slot: Vec<u32>,
    /// Chain heads for the round being staged.
    next_slot: Vec<u32>,
    /// Nodes with at least one delivery in *cur*, in first-delivery order.
    cur_recipients: Vec<u32>,
    /// Nodes with at least one delivery in *next*.
    next_recipients: Vec<u32>,
}

impl<M: Message> InboxArena<M> {
    pub(crate) fn new(n: usize) -> Self {
        InboxArena {
            blocks: Vec::new(),
            free: NO_SLOT,
            cur_slot: vec![NO_SLOT; n],
            next_slot: vec![NO_SLOT; n],
            cur_recipients: Vec::new(),
            next_recipients: Vec::new(),
        }
    }

    /// Places `e` in a pool slot (free list first) and returns its index.
    fn alloc(&mut self, e: InboxEntry<M>) -> u32 {
        if self.free != NO_SLOT {
            let j = self.free;
            let b = (j >> ARENA_CHUNK_BITS) as usize;
            let o = (j as usize) & (ARENA_CHUNK - 1);
            self.free = self.blocks[b][o].prev;
            self.blocks[b][o] = e;
            return j;
        }
        if self.blocks.last().map_or(true, |b| b.len() == ARENA_CHUNK) {
            assert!(
                self.blocks.len() < (NO_SLOT as usize >> ARENA_CHUNK_BITS),
                "inbox arena exhausted its u32 index space"
            );
            self.blocks.push(Vec::with_capacity(ARENA_CHUNK));
        }
        let b = self.blocks.len() - 1;
        let block = &mut self.blocks[b];
        let j = ((b << ARENA_CHUNK_BITS) + block.len()) as u32;
        block.push(e);
        j
    }

    /// Appends one delivery to `dest`'s *next*-round chain.
    pub(crate) fn deliver_next(&mut self, dest: usize, port: u32, msg: M) {
        let head = self.next_slot[dest];
        if head == NO_SLOT {
            self.next_recipients.push(dest as u32);
        }
        let j = self.alloc(InboxEntry {
            port,
            prev: head,
            msg,
        });
        self.next_slot[dest] = j;
    }

    /// Promotes *next* to *cur*. The outgoing *cur* must already be fully
    /// consumed (every chain freed); its recipient list is recycled as the
    /// new staging list.
    pub(crate) fn rotate(&mut self) {
        #[cfg(debug_assertions)]
        for &v in &self.cur_recipients {
            debug_assert!(
                self.cur_slot[v as usize] == NO_SLOT,
                "arena rotated with an unconsumed inbox chain at node {v}"
            );
        }
        std::mem::swap(&mut self.cur_slot, &mut self.next_slot);
        std::mem::swap(&mut self.cur_recipients, &mut self.next_recipients);
        self.next_recipients.clear();
    }

    /// The nodes with deliveries this round, in first-delivery order.
    pub(crate) fn recipients(&self) -> &[u32] {
        &self.cur_recipients
    }

    /// Clones `v`'s current-round chain into `out` in insertion order
    /// (no-op for nodes without deliveries this round).
    pub(crate) fn fill(&self, v: usize, out: &mut Vec<(Port, M)>) {
        let start = out.len();
        let mut j = self.cur_slot[v];
        while j != NO_SLOT {
            let e = &self.blocks[(j >> ARENA_CHUNK_BITS) as usize][(j as usize) & (ARENA_CHUNK - 1)];
            out.push((e.port as usize, e.msg.clone()));
            j = e.prev;
        }
        out[start..].reverse();
    }

    /// Returns `v`'s current-round chain to the free list (no-op when
    /// empty). Call once the inbox has been cloned out — from this moment
    /// the slots feed deliveries into *next*.
    pub(crate) fn free(&mut self, v: usize) {
        let mut j = self.cur_slot[v];
        self.cur_slot[v] = NO_SLOT;
        while j != NO_SLOT {
            let b = (j >> ARENA_CHUNK_BITS) as usize;
            let o = (j as usize) & (ARENA_CHUNK - 1);
            let after = self.blocks[b][o].prev;
            self.blocks[b][o].prev = self.free;
            self.free = j;
            j = after;
        }
    }
}

/// The inline-path sink: every send is routed straight through
/// [`Ledger::route`] — synchronous fates into the arena's *next* side,
/// delayed fates into the calendar — exactly as the historical sequential
/// engine interleaved its accounting.
pub(crate) struct LedgerSink<'a, M> {
    pub(crate) ledger: &'a mut Ledger<M>,
    pub(crate) round: u64,
    pub(crate) arena: &'a mut InboxArena<M>,
}

impl<M: Message> SendSink<M> for LedgerSink<'_, M> {
    fn accept(&mut self, send: StagedSend<M>) {
        if let Some((at, dest, port, msg)) = self.ledger.route(self.round, send) {
            if at == self.round + 1 {
                self.arena.deliver_next(dest as usize, port, msg);
            } else {
                self.ledger.queue.push(at, (dest, port, msg));
            }
        }
    }
}

/// Reusable per-step buffers, so stepping a node allocates nothing in the
/// steady state. (The inbox is a separate caller-owned buffer, filled per
/// activation and handed to [`step_node`] by shared reference.)
pub(crate) struct StepScratch<M> {
    pub(crate) outbox: Vec<(Port, M)>,
    pub(crate) sent_on: Vec<bool>,
}

impl<M> Default for StepScratch<M> {
    fn default() -> Self {
        StepScratch {
            outbox: Vec::new(),
            sent_on: Vec::new(),
        }
    }
}

/// What one activation changed, beyond the sends (which went to the sink):
/// the scheduling facts a runtime must react to.
pub(crate) struct StepEffects {
    /// `Some(w)` iff the node's timer changed to `w` during this step — the
    /// runtime must (re-)schedule the wakeup. A timer that survives
    /// unchanged needs nothing (the engine's heap entry is still there).
    pub(crate) rearmed: Option<u64>,
    /// Whether the node's status changed this round.
    pub(crate) status_changed: bool,
    /// `Some(state)` iff the store's RNG column is lazy and this node drew
    /// from its stream — the runtime must densify the column and persist
    /// `state` before the node's next activation. Always `None` on a dense
    /// column (the stream mutates in place).
    pub(crate) drew: Option<StdRng>,
}

/// Executes one activation of node `v` at `round`: the single stepping
/// sequence every runtime shares. `i` indexes `v` within `store` (a view
/// that may cover a sub-range of the nodes); `first_activation` and the
/// gathered `inbox` are caller-provided (the runtime owns the started
/// bitmap and the per-round inbox staging). Clears a due timer, rebuilds
/// the node's setup on the stack from `rc`, runs the protocol, reports
/// re-armed timers, status changes and lazy RNG draws, and stages each
/// send (with its destination endpoint and wire size resolved through the
/// topology) into `sink`, in emission order.
#[allow(clippy::too_many_arguments)] // crate-internal; the args are the runtime's per-activation state
pub(crate) fn step_node<T: Topology, P: Protocol, S: SendSink<P::Msg>>(
    rc: &RunCtx<'_, T>,
    round: u64,
    v: NodeId,
    store: &mut StoreSliceMut<'_, P>,
    i: usize,
    first_activation: bool,
    inbox: &[(Port, P::Msg)],
    scratch: &mut StepScratch<P::Msg>,
    sink: &mut S,
) -> StepEffects {
    if store.wake[i] != NO_WAKE && store.wake[i] <= round {
        store.wake[i] = NO_WAKE;
    }
    let armed_wake = store.wake[i];
    let setup = NodeSetup {
        degree: rc.topo.degree(v),
        id: rc.ids.map(|ids| ids[v]),
        knowledge: rc.knowledge,
    };

    scratch.outbox.clear();
    scratch.sent_on.clear();
    scratch.sent_on.resize(setup.degree, false);
    let mut wake = if armed_wake == NO_WAKE {
        None
    } else {
        Some(armed_wake)
    };
    // With a lazy RNG column the stream is derived fresh; a pristine twin
    // detects whether the protocol drew (in which case the worked state
    // must be persisted by the runtime — see `StepEffects::drew`).
    let mut lazy_rng: Option<(StdRng, StdRng)> = None;
    {
        let rng: &mut StdRng = match &mut store.rngs {
            RngSliceMut::Dense(s) => &mut s[i],
            RngSliceMut::Lazy => {
                let fresh = StdRng::seed_from_u64(node_rng_seed(rc.seed, v));
                let slot = lazy_rng.insert((fresh.clone(), fresh));
                &mut slot.0
            }
        };
        let mut ctx = Context {
            round,
            setup: &setup,
            first_activation,
            rng,
            outbox: &mut scratch.outbox,
            sent_on: &mut scratch.sent_on,
            wake: &mut wake,
        };
        store.protos[i].on_round(&mut ctx, inbox);
    }
    // `wake_at(u64::MAX)` means "never": normalize to a disarmed timer so
    // the sentinel column cannot alias a genuine wakeup.
    if wake == Some(u64::MAX) {
        wake = None;
    }
    store.wake[i] = wake.unwrap_or(NO_WAKE);
    let rearmed = match wake {
        Some(w) if armed_wake != w => Some(w),
        _ => None,
    };
    let drew = lazy_rng.and_then(|(worked, pristine)| (worked != pristine).then_some(worked));

    let new_status = store.protos[i].status();
    let status_changed = new_status != store.statuses[i];
    if status_changed {
        store.statuses[i] = new_status;
    }

    for (port, msg) in scratch.outbox.drain(..) {
        let (dest, dest_port, didx) = rc.topo.endpoint_indexed(v, port);
        sink.accept(StagedSend {
            src: v,
            dest,
            dest_port,
            didx,
            bits: msg.size_bits(),
            msg,
        });
    }

    StepEffects {
        rearmed,
        status_changed,
        drew,
    }
}

/// Builds the node store for a run: resolves identifiers and calls
/// `factory` once per node **in index order** — the order is part of the
/// determinism contract, shared by every runtime, so a protocol's coin
/// flips are identical wherever it runs. The RNG column starts lazy; a
/// factory that draws densifies it on the spot (every stream up to that
/// node is still pristine, so fresh derivation reproduces them exactly).
///
/// # Panics
///
/// Panics if an explicit [`IdMode`] assignment does not cover the graph.
pub(crate) fn init_store<T, P, F>(topo: &T, config: &SimConfig, mut factory: F) -> NodeStore<P>
where
    T: Topology,
    P: Protocol,
    F: FnMut(NodeId, &NodeSetup, &mut StdRng) -> P,
{
    let n = topo.n();
    let ids = ids_slice(config, n);
    let mut protos = Vec::with_capacity(n);
    let mut rngs = RngCol::Lazy;
    for v in 0..n {
        let setup = NodeSetup {
            degree: topo.degree(v),
            id: ids.map(|ids| ids[v]),
            knowledge: config.knowledge,
        };
        let mut rng = StdRng::seed_from_u64(node_rng_seed(config.seed, v));
        match &mut rngs {
            RngCol::Lazy => {
                let pristine = rng.clone();
                protos.push(factory(v, &setup, &mut rng));
                if rng != pristine {
                    // The factory draws: materialize the column. Nodes
                    // before `v` never drew, so fresh streams are exact.
                    let mut dense: Vec<StdRng> = (0..v)
                        .map(|u| StdRng::seed_from_u64(node_rng_seed(config.seed, u)))
                        .collect();
                    dense.push(rng);
                    rngs = RngCol::Dense(dense);
                }
            }
            RngCol::Dense(dense) => {
                protos.push(factory(v, &setup, &mut rng));
                dense.push(rng);
            }
        }
    }
    NodeStore {
        protos,
        rngs,
        wake: vec![NO_WAKE; n],
        statuses: vec![Status::Undecided; n],
    }
}

/// Legacy wakeup validation, shared by every runtime: the panic messages
/// are part of the API.
pub(crate) fn validate_wakeup(config: &SimConfig, n: usize) {
    if let Wakeup::Adversarial(set) = &config.wakeup {
        assert!(!set.is_empty(), "at least one node must wake initially");
        for &v in set {
            assert!(
                v < n,
                "Wakeup::Adversarial names node {v}, but the graph has only {n} nodes"
            );
        }
    }
}

/// Each node's fail-stop round, asked of the schedule once per node (in
/// ascending order) at run setup. The column is stored only when some
/// node has a crash round: under the crash-free adversaries (lockstep,
/// bounded delay, link failure) it costs nothing, where a per-node
/// `Option<u64>` would cost 16 B a node.
#[derive(Debug, Default)]
pub(crate) struct CrashRounds(Option<Vec<Option<u64>>>);

impl CrashRounds {
    pub(crate) fn new(schedule: &mut dyn Schedule, n: usize) -> CrashRounds {
        let mut rounds: Option<Vec<Option<u64>>> = None;
        for v in 0..n {
            if let Some(c) = schedule.crash_round(v) {
                rounds.get_or_insert_with(|| vec![None; n])[v] = Some(c);
            }
        }
        CrashRounds(rounds)
    }

    /// The round at whose start `v` fail-stops, if it ever does.
    #[inline]
    pub(crate) fn get(&self, v: NodeId) -> Option<u64> {
        self.0.as_ref().and_then(|rounds| rounds[v])
    }
}

/// All global per-message accounting of a run, plus the adversary that
/// decides each message's fate. Every send — whether stepped inline or in
/// a shard — funnels through [`Ledger::record`] on the sequential control
/// thread, in stable merge order, so the accounting is identical at any
/// thread count. Fates themselves are consulted per edge: the schedule
/// sees `(round, didx, edge_seq)` where `edge_seq` is the per-edge send
/// index, a derivation any runtime reproduces locally (the async runtime
/// computes the very same fates on its worker threads).
pub(crate) struct Ledger<M> {
    pub(crate) budget: u64,
    pub(crate) messages: u64,
    pub(crate) bits: u64,
    pub(crate) congest_violations: u64,
    pub(crate) max_message_bits: u64,
    /// Whether the run materializes the two per-directed-edge arrays in
    /// its outcome (see [`crate::SimConfig::edge_stats`]).
    pub(crate) edge_stats: bool,
    /// Allocated iff `edge_stats` (empty = off).
    pub(crate) first_directed_use: Vec<u64>,
    /// Allocated iff `edge_stats` *or* the run is asynchronous (fates
    /// consume the per-edge send index even when the outcome won't report
    /// it). Empty only when neither needs it.
    pub(crate) directed_message_counts: Vec<u64>,
    /// Normalized watched edge → indices into `watch_hits` (duplicates
    /// supported: one crossing fills them all).
    // ule-lint: allow(unordered-iter, reason = "lookup-only per-message hot path (get); never iterated, so order cannot reach a RunOutcome")
    pub(crate) watch_index: HashMap<(NodeId, NodeId), Vec<usize>>,
    pub(crate) watch_hits: Vec<Option<WatchHit>>,
    /// The *delayed*-delivery queue: a flat calendar (ring + overflow
    /// tier) keyed by delivery round. Only fates beyond `round + 1` land
    /// here — the synchronous common case goes straight into the
    /// [`InboxArena`]'s *next* side, so at burst scale the queue never
    /// holds a full round of messages. Within a round, item order is push
    /// order, and pushes happen on the sequential control thread in
    /// global send order; the engine drains a round's bucket into the
    /// arena *before* stepping the round that feeds it, so per inbox the
    /// historical order is reproduced exactly: messages delayed into the
    /// round from earlier rounds first, then the preceding round's
    /// synchronous batch, each in send order. Destination and port are
    /// compacted to `u32` — half the queue footprint at graph scale (the
    /// node count is asserted to fit at ledger construction).
    pub(crate) queue: CalendarQueue<(u32, u32, M)>,
    pub(crate) messages_dropped: u64,
    pub(crate) late: Vec<(u64, u64)>,
    /// True under the default [`Adversary::Lockstep`]: every fate is the
    /// identity (deliver next round, nothing crashes), so the per-message
    /// schedule call is skipped. `tests/properties.rs` pins this shortcut
    /// against the general path (`Compose([Lockstep])`,
    /// `BoundedDelay { max_delay: 0 }` take the general path and must
    /// produce identical outcomes).
    pub(crate) synchronous: bool,
    pub(crate) schedule: Box<dyn Schedule>,
    /// Precomputed fail-stop round per node (queried once at run setup).
    pub(crate) crash_round: CrashRounds,
    /// Latest crash round whose *effect* the run observed (a suppressed
    /// wakeup or a dropped delivery); extends the horizon that decides
    /// which crashes are reported as fired.
    pub(crate) crash_horizon: u64,
}

impl<M: Message> Ledger<M> {
    /// A fresh ledger for a run of `config` on `topo`: builds the
    /// adversary schedule, precomputes crash rounds, normalizes and
    /// indexes the watched edges.
    ///
    /// # Panics
    ///
    /// Panics if a watched edge is not an edge of the graph (the panic
    /// message is part of the API), or if the node count exceeds `u32`
    /// (the delivery queue compacts node indices).
    pub(crate) fn new<T: Topology>(topo: &T, config: &SimConfig) -> Self {
        let n = topo.n();
        assert!(
            n as u64 <= u32::MAX as u64,
            "the engine's delivery queue addresses nodes as u32; {n} nodes exceed that"
        );
        let mut schedule: Box<dyn Schedule> = config.adversary.build(config.seed, topo);
        let crash_round = CrashRounds::new(&mut *schedule, n);

        let watch: Vec<(NodeId, NodeId)> = config
            .watch_edges
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        // Normalized edge → indices into `watch` (duplicate watch entries
        // are supported: one crossing fills them all). One hash lookup per
        // sent message replaces the historical O(|watch|) scan per message.
        // ule-lint: allow(unordered-iter, reason = "built once, then lookup-only; never iterated, so order cannot reach a RunOutcome")
        let mut watch_index: HashMap<(NodeId, NodeId), Vec<usize>> = HashMap::new();
        for (i, &(a, b)) in watch.iter().enumerate() {
            assert!(
                topo.has_edge(a, b),
                "watch edge ({a}, {b}) is not an edge of the graph"
            );
            watch_index.entry((a, b)).or_default().push(i);
        }

        let synchronous = config.adversary == Adversary::Lockstep;
        let edge_stats = config.edge_stats;
        let dcount = topo.directed_edge_count();
        Ledger {
            budget: config.model.bit_budget(n),
            messages: 0,
            bits: 0,
            congest_violations: 0,
            max_message_bits: 0,
            edge_stats,
            first_directed_use: if edge_stats {
                vec![u64::MAX; dcount]
            } else {
                Vec::new()
            },
            directed_message_counts: if edge_stats || !synchronous {
                vec![0u64; dcount]
            } else {
                Vec::new()
            },
            watch_index,
            watch_hits: vec![None; watch.len()],
            queue: CalendarQueue::new(),
            messages_dropped: 0,
            late: Vec::new(),
            synchronous,
            schedule,
            crash_round,
            crash_horizon: 0,
        }
    }

    /// Accounts one send and decides its fate: `Some((at, dest, port,
    /// msg))` for a delivery at round `at`, `None` for a dropped message.
    /// The caller routes the delivery — the engine sends synchronous
    /// fates (`at == round + 1`, the overwhelmingly common case) straight
    /// into the inbox arena's *next* side and only delayed fates through
    /// the calendar queue. Mirrors the historical sequential accounting
    /// exactly when every fate is "deliver next round".
    pub(crate) fn route(
        &mut self,
        round: u64,
        s: StagedSend<M>,
    ) -> Option<(u64, u32, u32, M)> {
        self.messages += 1;
        self.bits += s.bits;
        self.max_message_bits = self.max_message_bits.max(s.bits);
        if s.bits > self.budget {
            self.congest_violations += 1;
        }
        // The per-edge send index (how many sends this directed edge saw
        // before this one) — the schedule's stream coordinate. Captured
        // before the increment so it matches the async runtime's `LinkSeq`
        // frame counters exactly. The counts column is empty only on
        // synchronous edge-stats-off runs, where no fate consumes it.
        let edge_seq = if self.directed_message_counts.is_empty() {
            0
        } else {
            let e = self.directed_message_counts[s.didx];
            self.directed_message_counts[s.didx] += 1;
            e
        };
        if !self.first_directed_use.is_empty() && self.first_directed_use[s.didx] == u64::MAX {
            self.first_directed_use[s.didx] = round;
        }
        let at = if self.synchronous {
            // Lockstep identity fate, skipped wholesale: deliver next
            // round, nothing drops, nothing crashes.
            round + 1
        } else {
            let fate = self.schedule.message_fate(&SendView {
                round,
                edge_seq,
                src: s.src,
                dest: s.dest,
                didx: s.didx,
            });
            let at = match fate {
                Fate::Dropped => {
                    self.messages_dropped += 1;
                    return None;
                }
                Fate::Deliver { round: at } => at,
            };
            assert!(
                at > round,
                "Schedule bug: message sent in round {round} scheduled for delivery at round {at}"
            );
            if let Some(c) = self.crash_round.get(s.dest) {
                if c <= at {
                    // Dead on arrival: the destination fail-stops at or
                    // before the delivery round.
                    self.messages_dropped += 1;
                    self.crash_horizon = self.crash_horizon.max(c);
                    return None;
                }
            }
            if at > round + 1 {
                // Late-delivery tally, ascending by round. Fates for one
                // stepping round never decrease below `round + 1`, but a
                // later round's near fate can undercut an earlier round's
                // far fate, so insertion sort by round (the tail case is
                // the common one).
                match self.late.binary_search_by_key(&at, |&(r, _)| r) {
                    Ok(i) => self.late[i].1 += 1,
                    Err(i) => self.late.insert(i, (at, 1)),
                }
            }
            at
        };
        if !self.watch_index.is_empty() {
            if let Some(hits) = self
                .watch_index
                .get(&(s.src.min(s.dest), s.src.max(s.dest)))
            {
                for &i in hits {
                    if self.watch_hits[i].is_none() {
                        self.watch_hits[i] = Some(WatchHit {
                            round,
                            messages_before: self.messages - 1,
                        });
                    }
                }
            }
        }
        Some((at, s.dest as u32, s.dest_port as u32, s.msg))
    }

    /// Final crash/termination bookkeeping and outcome assembly, shared by
    /// every runtime: decides which scheduled crashes are reported as
    /// fired (everything at or before `end_round`, extended by crashes
    /// whose effect — a suppressed wakeup, a dropped delivery — was
    /// already observed), and downgrades a quiescent run in which every
    /// node died to [`Termination::AllCrashed`].
    pub(crate) fn finish(
        self,
        statuses: &[Status],
        rounds_used: u64,
        end_round: u64,
        mut termination: Termination,
        last_status_change: Option<u64>,
        round_totals: Vec<(u64, u64)>,
    ) -> RunOutcome {
        let n = statuses.len();
        let end = end_round.max(self.crash_horizon);
        let crashed: Vec<NodeId> = (0..n)
            .filter(|&v| self.crash_round.get(v).is_some_and(|c| c <= end))
            .collect();
        if termination == Termination::Quiescent && crashed.len() == n && n > 0 {
            termination = Termination::AllCrashed;
        }

        RunOutcome {
            rounds: rounds_used,
            messages: self.messages,
            bits: self.bits,
            statuses: statuses.to_vec(),
            termination,
            congest_violations: self.congest_violations,
            max_message_bits: self.max_message_bits,
            watch_hits: self.watch_hits,
            first_directed_use: if self.edge_stats {
                self.first_directed_use
            } else {
                Vec::new()
            },
            directed_message_counts: if self.edge_stats {
                self.directed_message_counts
            } else {
                Vec::new()
            },
            last_status_change,
            round_totals,
            crashed,
            messages_dropped: self.messages_dropped,
            late_deliveries: self.late,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BoundedDelay, CrashStop, Lockstep};

    #[test]
    fn crash_column_is_stored_only_when_a_node_can_crash() {
        let none = CrashRounds::new(&mut Lockstep, 6);
        assert!(none.0.is_none());
        assert_eq!(none.get(5), None);
        let delayed = CrashRounds::new(&mut BoundedDelay::new(1, 3), 6);
        assert!(delayed.0.is_none());
        let some = CrashRounds::new(&mut CrashStop::new(6, &[(4, 2), (1, 7), (4, 1)]), 6);
        let rounds: Vec<Option<u64>> = (0..6).map(|v| some.get(v)).collect();
        assert_eq!(rounds, [None, Some(7), None, None, Some(1), None]);
    }
}
