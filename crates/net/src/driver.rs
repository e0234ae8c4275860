//! The one coordinator-side step driver of every engine: one [`Cluster`]
//! over a small [`Transport`] trait.
//!
//! The paper's model is one coordinator and `n` nodes exchanging messages
//! in synchronous rounds; how a message reaches a node is not part of it.
//! This module owns everything about a step that does not depend on the
//! transport:
//!
//! * **node-phase 0** — for behaviors that opt into
//!   [`NodeBehavior::SPARSE_OBSERVE`], only *changed* nodes receive an
//!   observation carrying their new value; *engaged* nodes whose value did
//!   not move replay the value they observed last (a value-less observe
//!   frame on a framed transport, the driver's cached row on the direct
//!   one). The driver keeps that cached row ([`DeltaRow`]), so the dense
//!   [`Cluster::step`] is a thin diff and [`Cluster::step_sparse`] consumes
//!   change-lists directly. A step whose phase 0 produced no message and
//!   left nothing engaged takes the coordinator's silent fast path.
//! * **micro-rounds** — the coordinator loop, charging every unicast and
//!   broadcast to the model ledger, bounded by the runaway guard
//!   [`max_micro_rounds`]`(n, k)` (overrunning it is a typed
//!   [`RuntimeError::GuardExceeded`]).
//! * **the visit rule** — a [`RoundScope::All`] broadcast reaches everyone;
//!   otherwise only engaged nodes, the [`FireCalendar`] entries due this
//!   phase, unicast addressees and the [`RoundScope::EngagedPlus`]
//!   addressee are visited, in ascending id order. A scheduled node's work
//!   replays every broadcast since its last poll from the step's broadcast
//!   log. A silent step therefore costs `O(#changed + #engaged)` visits
//!   (and `sync_frames` on a framed transport), not `n`.
//! * **reply bookkeeping** — each reply resolves or re-creates its node's
//!   calendar entry, rebuilds the engaged list and charges its up-message;
//!   ups reach the coordinator in node-id order. On a framed transport
//!   replies are matched against the wave key `(t, run, m)`; a dead node
//!   surfaces as [`RuntimeError::NodeDown`], and a clean transport gives up
//!   on a wave that stays silent for 30 s with
//!   [`RuntimeError::ReplyTimeout`] instead of hanging.
//! * **chaos and recovery** — under a [`ChaosPolicy`] a frame's first
//!   delivery may be dropped, delayed past its wave, duplicated or
//!   stalled, a reply may be lost, and the coordinator may crash between
//!   micro-rounds; on a transport with a wire the connection itself may be
//!   reset, torn mid-frame or left half-open (see [`WireChaos`]). Work
//!   frames carry the idempotency key `(t, run, m)`: nodes process each key
//!   at most once and answer a re-delivery from their reply cache. Lost
//!   work is re-sent after each reply deadline (charged to
//!   [`ChannelKind::Retransmit`], never to the model ledger), and a crash
//!   restores the coordinator's last committed snapshot, rolls every node
//!   back to its step-start checkpoint through an idempotent abort wave
//!   and re-runs the whole step under a fresh `run` number — safe because
//!   protocol rounds are Las Vegas.
//!
//! A [`Transport`] keeps only what really differs between engines: how a
//! unit of work reaches a node and how its reply comes back. The direct
//! transport ([`crate::seq::DirectTransport`]) calls the node in place from
//! the visit loop and its reply is booked at once — no frames, no reply
//! wait, no `sync_frames`, no chaos layer. The framed transports
//! ([`crate::threaded::ChannelTransport`], [`crate::socket::TcpTransport`])
//! encode frames, move them and their replies, keep a wire ledger and taps
//! (sockets) and sever/reconnect; their node side shares `NodeCell`: the
//! cached value, the `(t, run, m)` cursor, the reply cache and the
//! step-start checkpoint of one node.

use crossbeam::channel::RecvTimeoutError;
use std::time::{Duration, Instant};

use crate::behavior::{max_micro_rounds, CoordOut, CoordinatorBehavior, NodeBehavior, RoundScope};
use crate::calendar::FireCalendar;
use crate::chaos::{ChaosPolicy, RecoveryMetrics, RuntimeError, WireChaos};
use crate::delta::{merge_visit, DeltaRow};
use crate::id::{NodeId, Value};
use crate::ledger::{ChannelKind, CommLedger, LedgerSnapshot, WireMetrics};
use crate::wire::WireSize;

/// Idempotency key of a work frame: `(t, run, m)` — time step, step
/// attempt, node-phase. Keys order lexicographically.
pub type FrameKey = (u64, u32, u32);

/// Node-phase index of the step-abort control frame — past every real
/// phase, so `(t, run, ABORT_M)` outranks all work of the aborted attempt.
pub(crate) const ABORT_M: u32 = u32::MAX;

/// Reply-collect tick on a clean transport; dead-node detection runs once
/// per tick.
const RECV_TICK_MS: u64 = 200;

/// Idle collect ticks before a clean transport gives up with
/// [`RuntimeError::ReplyTimeout`] (150 × 200 ms = 30 s) — a hung node fails
/// fast instead of wedging the caller.
const MAX_IDLE_TICKS: u32 = 150;

/// One unit of node work, as the driver hands it to a transport and a
/// transport hands it to a node.
pub enum Work<'a, D> {
    /// Node-phase 0: observe the new value, or (`None`) replay the value
    /// cached node-side.
    Observe(Option<Value>),
    /// Node-phase `m ≥ 1`: the broadcasts `log[from..]` plus an optional
    /// unicast addressed to this node.
    Round {
        log: &'a [D],
        from: usize,
        ucast: Option<&'a D>,
    },
}

/// The behavior-visible part of a node's reply.
#[derive(Clone)]
pub struct ReplyBody<U> {
    pub up: Option<U>,
    pub engaged: bool,
    /// Fire-round calendar entry (see
    /// [`crate::behavior::RoundAction::wake_at`]).
    pub wake_at: Option<u32>,
}

/// A node's reply as a transport delivers it, echoing the key it answers.
pub struct Reply<U> {
    pub id: NodeId,
    pub key: FrameKey,
    pub body: ReplyBody<U>,
    /// Encoded size of `body.up` on the wire (0 on transports without one).
    pub up_bytes: u64,
}

/// How work reaches the nodes and how their replies come back.
///
/// A *direct* transport ([`Transport::DIRECT`]) runs each unit of work in
/// place through [`Transport::call`]; the driver never uses its framing
/// methods. Every other transport is *framed*: it groups nodes into
/// *links* (one per node thread, or one per shard connection), and abort
/// waves and liveness checks are per link. Sending is two-phase:
/// [`Transport::encode`] frames one unit of work as the transport's
/// *current frame*, then [`Transport::write`] sends it — so the driver can
/// [`Transport::keep`] a copy for re-delivery first.
pub trait Transport: Sized + Send {
    type Node: NodeBehavior;
    /// A kept copy of an encoded work frame (for retries and delays).
    type Frame: Send;
    /// Runtime name used in panic messages.
    const NAME: &'static str;
    /// `true` for a transport that calls the nodes in place.
    const DIRECT: bool = false;

    /// Run `work` on node `i` at node-phase `m` of step `t` and return its
    /// reply (direct transports only). A phase-0 observe always carries
    /// its value: the driver resolves unchanged values from its own row.
    fn call(
        &mut self,
        _t: u64,
        _m: u32,
        _i: u32,
        _work: Work<'_, <Self::Node as NodeBehavior>::Down>,
    ) -> ReplyBody<<Self::Node as NodeBehavior>::Up> {
        unreachable!("{} is a framed transport", Self::NAME)
    }

    /// Start one link per group of `nodes` (dense, id-ordered).
    /// `recoverable` (set under a [`ChaosPolicy`]) selects the node side
    /// with idempotency cursors, reply caches and step-start checkpoints.
    fn open(nodes: Vec<Self::Node>, recoverable: bool) -> Result<Self, RuntimeError>;
    fn n(&self) -> usize;
    fn links(&self) -> usize;
    fn link_of(&self, i: u32) -> usize;
    /// `true` once the link's node thread(s) exited.
    fn link_down(&self, link: usize) -> bool;
    /// Frame `work` for node `i` under `key` as the current frame.
    fn encode(&mut self, key: FrameKey, i: u32, work: Work<'_, <Self::Node as NodeBehavior>::Down>);
    /// A copy of the current frame.
    fn keep(&self) -> Self::Frame;
    /// Send the current frame to node `i`, telling it to stall first.
    fn write(&mut self, i: u32, stall_ms: u32) -> Result<(), RuntimeError>;
    /// Send a kept frame again (charged off-model by the wire ledger).
    fn rewrite(&mut self, i: u32, frame: &Self::Frame) -> Result<(), RuntimeError>;
    /// Tell every node of `link` to discard attempt `run` of step `t`.
    /// Each link acknowledges with one reply keyed `(t, run, ABORT_M)`.
    fn send_abort(&mut self, link: usize, t: u64, run: u32) -> Result<(), RuntimeError>;
    /// End of a wave: push buffered frames out.
    fn flush(&mut self) -> Result<(), RuntimeError>;
    fn recv(
        &mut self,
        timeout: Duration,
    ) -> Result<Reply<<Self::Node as NodeBehavior>::Up>, RecvTimeoutError>;
    /// Halt every link and return the node behaviors in id order (those of
    /// panicked links are skipped).
    fn shutdown(&mut self) -> Vec<Self::Node>;
    /// The physical wire ledger, on transports that put bytes on a wire.
    /// Only those see the [`WireChaos`] classes and [`Transport::sever`].
    fn wire_mut(&mut self) -> Option<&mut WireMetrics> {
        None
    }
    /// Cut node `i`'s connection (after writing half the current frame if
    /// `torn`; racing junk connections if `storm`) and accept its
    /// re-handshake.
    fn sever(&mut self, _i: u32, _torn: bool, _storm: bool) -> Result<(), RuntimeError> {
        Ok(())
    }
}

type Up<T> = <<T as Transport>::Node as NodeBehavior>::Up;
type Down<T> = <<T as Transport>::Node as NodeBehavior>::Down;

/// Node-phase 0 of one step, as the driver visits it.
#[derive(Clone, Copy)]
enum Phase0<'a> {
    /// Every node observes its entry of the row (non-sparse behaviors and
    /// the very first step).
    Dense(&'a [Value]),
    /// Changed nodes observe their new value; engaged nodes whose value did
    /// not move replay it (`row` is the driver's cached row).
    Delta {
        changes: &'a [(NodeId, Value)],
        row: &'a [Value],
    },
}

/// Internal outcome of one step attempt.
enum AttemptError {
    /// Injected coordinator crash — recover and re-run the step.
    Crashed,
    /// Unrecoverable failure.
    Fatal(RuntimeError),
}

/// A running cluster of nodes behind transport `T`, plus the
/// coordinator-side driver state.
pub struct Cluster<T: Transport> {
    pub(crate) transport: T,
    /// Micro-rounds allowed per step before [`RuntimeError::GuardExceeded`].
    guard: u32,
    /// Sorted ids of currently engaged nodes — rebuilt from each phase's
    /// replies (every engaged node is visited every phase, so the engaged
    /// set after a phase is exactly its engaged repliers).
    engaged_idx: Vec<u32>,
    /// The engaged repliers of the in-flight wave (swapped into
    /// `engaged_idx` when it ends).
    engaged_scratch: Vec<u32>,
    /// Scratch: the id list a wave visits (phase 0's changed ∪ engaged, or
    /// a micro-round without full fan-out).
    visit_scratch: Vec<u32>,
    /// Fire-round calendar: nodes that announced their wake phase, plus
    /// their broadcast-log replay cursors.
    calendar: FireCalendar,
    /// All broadcasts of the current step in emission order.
    bcast_log: Vec<Down<T>>,
    /// Driver-side cached value row (see [`crate::delta`]).
    delta_row: DeltaRow,
    /// Scratch: up-messages of the current node-phase.
    ups_scratch: Vec<(NodeId, Up<T>)>,
    /// Scratch: coordinator output, reused across micro-rounds.
    out: CoordOut<Down<T>>,
    ledger: CommLedger,
    steps_run: u64,
    silent_steps: u64,
    micro_rounds_run: u64,
    /// Armed fault schedule (`None` = clean transport).
    chaos: Option<ChaosPolicy>,
    /// Injected-fault and recovery-work counters.
    recovery: RecoveryMetrics,
    /// Current step attempt number (part of every frame key).
    run: u32,
    /// Remaining injected-crash budget for the current step.
    crashes_left: u32,
    /// Per-node "reply outstanding" flags for the in-flight wave (per-link
    /// ack flags during an abort wave); empty on a direct transport.
    pending_mask: Vec<bool>,
    pending_count: usize,
    /// Reply-drop already injected for (this wave, node) — at most one per
    /// wave so retries always converge; empty without chaos.
    reply_dropped: Vec<bool>,
    /// Frames of the in-flight wave (chaos only), kept for re-delivery.
    wave: Vec<(u32, T::Frame)>,
    /// Delay-injected frames awaiting their late (reordered) flush.
    delayed: Vec<(u32, T::Frame)>,
    /// Engaged set at the start of the current step, restored on re-run.
    engaged_mark: Vec<u32>,
    /// Last committed coordinator snapshot (chaos only).
    snapshot_buf: Vec<u8>,
    have_snapshot: bool,
}

/// Panic unless `nodes` is a non-empty, dense, id-ordered fleet.
pub(crate) fn check_nodes<NB: NodeBehavior>(nodes: &[NB]) {
    assert!(!nodes.is_empty(), "need at least one node");
    for (i, node) in nodes.iter().enumerate() {
        assert_eq!(
            node.id(),
            NodeId(i as u32),
            "nodes must be dense, id-ordered"
        );
    }
}

impl<T: Transport> Cluster<T> {
    /// Start the nodes behind a clean transport. Panics on a setup failure
    /// (the socket transport's bind, accept and handshake run under
    /// deadlines, so this never hangs).
    pub fn spawn(nodes: Vec<T::Node>) -> Self {
        Self::open(nodes, None)
    }

    /// Start the nodes with a seeded fault schedule armed. Requires
    /// checkpoint-capable behaviors ([`NodeBehavior::checkpoint`] returning
    /// `Some`) — step re-runs roll nodes back to their step-start state.
    pub fn spawn_chaotic(nodes: Vec<T::Node>, policy: ChaosPolicy) -> Self {
        assert!(
            nodes.first().is_none_or(|node| node.checkpoint().is_some()),
            "chaos transport requires NodeBehavior::checkpoint support"
        );
        Self::open(nodes, Some(policy))
    }

    fn open(nodes: Vec<T::Node>, chaos: Option<ChaosPolicy>) -> Self {
        check_nodes(&nodes);
        let transport = T::open(nodes, chaos.is_some())
            .unwrap_or_else(|e| panic!("{} cluster setup failed: {e}", T::NAME));
        Self::over(transport, chaos)
    }

    pub(crate) fn over(transport: T, chaos: Option<ChaosPolicy>) -> Self {
        let n = transport.n();
        Cluster {
            transport,
            guard: max_micro_rounds(n, n),
            engaged_idx: Vec::new(),
            engaged_scratch: Vec::new(),
            visit_scratch: Vec::new(),
            calendar: FireCalendar::new(n),
            bcast_log: Vec::new(),
            // The cached row backs diffing/sparse stepping only; non-sparse
            // behaviors never read it, so don't pay for it.
            delta_row: DeltaRow::new(n, <T::Node as NodeBehavior>::SPARSE_OBSERVE),
            ups_scratch: Vec::new(),
            out: CoordOut::empty(),
            ledger: CommLedger::new(),
            steps_run: 0,
            silent_steps: 0,
            micro_rounds_run: 0,
            chaos,
            recovery: RecoveryMetrics::default(),
            run: 0,
            crashes_left: 0,
            pending_mask: vec![false; if T::DIRECT { 0 } else { n }],
            pending_count: 0,
            reply_dropped: vec![false; if chaos.is_some() { n } else { 0 }],
            wave: Vec::new(),
            delayed: Vec::new(),
            engaged_mark: Vec::new(),
            snapshot_buf: Vec::new(),
            have_snapshot: false,
        }
    }

    /// Size the runaway-protocol guard for a protocol monitoring the top
    /// `k` (the guard is [`max_micro_rounds`]`(n, k)` micro-rounds per
    /// step). Defaults to `k = n`.
    pub fn guard_k(mut self, k: usize) -> Self {
        self.guard = max_micro_rounds(self.n(), k);
        self
    }

    pub fn n(&self) -> usize {
        self.transport.n()
    }

    pub fn ledger(&self) -> &CommLedger {
        &self.ledger
    }

    pub fn steps_run(&self) -> u64 {
        self.steps_run
    }

    /// Steps that exchanged no message and ran no micro-round.
    pub fn silent_steps(&self) -> u64 {
        self.silent_steps
    }

    /// Coordinator micro-rounds driven so far — the round-complexity
    /// witness every engine exposes to the session layer.
    pub fn micro_rounds_run(&self) -> u64 {
        self.micro_rounds_run
    }

    /// Indices of nodes currently engaged in a protocol episode (sorted).
    pub fn engaged_nodes(&self) -> &[u32] {
        &self.engaged_idx
    }

    /// Injected-fault and recovery counters (all zero on a clean transport).
    pub fn recovery(&self) -> &RecoveryMetrics {
        &self.recovery
    }

    /// Shut down all nodes and return their final behaviors in id order
    /// (panicked nodes are skipped).
    pub fn shutdown(mut self) -> Vec<T::Node> {
        self.transport.shutdown()
    }

    /// Execute one synchronous time step against `coord`, panicking on
    /// failure (see [`Cluster::try_step`]).
    pub fn step<CB>(&mut self, coord: &mut CB, t: u64, values: &[Value])
    where
        CB: CoordinatorBehavior<Up = Up<T>, Down = Down<T>>,
    {
        self.try_step(coord, t, values)
            .unwrap_or_else(|e| panic!("{} runtime failed at t={t}: {e}", T::NAME));
    }

    /// Execute one synchronous time step against `coord`.
    ///
    /// For behaviors that opt into [`NodeBehavior::SPARSE_OBSERVE`] this is
    /// a thin wrapper: the row is diffed against the driver's cached row and
    /// observation frames go only to changed/engaged nodes. Other behaviors
    /// get the classic dense fan-out of every observation.
    ///
    /// A dead node, an exhausted retry budget, a failed coordinator restore
    /// or a coordinator that overruns the micro-round guard surfaces as a
    /// typed [`RuntimeError`] instead of a panic or a hung receive.
    pub fn try_step<CB>(
        &mut self,
        coord: &mut CB,
        t: u64,
        values: &[Value],
    ) -> Result<(), RuntimeError>
    where
        CB: CoordinatorBehavior<Up = Up<T>, Down = Down<T>>,
    {
        assert_eq!(values.len(), self.n(), "one value per node");
        let mut dr = std::mem::take(&mut self.delta_row);
        let phase0 = if <T::Node as NodeBehavior>::SPARSE_OBSERVE && dr.is_valid() {
            dr.diff(values);
            Phase0::Delta {
                changes: dr.last_delta(),
                row: dr.row(),
            }
        } else {
            if <T::Node as NodeBehavior>::SPARSE_OBSERVE {
                dr.prime(values);
            }
            Phase0::Dense(values)
        };
        let res = self.run_step(coord, t, phase0);
        self.delta_row = dr;
        res
    }

    /// Panicking wrapper of [`Cluster::try_step_sparse`].
    pub fn step_sparse<CB>(&mut self, coord: &mut CB, t: u64, changes: &[(NodeId, Value)])
    where
        CB: CoordinatorBehavior<Up = Up<T>, Down = Down<T>>,
    {
        self.try_step_sparse(coord, t, changes)
            .unwrap_or_else(|e| panic!("{} runtime failed at t={t}: {e}", T::NAME));
    }

    /// Execute one step given only the values that changed since `t − 1`
    /// (ascending ids, at most one entry per node; repeating an unchanged
    /// value is permitted and costs nothing — entries are filtered against
    /// the driver's cached row). Requires [`NodeBehavior::SPARSE_OBSERVE`].
    /// The first step must carry all `n` nodes (there is no previous row
    /// yet).
    ///
    /// Produces bit-identical ledgers, answers, and node/RNG state to the
    /// dense [`Cluster::step`] driven with the corresponding full rows, on
    /// every transport.
    pub fn try_step_sparse<CB>(
        &mut self,
        coord: &mut CB,
        t: u64,
        changes: &[(NodeId, Value)],
    ) -> Result<(), RuntimeError>
    where
        CB: CoordinatorBehavior<Up = Up<T>, Down = Down<T>>,
    {
        assert!(
            <T::Node as NodeBehavior>::SPARSE_OBSERVE,
            "step_sparse requires a NodeBehavior with SPARSE_OBSERVE = true"
        );
        let mut dr = std::mem::take(&mut self.delta_row);
        let phase0 = if dr.apply_sparse(changes) {
            Phase0::Dense(dr.row())
        } else {
            Phase0::Delta {
                changes: dr.last_delta(),
                row: dr.row(),
            }
        };
        let res = self.run_step(coord, t, phase0);
        self.delta_row = dr;
        res
    }

    /// Run the step, re-running whole attempts after injected coordinator
    /// crashes until one commits.
    fn run_step<CB>(
        &mut self,
        coord: &mut CB,
        t: u64,
        phase0: Phase0<'_>,
    ) -> Result<(), RuntimeError>
    where
        CB: CoordinatorBehavior<Up = Up<T>, Down = Down<T>>,
    {
        let ledger_mark = self.ledger.snapshot();
        let rounds_mark = self.micro_rounds_run;
        if let Some(p) = self.chaos {
            self.engaged_mark.clear();
            self.engaged_mark.extend_from_slice(&self.engaged_idx);
            // Without a committed snapshot a crash would be unrecoverable,
            // so injection only arms once the first step has committed.
            self.crashes_left = if self.have_snapshot {
                p.max_restarts_per_step
            } else {
                0
            };
        }
        self.run = 0;
        loop {
            let mut ups = std::mem::take(&mut self.ups_scratch);
            let mut out = std::mem::take(&mut self.out);
            let attempt = self.run_attempt(coord, t, phase0, &mut ups, &mut out);
            self.ups_scratch = ups;
            self.out = out;
            match attempt {
                Ok(silent) => {
                    if self.chaos.is_some() {
                        coord.note_recovery(&self.recovery);
                        self.snapshot_buf.clear();
                        self.have_snapshot = coord.encode_snapshot(&mut self.snapshot_buf);
                    }
                    if let Some(wire) = self.transport.wire_mut() {
                        coord.note_wire(wire);
                    }
                    self.steps_run += 1;
                    if silent {
                        self.silent_steps += 1;
                    }
                    return Ok(());
                }
                Err(AttemptError::Crashed) => {
                    let t0 = Instant::now();
                    self.recover(coord, t, &ledger_mark, rounds_mark)?;
                    self.recovery.recovery_nanos += t0.elapsed().as_nanos() as u64;
                    self.run += 1;
                }
                Err(AttemptError::Fatal(e)) => return Err(e),
            }
        }
    }

    /// One attempt at the step: phase-0 wave, silent fast path, then the
    /// coordinator micro-round loop. Returns `Ok(true)` for a silent step.
    fn run_attempt<CB>(
        &mut self,
        coord: &mut CB,
        t: u64,
        phase0: Phase0<'_>,
        ups: &mut Vec<(NodeId, Up<T>)>,
        out: &mut CoordOut<Down<T>>,
    ) -> Result<bool, AttemptError>
    where
        CB: CoordinatorBehavior<Up = Up<T>, Down = Down<T>>,
    {
        coord.begin_step(t);
        self.observe_wave(t, phase0, ups)
            .map_err(AttemptError::Fatal)?;

        if self.engaged_idx.is_empty()
            && self.calendar.is_empty()
            && ups.is_empty()
            && coord.try_skip_silent_step(t)
        {
            return Ok(true);
        }

        let mut m: u32 = 0;
        loop {
            out.clear();
            coord.micro_round(t, m, ups, out);
            ups.clear();
            for (_, d) in &out.unicasts {
                self.ledger.count(ChannelKind::Down, d.wire_bits());
            }
            for b in &out.broadcasts {
                self.ledger.count(ChannelKind::Broadcast, b.wire_bits());
            }
            if out.is_empty() && coord.step_done() {
                break;
            }
            m += 1;
            self.micro_rounds_run += 1;
            if m > self.guard {
                self.calendar.end_step();
                self.bcast_log.clear();
                return Err(AttemptError::Fatal(RuntimeError::GuardExceeded {
                    t,
                    guard: self.guard,
                }));
            }
            if let Some(p) = self.chaos {
                if self.crashes_left > 0 && p.crash_coordinator(t, self.run, m) {
                    self.crashes_left -= 1;
                    return Err(AttemptError::Crashed);
                }
            }
            self.deliver_round(t, m, out, ups)
                .map_err(AttemptError::Fatal)?;
        }
        // Schedules and the broadcast log are step-local.
        self.calendar.end_step();
        self.bcast_log.clear();
        Ok(false)
    }

    /// Start a new wave: clear the reply bookkeeping, flush delay-injected
    /// frames from earlier waves (their keys are stale by now, so nodes
    /// dedup them — pure reorder noise on the wire) and reset per-wave
    /// fault bookkeeping.
    fn begin_wave(&mut self, ups: &mut Vec<(NodeId, Up<T>)>) -> Result<(), RuntimeError> {
        debug_assert_eq!(self.pending_count, 0, "wave started with replies pending");
        ups.clear();
        self.engaged_scratch.clear();
        self.wave.clear();
        if self.chaos.is_none() {
            return Ok(());
        }
        let mut res = Ok(());
        for (i, frame) in &self.delayed {
            res = self.transport.rewrite(*i, frame);
            if res.is_err() {
                break;
            }
            self.ledger.count(ChannelKind::Retransmit, 0);
        }
        let flush = !self.delayed.is_empty();
        self.delayed.clear();
        res?;
        if flush {
            self.transport.flush()?;
        }
        self.reply_dropped.iter_mut().for_each(|d| *d = false);
        Ok(())
    }

    /// End of a wave's sends: a framed transport flushes and collects the
    /// replies (any order, so they are sorted here); a direct wave booked
    /// its replies in id order as it went. The wave's engaged repliers
    /// become the engaged set.
    fn finish_wave(
        &mut self,
        t: u64,
        phase: u32,
        ups: &mut Vec<(NodeId, Up<T>)>,
    ) -> Result<(), RuntimeError> {
        if !T::DIRECT {
            self.transport.flush()?;
            self.collect(t, phase, ups)?;
            self.engaged_scratch.sort_unstable();
            ups.sort_by_key(|(id, _)| *id);
        }
        std::mem::swap(&mut self.engaged_idx, &mut self.engaged_scratch);
        Ok(())
    }

    /// Node-phase 0: changed ∪ engaged nodes (or every node, on a dense
    /// step) observe, and the replies are collected into `ups`.
    fn observe_wave(
        &mut self,
        t: u64,
        phase0: Phase0<'_>,
        ups: &mut Vec<(NodeId, Up<T>)>,
    ) -> Result<(), RuntimeError> {
        self.begin_wave(ups)?;
        let mut res = Ok(());
        match phase0 {
            Phase0::Dense(values) => {
                for (i, &v) in values.iter().enumerate() {
                    res = self.observe(t, i as u32, v, true, ups);
                    if res.is_err() {
                        break;
                    }
                }
            }
            Phase0::Delta { changes, row } => {
                // Ids first, then the visits: a tight loop over a known id
                // list lets the nodes' memory loads overlap.
                let mut visit = std::mem::take(&mut self.visit_scratch);
                visit.clear();
                merge_visit(changes, &self.engaged_idx, |i, _| visit.push(i));
                let mut c = 0usize; // cursor into the id-sorted change list
                for &i in &visit {
                    // Only a framed transport tells changed from cached.
                    let changed = !T::DIRECT
                        && match changes.get(c) {
                            Some((id, _)) if id.0 == i => {
                                c += 1;
                                true
                            }
                            _ => false,
                        };
                    res = self.observe(t, i, row[i as usize], changed, ups);
                    if res.is_err() {
                        break;
                    }
                }
                self.visit_scratch = visit;
            }
        }
        res?;
        self.finish_wave(t, 0, ups)
    }

    /// Hand node `i` its phase-0 observation of `value`. A framed
    /// transport frames an unchanged value as a value-less observe (the
    /// node replays its cached one); the direct call always carries it.
    #[inline(always)]
    fn observe(
        &mut self,
        t: u64,
        i: u32,
        value: Value,
        changed: bool,
        ups: &mut Vec<(NodeId, Up<T>)>,
    ) -> Result<(), RuntimeError> {
        if T::DIRECT {
            let body = self.transport.call(t, 0, i, Work::Observe(Some(value)));
            // Calendar entries are step-local: none exists at phase 0.
            self.book(0, 0, NodeId(i), false, body, 0, ups);
            return Ok(());
        }
        let key = (t, self.run, 0);
        self.transport
            .encode(key, i, Work::Observe(changed.then_some(value)));
        self.dispatch(i, key)
    }

    /// Send the current frame to node `i` as part of the in-flight wave,
    /// applying the fault schedule to its first delivery. The sync frame is
    /// charged at send *intent*, so `sync_frames` matches the fault-free
    /// twin even when the delivery is suppressed; everything the fault
    /// layer adds (duplicates, late flushes, retries, re-deliveries after a
    /// reconnect) is charged to [`ChannelKind::Retransmit`].
    fn dispatch(&mut self, i: u32, key: FrameKey) -> Result<(), RuntimeError> {
        debug_assert!(
            !self.pending_mask[i as usize],
            "node framed twice in a wave"
        );
        self.pending_mask[i as usize] = true;
        self.pending_count += 1;
        self.ledger.count_sync();
        let Some(p) = self.chaos else {
            return self.transport.write(i, 0);
        };
        let (t, run, m) = key;
        // Keep the canonical frame for timeout re-sends regardless of what
        // happens to this delivery.
        self.wave.push((i, self.transport.keep()));
        if p.drop_frame(t, run, m, i) {
            self.recovery.injected_drops += 1;
            return Ok(());
        }
        if p.delay_frame(t, run, m, i) {
            // Held back past this wave: the retry path completes the wave,
            // and the late copy is flushed (and deduped) later.
            self.recovery.injected_delays += 1;
            self.delayed.push((i, self.transport.keep()));
            return Ok(());
        }
        let wired = self.transport.wire_mut().is_some();
        let w = WireChaos::new(p);
        if wired && w.conn_reset(t, run, m, i) {
            // The frame dies with the connection: sever before writing.
            self.recovery.injected_conn_resets += 1;
            return self.sever_and_redeliver(i, key, false);
        }
        if wired && w.torn_frame(t, run, m, i) {
            // Half a frame hits the wire, then the connection is cut.
            self.recovery.injected_torn_frames += 1;
            return self.sever_and_redeliver(i, key, true);
        }
        if p.duplicate_frame(t, run, m, i) {
            self.recovery.injected_dups += 1;
            if let Some((_, frame)) = self.wave.last() {
                self.transport.rewrite(i, frame)?;
            }
            self.ledger.count(ChannelKind::Retransmit, 0);
        }
        let stall = if p.stall_frame(t, run, m, i) {
            p.stall_ms
        } else {
            0
        };
        if stall > 0 {
            self.recovery.injected_stalls += 1;
        }
        self.transport.write(i, stall)?;
        if wired && w.half_open(t, run, m, i) {
            // The frame made it out, but the connection dies before the
            // reply can travel back; the re-delivery after the reconnect is
            // answered from the node's reply cache (same key).
            self.recovery.injected_half_opens += 1;
            return self.sever_and_redeliver(i, key, false);
        }
        Ok(())
    }

    /// Sever node `i`'s connection (optionally racing a reconnect storm of
    /// junk connections), accept its re-handshake and re-deliver the
    /// canonical frame — the node dedups by `(t, run, m)` if the original
    /// made it through.
    fn sever_and_redeliver(
        &mut self,
        i: u32,
        key: FrameKey,
        torn: bool,
    ) -> Result<(), RuntimeError> {
        let (t, run, m) = key;
        let storm = self
            .chaos
            .is_some_and(|p| WireChaos::new(p).reconnect_storm(t, run, m, i));
        if storm {
            self.recovery.injected_storms += 1;
        }
        self.transport.sever(i, torn, storm)?;
        self.recovery.reconnects += 1;
        if let Some((_, frame)) = self.wave.last() {
            self.transport.rewrite(i, frame)?;
        }
        self.transport.flush()?;
        self.ledger.count(ChannelKind::Retransmit, 0);
        self.recovery.redelivered_frames += 1;
        Ok(())
    }

    /// Re-send every outstanding frame of the in-flight wave (reply lost or
    /// dropped). Nodes answer duplicates from their reply cache without
    /// re-running the behavior.
    fn resend_pending(&mut self) -> Result<(), RuntimeError> {
        let mut resent = 0u64;
        for (i, frame) in &self.wave {
            if self.pending_mask[*i as usize] {
                self.transport.rewrite(*i, frame)?;
                self.ledger.count(ChannelKind::Retransmit, 0);
                resent += 1;
            }
        }
        self.transport.flush()?;
        self.recovery.redelivered_frames += resent;
        Ok(())
    }

    /// First node of `link` (for error attribution).
    fn link_first(&self, link: usize) -> NodeId {
        let first = (0..self.n() as u32).find(|&i| self.transport.link_of(i) == link);
        NodeId(first.unwrap_or(0))
    }

    fn find_dead_pending(&self) -> Option<NodeId> {
        (0..self.n())
            .find(|&i| {
                self.pending_mask[i] && self.transport.link_down(self.transport.link_of(i as u32))
            })
            .map(|i| NodeId(i as u32))
    }

    /// Deliver the coordinator output of round `m-1` as node-phase `m`
    /// under the visit rule (see the module docs) and collect the replies
    /// into `ups`. Skipped nodes are contractual no-ops for the round's
    /// payload.
    fn deliver_round(
        &mut self,
        t: u64,
        m: u32,
        out: &mut CoordOut<Down<T>>,
        ups: &mut Vec<(NodeId, Up<T>)>,
    ) -> Result<(), RuntimeError> {
        if out.unicasts.len() > 1 {
            out.unicasts.sort_by_key(|(id, _)| *id);
        }
        debug_assert!(
            out.unicasts.windows(2).all(|w| w[0].0 != w[1].0),
            "at most one unicast per node per round"
        );
        let full_fanout = !out.broadcasts.is_empty() && out.scope == RoundScope::All;
        let extra: Option<u32> = match out.scope {
            RoundScope::EngagedPlus(id) if !out.broadcasts.is_empty() => Some(id.0),
            _ => None,
        };
        self.bcast_log.extend(out.broadcasts.iter().cloned());
        self.begin_wave(ups)?;
        let log = std::mem::take(&mut self.bcast_log);
        let round_from = log.len() - out.broadcasts.len();

        // A full fan-out visits `0..n` in place; otherwise the engaged list
        // plus whoever else this phase reaches, merged in id order.
        let mut visit = std::mem::take(&mut self.visit_scratch);
        visit.clear();
        if !full_fanout {
            visit.extend_from_slice(&self.engaged_idx);
            self.calendar.due_into(m, &mut visit);
            visit.extend(out.unicasts.iter().map(|(id, _)| id.0));
            visit.extend(extra);
            if visit.len() > self.engaged_idx.len() {
                visit.sort_unstable();
                visit.dedup();
            }
        }
        let visits = if full_fanout { self.n() } else { visit.len() };

        let key = (t, self.run, m);
        let mut u = 0usize; // cursor into the id-sorted unicast list
        let mut res = Ok(());
        #[allow(clippy::needless_range_loop)] // `0..n` is never materialized
        for j in 0..visits {
            let i = if full_fanout { j as u32 } else { visit[j] };
            let ucast = match out.unicasts.get(u) {
                Some((id, d)) if id.0 == i => {
                    u += 1;
                    Some(d)
                }
                _ => None,
            };
            // A scheduled node's work replays every broadcast since its
            // last poll; everyone else gets this round's broadcasts.
            let scheduled = self.calendar.is_scheduled(i);
            let from = if scheduled {
                self.calendar.seen(i)
            } else {
                round_from
            };
            let work = Work::Round {
                log: &log,
                from,
                ucast,
            };
            if T::DIRECT {
                let body = self.transport.call(t, m, i, work);
                self.book(m, log.len(), NodeId(i), scheduled, body, 0, ups);
            } else {
                self.transport.encode(key, i, work);
                res = self.dispatch(i, key);
                if res.is_err() {
                    break;
                }
            }
        }
        self.visit_scratch = visit;
        self.bcast_log = log;
        res?;
        self.finish_wave(t, m, ups)
    }

    /// Book node `id`'s reply to node-phase `phase` (the broadcast log at
    /// length `log_len`; `scheduled` if the node held a calendar entry):
    /// resolve or re-create its calendar entry, record it as engaged, and
    /// charge and queue its up-message.
    #[allow(clippy::too_many_arguments)] // one reply = one bookkeeping context
    #[inline(always)]
    fn book(
        &mut self,
        phase: u32,
        log_len: usize,
        id: NodeId,
        scheduled: bool,
        body: ReplyBody<Up<T>>,
        up_bytes: u64,
        ups: &mut Vec<(NodeId, Up<T>)>,
    ) {
        debug_assert!(
            body.wake_at.is_none() || body.engaged,
            "wake_at requires engaged"
        );
        let wake = if body.engaged { body.wake_at } else { None };
        if scheduled || wake.is_some() {
            self.calendar.note_poll(id.0, wake, phase, log_len);
        }
        if body.engaged && wake.is_none() {
            self.engaged_scratch.push(id.0);
        }
        if let Some(up) = body.up {
            self.charge_wire(ChannelKind::Up, up_bytes);
            self.ledger.count(ChannelKind::Up, up.wire_bits());
            ups.push((id, up));
        }
    }

    /// Collect the in-flight wave's replies of a framed transport, matched
    /// against the wave key `(t, run, phase)`, and [`Cluster::book`] them;
    /// stale arrivals are discarded (and counted under chaos).
    ///
    /// Timing: a clean transport ticks at `RECV_TICK_MS` and gives up after
    /// `MAX_IDLE_TICKS` silent ticks; a chaotic one honours the policy's
    /// `deadline_ms` per tick and `max_retries` re-send rounds. A dead node
    /// surfaces as [`RuntimeError::NodeDown`] instead of a hung receive.
    fn collect(
        &mut self,
        t: u64,
        phase: u32,
        ups: &mut Vec<(NodeId, Up<T>)>,
    ) -> Result<(), RuntimeError> {
        let log_len = self.bcast_log.len();
        let tick = Duration::from_millis(match self.chaos {
            Some(p) => p.deadline_ms.max(1),
            None => RECV_TICK_MS,
        });
        let mut idle: u32 = 0;
        let mut attempts: u32 = 0;
        while self.pending_count > 0 {
            match self.transport.recv(tick) {
                Ok(rep) => {
                    idle = 0;
                    let idx = rep.id.idx();
                    if rep.key != (t, self.run, phase) || !self.pending_mask[idx] {
                        // Stale: a duplicate answered from a reply cache or
                        // a leftover of an aborted attempt (chaos only).
                        if self.chaos.is_some() {
                            self.recovery.stale_replies += 1;
                            self.charge_wire(ChannelKind::Retransmit, rep.up_bytes);
                        }
                        continue;
                    }
                    if let Some(p) = self.chaos {
                        if !self.reply_dropped[idx] && p.drop_reply(t, self.run, phase, rep.id.0) {
                            // The reply is "lost" after it arrived; charge
                            // its bytes off-model and wait for the re-send
                            // to be answered from the reply cache.
                            self.reply_dropped[idx] = true;
                            self.recovery.injected_reply_drops += 1;
                            self.charge_wire(ChannelKind::Retransmit, rep.up_bytes);
                            continue;
                        }
                    }
                    self.pending_mask[idx] = false;
                    self.pending_count -= 1;
                    let scheduled = self.calendar.is_scheduled(rep.id.0);
                    self.book(
                        phase,
                        log_len,
                        rep.id,
                        scheduled,
                        rep.body,
                        rep.up_bytes,
                        ups,
                    );
                }
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(id) = self.find_dead_pending() {
                        return Err(RuntimeError::NodeDown { id });
                    }
                    let timeout = RuntimeError::ReplyTimeout {
                        t,
                        m: phase,
                        waiting: self.pending_count,
                    };
                    let Some(p) = self.chaos else {
                        idle += 1;
                        if idle >= MAX_IDLE_TICKS {
                            return Err(timeout);
                        }
                        continue;
                    };
                    attempts += 1;
                    if attempts > p.max_retries {
                        return Err(timeout);
                    }
                    self.resend_pending()?;
                    self.recovery.retries += 1;
                }
                Err(RecvTimeoutError::Disconnected) => return Err(RuntimeError::AllNodesDown),
            }
        }
        Ok(())
    }

    fn charge_wire(&mut self, kind: ChannelKind, bytes: u64) {
        if let Some(wire) = self.transport.wire_mut() {
            wire.count(kind, bytes);
        }
    }

    /// Recover from an injected coordinator crash: restore the last
    /// committed snapshot, roll the model ledger and driver state back to
    /// the step's start, and make every node discard the dead attempt via
    /// an idempotent abort wave. The caller then re-runs the whole step as
    /// attempt `run + 1`.
    fn recover<CB>(
        &mut self,
        coord: &mut CB,
        t: u64,
        ledger_mark: &LedgerSnapshot,
        rounds_mark: u64,
    ) -> Result<(), RuntimeError>
    where
        CB: CoordinatorBehavior<Up = Up<T>, Down = Down<T>>,
    {
        self.recovery.restarts += 1;
        self.recovery.rerun_rounds += self.micro_rounds_run - rounds_mark;
        if !coord.restore_snapshot(&self.snapshot_buf) {
            return Err(RuntimeError::RecoveryFailed {
                reason: "coordinator rejected its own committed snapshot",
            });
        }
        self.ledger.rollback_model(ledger_mark);
        self.micro_rounds_run = rounds_mark;
        self.engaged_idx.clear();
        self.engaged_idx.extend_from_slice(&self.engaged_mark);
        self.calendar.end_step();
        self.bcast_log.clear();
        self.delayed.clear();
        self.wave.clear();
        self.pending_mask.iter_mut().for_each(|p| *p = false);
        // During the abort wave `pending_mask[link]` flags links owing an
        // ack.
        let links = self.transport.links();
        for link in 0..links {
            self.transport.send_abort(link, t, self.run)?;
            self.ledger.count(ChannelKind::Retransmit, 0);
            self.pending_mask[link] = true;
        }
        self.pending_count = links;
        self.transport.flush()?;
        self.collect_abort_acks(t)
    }

    /// Wait for one abort ack per link, re-sending the abort to laggards
    /// (aborts are idempotent and always re-acked). Acks can race with
    /// stale work replies of the aborted attempt — those are discarded.
    fn collect_abort_acks(&mut self, t: u64) -> Result<(), RuntimeError> {
        let p = self.chaos.expect("abort waves exist only under chaos");
        let run = self.run;
        let tick = Duration::from_millis(p.deadline_ms.max(1));
        let mut attempts: u32 = 0;
        while self.pending_count > 0 {
            match self.transport.recv(tick) {
                Ok(rep) => {
                    let link = self.transport.link_of(rep.id.0);
                    if rep.key == (t, run, ABORT_M) && self.pending_mask[link] {
                        self.pending_mask[link] = false;
                        self.pending_count -= 1;
                    } else {
                        self.recovery.stale_replies += 1;
                        self.charge_wire(ChannelKind::Retransmit, rep.up_bytes);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    let links = self.transport.links();
                    if let Some(link) =
                        (0..links).find(|&l| self.pending_mask[l] && self.transport.link_down(l))
                    {
                        return Err(RuntimeError::NodeDown {
                            id: self.link_first(link),
                        });
                    }
                    attempts += 1;
                    if attempts > p.max_retries.saturating_mul(4) {
                        return Err(RuntimeError::ReplyTimeout {
                            t,
                            m: ABORT_M,
                            waiting: self.pending_count,
                        });
                    }
                    for link in 0..links {
                        if self.pending_mask[link] {
                            self.transport.send_abort(link, t, run)?;
                            self.ledger.count(ChannelKind::Retransmit, 0);
                        }
                    }
                    self.transport.flush()?;
                }
                Err(RecvTimeoutError::Disconnected) => return Err(RuntimeError::AllNodesDown),
            }
        }
        Ok(())
    }
}

/// What [`NodeCell::serve`] makes of a work frame.
pub(crate) enum Served<U> {
    /// A key older than the node's cursor (late duplicate, aborted
    /// attempt): a no-op.
    Stale,
    /// Re-delivery of the current key: re-send [`NodeCell::cached`],
    /// touching neither state nor RNG.
    Cached,
    /// Fresh work: the behavior ran. A recoverable transport encodes the
    /// reply and hands it to [`NodeCell::remember`].
    Fresh(ReplyBody<U>),
}

/// The node side shared by both transports: one behavior, its last
/// observed value (so a value-less observe replays it), and — on a
/// recoverable transport — the lexicographic `(t, run, m)` cursor, the
/// reply cache `C` and the step-start checkpoint.
pub(crate) struct NodeCell<NB: NodeBehavior, C> {
    pub(crate) node: NB,
    last: Value,
    cur: Option<FrameKey>,
    cached: Option<C>,
    ck: Option<(u64, NB)>,
}

impl<NB: NodeBehavior, C> NodeCell<NB, C> {
    pub(crate) fn new(node: NB) -> Self {
        NodeCell {
            node,
            last: 0,
            cur: None,
            cached: None,
            ck: None,
        }
    }

    /// Process one work frame. On a recoverable transport each key runs at
    /// most once, and the node checkpoints itself at its first work frame
    /// of each time step (an abort of any attempt rolls back to there).
    pub(crate) fn serve(
        &mut self,
        key: FrameKey,
        recoverable: bool,
        work: Work<'_, NB::Down>,
    ) -> Served<NB::Up> {
        let (t, _, m) = key;
        if recoverable {
            match self.cur {
                Some(c) if key < c => return Served::Stale,
                Some(c) if key == c => {
                    return match self.cached {
                        Some(_) => Served::Cached,
                        None => Served::Stale,
                    }
                }
                _ => {}
            }
            if self.ck.as_ref().is_none_or(|(s, _)| *s < t) {
                let snap = self
                    .node
                    .checkpoint()
                    .expect("chaos transport requires NodeBehavior::checkpoint support");
                self.ck = Some((t, snap));
            }
            self.cur = Some(key);
            self.cached = None;
        }
        match work {
            Work::Observe(value) => {
                if let Some(v) = value {
                    self.last = v;
                }
                let a = self.node.observe(t, self.last);
                Served::Fresh(ReplyBody {
                    up: a.up,
                    engaged: a.engaged,
                    wake_at: a.wake_at,
                })
            }
            Work::Round { log, from, ucast } => {
                let a = self.node.micro_round(t, m, &log[from..], ucast);
                Served::Fresh(ReplyBody {
                    up: a.up,
                    engaged: a.engaged,
                    wake_at: a.wake_at,
                })
            }
        }
    }

    /// Cache the reply to the key just served, for re-delivery.
    pub(crate) fn remember(&mut self, reply: C) {
        self.cached = Some(reply);
    }

    /// The cached reply to the current key.
    pub(crate) fn cached(&self) -> Option<&C> {
        self.cached.as_ref()
    }

    /// Discard every effect of step `t`, attempt `run`: roll back to the
    /// step-start checkpoint (RNG cursors keep advancing — a re-run is a
    /// fresh Las Vegas trial) and move the cursor past the aborted attempt.
    /// Idempotent.
    pub(crate) fn abort(&mut self, t: u64, run: u32) {
        let key = (t, run, ABORT_M);
        if self.cur.is_none_or(|c| key > c) {
            if let Some((s, snap)) = &self.ck {
                if *s == t {
                    self.node.rollback(snap);
                }
            }
            self.cur = Some(key);
            self.cached = None;
        }
    }
}
