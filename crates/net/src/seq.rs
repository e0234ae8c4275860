//! The sequential engine: the step driver ([`crate::driver::Cluster`])
//! over [`DirectTransport`], which calls each node's behavior in place —
//! no frames, no threads, no chaos layer — plus [`SyncRuntime`], which
//! pairs such a cluster with its coordinator.
//!
//! The visit rule, the round loop, the guard and the ledger are the
//! driver's, so this engine is bit-identical to the threaded and socket
//! ones by construction. Node visit order is always ascending node id, and
//! per-node RNG streams are owned by the node state machines, so a run is a
//! pure function of `(behaviors, values)`. The direct call is fused into
//! the driver's visit loop: each reply is booked as it returns, nothing is
//! queued, and the ledger charges no `sync_frames`. All scratch buffers
//! live in the driver and are reused, so the steady-state hot path
//! performs no allocation.

use crossbeam::channel::RecvTimeoutError;
use std::time::Duration;

use crate::behavior::{CoordinatorBehavior, NodeBehavior, ValueFeed};
use crate::chaos::RuntimeError;
use crate::driver::{Cluster, FrameKey, Reply, ReplyBody, Transport, Work};
use crate::id::{NodeId, Value};
use crate::ledger::{CommLedger, LedgerSnapshot};

/// The direct-call transport: the nodes in a `Vec`, run in place.
pub struct DirectTransport<NB> {
    nodes: Vec<NB>,
    observe_calls: u64,
    micro_polls: u64,
}

const FRAMED_ONLY: &str = "the direct transport sends no frames";

impl<NB: NodeBehavior> Transport for DirectTransport<NB> {
    type Node = NB;
    type Frame = ();
    const NAME: &'static str = "sequential";
    const DIRECT: bool = true;

    #[inline(always)]
    fn call(&mut self, t: u64, m: u32, i: u32, work: Work<'_, NB::Down>) -> ReplyBody<NB::Up> {
        let node = &mut self.nodes[i as usize];
        match work {
            Work::Observe(value) => {
                self.observe_calls += 1;
                let a = node.observe(t, value.expect("the driver resolves every value"));
                ReplyBody {
                    up: a.up,
                    engaged: a.engaged,
                    wake_at: a.wake_at,
                }
            }
            Work::Round { log, from, ucast } => {
                self.micro_polls += 1;
                let a = node.micro_round(t, m, &log[from..], ucast);
                ReplyBody {
                    up: a.up,
                    engaged: a.engaged,
                    wake_at: a.wake_at,
                }
            }
        }
    }

    fn open(nodes: Vec<NB>, recoverable: bool) -> Result<Self, RuntimeError> {
        if recoverable {
            return Err(RuntimeError::Transport {
                what: "the direct transport has no chaos layer".into(),
            });
        }
        Ok(DirectTransport {
            nodes,
            observe_calls: 0,
            micro_polls: 0,
        })
    }

    fn n(&self) -> usize {
        self.nodes.len()
    }

    fn links(&self) -> usize {
        1
    }

    fn link_of(&self, _i: u32) -> usize {
        0
    }

    fn link_down(&self, _link: usize) -> bool {
        false
    }

    fn encode(&mut self, _key: FrameKey, _i: u32, _work: Work<'_, NB::Down>) {
        unreachable!("{FRAMED_ONLY}")
    }

    fn keep(&self) {
        unreachable!("{FRAMED_ONLY}")
    }

    fn write(&mut self, _i: u32, _stall_ms: u32) -> Result<(), RuntimeError> {
        unreachable!("{FRAMED_ONLY}")
    }

    fn rewrite(&mut self, _i: u32, _frame: &()) -> Result<(), RuntimeError> {
        unreachable!("{FRAMED_ONLY}")
    }

    fn send_abort(&mut self, _link: usize, _t: u64, _run: u32) -> Result<(), RuntimeError> {
        unreachable!("{FRAMED_ONLY}")
    }

    fn flush(&mut self) -> Result<(), RuntimeError> {
        unreachable!("{FRAMED_ONLY}")
    }

    fn recv(&mut self, _timeout: Duration) -> Result<Reply<NB::Up>, RecvTimeoutError> {
        unreachable!("{FRAMED_ONLY}")
    }

    fn shutdown(&mut self) -> Vec<NB> {
        std::mem::take(&mut self.nodes)
    }
}

impl<NB: NodeBehavior> Cluster<DirectTransport<NB>> {
    /// The node behaviors, in id order.
    pub fn nodes(&self) -> &[NB] {
        &self.transport.nodes
    }

    /// Total `observe` invocations so far — the sparse path's cost witness:
    /// with `SPARSE_OBSERVE` behaviors this grows by `#changed + #engaged`
    /// per step, not `n`.
    pub fn observe_calls(&self) -> u64 {
        self.transport.observe_calls
    }

    /// Total `micro_round` invocations so far — the calendar's cost
    /// witness: with fire-round-scheduled behaviors a protocol episode
    /// costs one poll per participant (at its fire phase) plus the
    /// full-fanout rounds, instead of one poll per participant per round.
    pub fn micro_polls(&self) -> u64 {
        self.transport.micro_polls
    }
}

/// The sequential engine over `n` node behaviors and a coordinator.
pub struct SyncRuntime<NB, CB>
where
    NB: NodeBehavior,
    CB: CoordinatorBehavior<Up = NB::Up, Down = NB::Down>,
{
    cluster: Cluster<DirectTransport<NB>>,
    coord: CB,
}

impl<NB, CB> SyncRuntime<NB, CB>
where
    NB: NodeBehavior,
    CB: CoordinatorBehavior<Up = NB::Up, Down = NB::Down>,
{
    /// `guard_k` only sizes the runaway-protocol guard; pass the monitored
    /// `k` (or any upper bound).
    pub fn new(nodes: Vec<NB>, coord: CB, guard_k: usize) -> Self {
        SyncRuntime {
            cluster: Cluster::spawn(nodes).guard_k(guard_k),
            coord,
        }
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.cluster.n()
    }

    pub fn coord(&self) -> &CB {
        &self.coord
    }

    pub fn coord_mut(&mut self) -> &mut CB {
        &mut self.coord
    }

    pub fn nodes(&self) -> &[NB] {
        self.cluster.nodes()
    }

    pub fn ledger(&self) -> &CommLedger {
        self.cluster.ledger()
    }

    pub fn steps_run(&self) -> u64 {
        self.cluster.steps_run()
    }

    /// Steps that exchanged no message and ran no micro-round.
    pub fn silent_steps(&self) -> u64 {
        self.cluster.silent_steps()
    }

    pub fn micro_rounds_run(&self) -> u64 {
        self.cluster.micro_rounds_run()
    }

    /// See [`Cluster::observe_calls`].
    pub fn observe_calls(&self) -> u64 {
        self.cluster.observe_calls()
    }

    /// See [`Cluster::micro_polls`].
    pub fn micro_polls(&self) -> u64 {
        self.cluster.micro_polls()
    }

    /// Indices of nodes currently engaged in a protocol episode (sorted).
    pub fn engaged_nodes(&self) -> &[u32] {
        self.cluster.engaged_nodes()
    }

    /// The coordinator's current top-k answer (sorted ascending).
    pub fn topk(&self) -> &[NodeId] {
        self.coord.topk()
    }

    /// Execute one synchronous time step with the given observations,
    /// panicking if the protocol overruns the micro-round guard (see
    /// [`Cluster::step`]).
    pub fn step(&mut self, t: u64, values: &[Value]) {
        self.cluster.step(&mut self.coord, t, values);
    }

    /// Fallible form of [`SyncRuntime::step`]: a runaway protocol is a
    /// typed [`RuntimeError::GuardExceeded`].
    pub fn try_step(&mut self, t: u64, values: &[Value]) -> Result<(), RuntimeError> {
        self.cluster.try_step(&mut self.coord, t, values)
    }

    /// Execute one step given only the values that changed since `t − 1`
    /// (see [`Cluster::step_sparse`]). Requires
    /// [`NodeBehavior::SPARSE_OBSERVE`].
    pub fn step_sparse(&mut self, t: u64, changes: &[(NodeId, Value)]) {
        self.cluster.step_sparse(&mut self.coord, t, changes);
    }

    /// Run `steps` consecutive time steps pulled from a [`ValueFeed`],
    /// starting at time `start_t`. Returns the ledger snapshot delta.
    pub fn run_feed(
        &mut self,
        feed: &mut dyn ValueFeed,
        start_t: u64,
        steps: u64,
    ) -> LedgerSnapshot {
        assert_eq!(feed.n(), self.n());
        let before = self.ledger().snapshot();
        let mut row = vec![0 as Value; self.n()];
        for t in start_t..start_t + steps {
            feed.fill_step(t, &mut row);
            self.step(t, &row);
        }
        self.ledger().snapshot().since(&before)
    }

    /// Delta-driven counterpart of [`SyncRuntime::run_feed`]: pulls change
    /// lists via [`ValueFeed::fill_delta`] and steps sparsely. Requires
    /// [`NodeBehavior::SPARSE_OBSERVE`].
    pub fn run_feed_sparse(
        &mut self,
        feed: &mut dyn ValueFeed,
        start_t: u64,
        steps: u64,
    ) -> LedgerSnapshot {
        assert_eq!(feed.n(), self.n());
        let before = self.ledger().snapshot();
        let mut changes: Vec<(NodeId, Value)> = Vec::new();
        for t in start_t..start_t + steps {
            feed.fill_delta(t, &mut changes);
            self.step_sparse(t, &changes);
        }
        self.ledger().snapshot().since(&before)
    }
}
