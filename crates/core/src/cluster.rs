//! [`ClusterMonitor`] — Algorithm 1 assembled on the step driver
//! ([`Cluster`]): the nodes live behind a [`Transport`] (called in place
//! for [`TopkMonitor`](crate::TopkMonitor), OS threads for
//! [`ThreadedTopkMonitor`](crate::ThreadedTopkMonitor), loopback-TCP
//! shards for [`SocketTopkMonitor`](crate::SocketTopkMonitor)), the
//! coordinator is driven from the caller's thread.
//!
//! One [`Monitor`] contract, same ledgers, same answers — every engine is
//! bit-identical for equal `(cfg, seed)` and inputs (pinned by
//! `tests/runtime_conformance.rs`).

use topk_net::behavior::CoordinatorBehavior;
use topk_net::chaos::{ChaosPolicy, RecoveryMetrics, RuntimeError};
use topk_net::driver::{Cluster, Transport};
use topk_net::id::{NodeId, Value};
use topk_net::ledger::LedgerSnapshot;

use crate::config::MonitorConfig;
use crate::coordinator::CoordinatorMachine;
use crate::events::{EventCursor, TopkEvent};
use crate::metrics::RunMetrics;
use crate::monitor::Monitor;
use crate::node::NodeMachine;

/// Algorithm 1 on the step driver — a [`Monitor`] whose nodes live behind
/// transport `T`.
///
/// This is the *engine* type; new code should usually build a
/// [`crate::session::MonitorSession`] with the matching
/// [`Engine`](crate::session::Engine) instead of constructing it directly.
pub struct ClusterMonitor<T: Transport<Node = NodeMachine>> {
    pub(crate) cluster: Cluster<T>,
    coord: CoordinatorMachine,
    cfg: MonitorConfig,
    events: EventCursor,
}

impl<T: Transport<Node = NodeMachine>> ClusterMonitor<T> {
    /// Start the nodes behind a clean transport. Seeds and behaviors come
    /// from [`ClusterMonitor::make_parts`] on every transport, so the
    /// engines are interchangeable twins.
    pub fn new(cfg: MonitorConfig, seed: u64) -> Self {
        let (nodes, coord) = Self::make_parts(cfg, seed);
        Self::over(Cluster::spawn(nodes), coord, cfg)
    }

    /// The same monitor behind a chaos-injecting transport: every frame and
    /// reply crosses a seeded fault layer (see [`ChaosPolicy`]; the socket
    /// transport adds the wire classes of [`topk_net::WireChaos`]). Every
    /// *committed* step produces answers, thresholds and events identical
    /// to the fault-free twin (pinned by the chaos arms of
    /// `tests/runtime_conformance.rs`); only the recovery counters and the
    /// retransmit channels record that faults happened.
    ///
    /// # Panics
    ///
    /// On the sequential engine, whose direct transport has no chaos layer.
    pub fn new_chaotic(cfg: MonitorConfig, seed: u64, policy: ChaosPolicy) -> Self {
        let (nodes, coord) = Self::make_parts(cfg, seed);
        Self::over(Cluster::spawn_chaotic(nodes, policy), coord, cfg)
    }

    /// The pieces of one monitor: `(nodes, coordinator)` with the seeds and
    /// behaviors every engine uses. All nodes share one
    /// [`crate::params::NodeParams`] block (flat layout).
    pub fn make_parts(cfg: MonitorConfig, seed: u64) -> (Vec<NodeMachine>, CoordinatorMachine) {
        let params = crate::params::NodeParams::shared(&cfg);
        let nodes = (0..cfg.n)
            .map(|i| NodeMachine::new(NodeId(i as u32), &params, seed))
            .collect();
        (nodes, CoordinatorMachine::new(cfg))
    }

    pub(crate) fn over(cluster: Cluster<T>, coord: CoordinatorMachine, cfg: MonitorConfig) -> Self {
        ClusterMonitor {
            cluster: cluster.guard_k(cfg.k),
            coord,
            cfg,
            events: EventCursor::default(),
        }
    }

    /// The coordinator (tracker/threshold accessors for tests and tools).
    pub fn coordinator(&self) -> &CoordinatorMachine {
        &self.coord
    }

    /// Fault-injection and recovery counters (all zero without a
    /// [`ChaosPolicy`]). The same block is mirrored into
    /// [`RunMetrics::recovery`] at each committed step.
    pub fn recovery(&self) -> &RecoveryMetrics {
        self.cluster.recovery()
    }

    /// Fallible form of [`Monitor::step`]: a failure the recovery layer
    /// cannot mask (a dead node, retries exhausted, a protocol that
    /// overruns the micro-round guard) surfaces as a typed [`RuntimeError`]
    /// instead of a panic.
    pub fn try_step(&mut self, t: u64, values: &[Value]) -> Result<(), RuntimeError> {
        self.cluster.try_step(&mut self.coord, t, values)
    }

    /// Fallible form of [`Monitor::step_sparse`].
    pub fn try_step_sparse(
        &mut self,
        t: u64,
        changes: &[(NodeId, Value)],
    ) -> Result<(), RuntimeError> {
        self.cluster.try_step_sparse(&mut self.coord, t, changes)
    }

    /// Phase-attributed event counters of the coordinator.
    pub fn metrics(&self) -> &RunMetrics {
        self.coord.metrics()
    }

    /// Coordinator micro-rounds executed so far (all phases) — the
    /// round-complexity witness, counted identically on every engine;
    /// reset-phase rounds alone are in [`RunMetrics::reset_rounds`].
    pub fn micro_rounds_run(&self) -> u64 {
        self.cluster.micro_rounds_run()
    }

    /// Steps that exchanged no message and ran no micro-round.
    pub fn silent_steps(&self) -> u64 {
        self.cluster.silent_steps()
    }

    /// Transport-level synchronization frames sent so far (excluded from
    /// model cost), charged at dispatch intent: `#changed + #engaged` per
    /// silent step, not `n`, and equal on both framed transports (the
    /// sequential engine sends no frames: always 0).
    pub fn sync_frames(&self) -> u64 {
        self.cluster.ledger().sync_frames()
    }

    /// The configuration this monitor runs.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Shut down the nodes and return their final state machines (for
    /// state-equality assertions against a twin).
    pub fn shutdown(self) -> Vec<NodeMachine> {
        self.cluster.shutdown()
    }
}

impl<T: Transport<Node = NodeMachine>> Monitor for ClusterMonitor<T> {
    fn name(&self) -> &'static str {
        // The sequential engine keeps the algorithm's table name.
        if T::DIRECT {
            "topk-filter"
        } else {
            T::NAME
        }
    }

    fn step(&mut self, t: u64, values: &[Value]) {
        self.cluster.step(&mut self.coord, t, values);
    }

    fn step_sparse(&mut self, t: u64, changes: &[(NodeId, Value)]) {
        self.cluster.step_sparse(&mut self.coord, t, changes);
    }

    fn topk(&self) -> Vec<NodeId> {
        self.coord.topk().to_vec()
    }

    fn ledger(&self) -> LedgerSnapshot {
        self.cluster.ledger().snapshot()
    }

    fn n(&self) -> usize {
        self.cfg.n
    }

    fn k(&self) -> usize {
        self.cfg.k
    }

    fn drain_events(&mut self, t: u64, out: &mut Vec<TopkEvent>) {
        self.events.drain(&self.coord, t, out);
    }
}
