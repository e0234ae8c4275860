//! The step driver's runaway-protocol guard on all three transports: a
//! coordinator that never finishes its step gets a typed
//! [`RuntimeError::GuardExceeded`] from `try_step` after exactly
//! `max_micro_rounds(n, k)` micro-rounds instead of a panic or a hang.

use topk_net::behavior::{
    max_micro_rounds, CoordOut, CoordinatorBehavior, NodeBehavior, ObserveAction, RoundAction,
};
use topk_net::chaos::RuntimeError;
use topk_net::driver::{Cluster, Transport};
use topk_net::id::{NodeId, Value};
use topk_net::seq::DirectTransport;
use topk_net::socket::{FrameCodec, SocketCluster, WireError};
use topk_net::threaded::ThreadedCluster;
use topk_net::wire::{get_varint, put_varint, WireSize};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Msg(u64);

impl WireSize for Msg {
    fn wire_bits(&self) -> u32 {
        16
    }
}

impl FrameCodec for Msg {
    fn encode_frame(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.0);
    }

    fn decode_frame(buf: &mut &[u8]) -> Result<Self, WireError> {
        get_varint(buf).map(Msg).ok_or(WireError::Malformed {
            what: "truncated msg varint".into(),
        })
    }
}

/// A node that never sends and never engages.
struct QuietNode(NodeId);

impl NodeBehavior for QuietNode {
    type Up = Msg;
    type Down = Msg;

    fn id(&self) -> NodeId {
        self.0
    }

    fn observe(&mut self, _t: u64, _value: Value) -> ObserveAction<Msg> {
        ObserveAction::idle()
    }

    fn micro_round(
        &mut self,
        _t: u64,
        _m: u32,
        _bcasts: &[Msg],
        _ucast: Option<&Msg>,
    ) -> RoundAction<Msg> {
        RoundAction::idle()
    }
}

/// A coordinator whose step never completes.
struct NeverDone;

impl CoordinatorBehavior for NeverDone {
    type Up = Msg;
    type Down = Msg;
    fn begin_step(&mut self, _t: u64) {}
    fn micro_round(
        &mut self,
        _t: u64,
        _m: u32,
        _ups: &mut Vec<(NodeId, Msg)>,
        _out: &mut CoordOut<Msg>,
    ) {
    }
    fn step_done(&self) -> bool {
        false
    }
    fn topk(&self) -> &[NodeId] {
        &[]
    }
}

fn quiet_nodes(n: u32) -> Vec<QuietNode> {
    (0..n).map(|i| QuietNode(NodeId(i))).collect()
}

fn assert_guard_error<T: Transport<Node = QuietNode>>(cluster: Cluster<T>, k: usize) {
    let n = cluster.n();
    let mut cluster = cluster.guard_k(k);
    let guard = max_micro_rounds(n, k);
    let err = cluster
        .try_step(&mut NeverDone, 0, &vec![1; n])
        .expect_err("a never-done coordinator must trip the guard");
    assert_eq!(err, RuntimeError::GuardExceeded { t: 0, guard });
    assert!(err.to_string().contains("micro-round guard exceeded"));
    assert_eq!(cluster.micro_rounds_run(), guard as u64 + 1);
    assert_eq!(cluster.steps_run(), 0, "a failed step does not commit");
}

#[test]
fn never_done_coordinator_is_a_typed_error_on_the_threaded_transport() {
    assert_guard_error(ThreadedCluster::spawn(quiet_nodes(3)), 2);
}

#[test]
fn never_done_coordinator_is_a_typed_error_on_the_socket_transport() {
    assert_guard_error(SocketCluster::spawn(quiet_nodes(5)), 3);
}

#[test]
fn never_done_coordinator_is_a_typed_error_on_the_direct_transport() {
    assert_guard_error(Cluster::<DirectTransport<_>>::spawn(quiet_nodes(4)), 2);
}

#[test]
fn direct_transport_refuses_a_chaos_layer() {
    let err = DirectTransport::open(quiet_nodes(2), true)
        .err()
        .expect("the direct transport has no chaos layer");
    assert!(matches!(err, RuntimeError::Transport { .. }), "{err}");
    assert!(DirectTransport::open(quiet_nodes(2), false).is_ok());
}
