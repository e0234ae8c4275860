//! Threaded runtime: every node is an OS thread, frames travel over
//! `crossbeam-channel`s — the in-process [`Transport`] of the shared step
//! driver ([`crate::driver::Cluster`]).
//!
//! The driver emulates the synchronous model with explicit frames: per
//! node-phase it sends each *visited* node one work frame and waits for its
//! reply. Frames and replies are transport artifacts — only `Some` payloads
//! inside them are charged to the model ledger; the frames themselves are
//! tallied as `sync_frames`. The visit rule, node-phase indices and
//! per-node RNG streams are the driver's, shared with the sequential
//! engine, so for the same behaviors and inputs both produce **equal
//! ledgers** (pinned by the `runtime_conformance` and
//! `threaded_vs_sequential` integration tests).
//!
//! What this transport adds is only the channel plumbing: a frame carries
//! its payload by value, except the round's broadcasts, which every frame
//! of one wave shares through one reference-counted copy of the step's
//! broadcast log plus a start index (at most one allocation per round). No
//! bytes are written anywhere, so there is no wire ledger and no wire-level
//! chaos; the frame-level fault classes of [`crate::ChaosPolicy`] apply at the
//! channel boundary.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::behavior::NodeBehavior;
use crate::chaos::RuntimeError;
use crate::driver::{
    Cluster, FrameKey, NodeCell, Reply, ReplyBody, Served, Transport, Work, ABORT_M,
};
use crate::id::{NodeId, Value};

/// A running cluster of node threads plus the coordinator-side driver.
pub type ThreadedCluster<NB> = Cluster<ChannelTransport<NB>>;

/// Payload of one work frame.
#[derive(Clone)]
enum Payload<D> {
    /// Node-phase 0: the new value, or `None` to replay the cached one.
    Observe(Option<Value>),
    /// Node-phase `m ≥ 1`: broadcasts `log[from..]` plus an optional
    /// unicast.
    Round {
        log: Arc<[D]>,
        from: usize,
        ucast: Option<D>,
    },
}

/// One keyed unit of node work.
#[derive(Clone)]
pub struct WorkFrame<D> {
    key: FrameKey,
    /// Injected stall: sleep this long before processing (chaos only).
    stall_ms: u32,
    payload: Payload<D>,
}

/// Frame sent from the driver to a node thread.
enum NodeFrame<D> {
    Work(WorkFrame<D>),
    /// Discard every effect of step `t`, attempt `run` and acknowledge.
    Abort {
        t: u64,
        run: u32,
    },
    /// Shut the node thread down.
    Halt,
}

/// One OS thread per node, one channel each way.
pub struct ChannelTransport<NB: NodeBehavior + 'static> {
    to_nodes: Vec<Sender<NodeFrame<NB::Down>>>,
    from_nodes: Receiver<Reply<NB::Up>>,
    handles: Vec<JoinHandle<NB>>,
    /// The frame being dispatched.
    frame: Option<WorkFrame<NB::Down>>,
    /// The step's broadcast log as shared by the current wave's frames.
    round_log: Option<Arc<[NB::Down]>>,
    /// Shared by frames that carry no broadcast.
    empty_log: Arc<[NB::Down]>,
}

impl<NB: NodeBehavior + 'static> ChannelTransport<NB> {
    fn send(&self, i: u32, frame: NodeFrame<NB::Down>) -> Result<(), RuntimeError> {
        self.to_nodes[i as usize]
            .send(frame)
            .map_err(|_| RuntimeError::NodeDown { id: NodeId(i) })
    }

    fn halt(&mut self) {
        for tx in &self.to_nodes {
            let _ = tx.send(NodeFrame::Halt);
        }
        self.to_nodes.clear();
    }
}

impl<NB: NodeBehavior + 'static> Transport for ChannelTransport<NB> {
    type Node = NB;
    type Frame = WorkFrame<NB::Down>;
    const NAME: &'static str = "threaded";

    fn open(nodes: Vec<NB>, recoverable: bool) -> Result<Self, RuntimeError> {
        let (reply_tx, reply_rx) = unbounded::<Reply<NB::Up>>();
        let mut to_nodes = Vec::with_capacity(nodes.len());
        let mut handles = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.into_iter().enumerate() {
            let (tx, rx) = unbounded::<NodeFrame<NB::Down>>();
            let reply = reply_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("topk-node-{i}"))
                .spawn(move || node_main(node, rx, reply, recoverable))
                .expect("spawn node thread");
            to_nodes.push(tx);
            handles.push(handle);
        }
        Ok(ChannelTransport {
            to_nodes,
            from_nodes: reply_rx,
            handles,
            frame: None,
            round_log: None,
            empty_log: Arc::from(Vec::new()),
        })
    }

    fn n(&self) -> usize {
        self.handles.len()
    }

    fn links(&self) -> usize {
        self.handles.len()
    }

    fn link_of(&self, i: u32) -> usize {
        i as usize
    }

    fn link_down(&self, link: usize) -> bool {
        self.handles[link].is_finished()
    }

    fn encode(&mut self, key: FrameKey, _i: u32, work: Work<'_, NB::Down>) {
        let payload = match work {
            Work::Observe(value) => Payload::Observe(value),
            Work::Round { log, from, ucast } => {
                let (log, from) = if from == log.len() {
                    (self.empty_log.clone(), 0)
                } else {
                    let shared = self.round_log.get_or_insert_with(|| Arc::from(log));
                    (shared.clone(), from)
                };
                Payload::Round {
                    log,
                    from,
                    ucast: ucast.cloned(),
                }
            }
        };
        self.frame = Some(WorkFrame {
            key,
            stall_ms: 0,
            payload,
        });
    }

    fn keep(&self) -> WorkFrame<NB::Down> {
        self.frame.clone().expect("a frame was encoded")
    }

    fn write(&mut self, i: u32, stall_ms: u32) -> Result<(), RuntimeError> {
        let mut frame = self.frame.take().expect("a frame was encoded");
        frame.stall_ms = stall_ms;
        self.send(i, NodeFrame::Work(frame))
    }

    fn rewrite(&mut self, i: u32, frame: &WorkFrame<NB::Down>) -> Result<(), RuntimeError> {
        self.send(i, NodeFrame::Work(frame.clone()))
    }

    fn send_abort(&mut self, link: usize, t: u64, run: u32) -> Result<(), RuntimeError> {
        self.send(link as u32, NodeFrame::Abort { t, run })
    }

    /// The next wave shares a fresh copy of the (grown) step log.
    fn flush(&mut self) -> Result<(), RuntimeError> {
        self.round_log = None;
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> Result<Reply<NB::Up>, RecvTimeoutError> {
        self.from_nodes.recv_timeout(timeout)
    }

    fn shutdown(&mut self) -> Vec<NB> {
        self.halt();
        self.handles
            .drain(..)
            .filter_map(|h| h.join().ok())
            .collect()
    }
}

impl<NB: NodeBehavior + 'static> Drop for ChannelTransport<NB> {
    fn drop(&mut self) {
        self.halt();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Node thread main loop: frame-driven, no shared state; the node's
/// [`NodeCell`] keeps the cached value, the `(t, run, m)` cursor, reply
/// cache and checkpoint. Returns the behavior on `Halt`.
fn node_main<NB: NodeBehavior>(
    node: NB,
    rx: Receiver<NodeFrame<NB::Down>>,
    reply: Sender<Reply<NB::Up>>,
    recoverable: bool,
) -> NB {
    let id = node.id();
    let mut cell = NodeCell::<NB, ReplyBody<NB::Up>>::new(node);
    while let Ok(frame) = rx.recv() {
        match frame {
            NodeFrame::Work(w) => {
                if w.stall_ms > 0 {
                    std::thread::sleep(Duration::from_millis(w.stall_ms as u64));
                }
                let work = match &w.payload {
                    Payload::Observe(value) => Work::Observe(*value),
                    Payload::Round { log, from, ucast } => Work::Round {
                        log,
                        from: *from,
                        ucast: ucast.as_ref(),
                    },
                };
                let body = match cell.serve(w.key, recoverable, work) {
                    Served::Stale => continue,
                    Served::Cached => match cell.cached() {
                        Some(body) => body.clone(),
                        None => continue,
                    },
                    Served::Fresh(body) => {
                        if recoverable {
                            cell.remember(body.clone());
                        }
                        body
                    }
                };
                let _ = reply.send(Reply {
                    id,
                    key: w.key,
                    body,
                    up_bytes: 0,
                });
            }
            NodeFrame::Abort { t, run } => {
                cell.abort(t, run);
                // Always ack — abort re-delivery must re-ack.
                let _ = reply.send(Reply {
                    id,
                    key: (t, run, ABORT_M),
                    body: ReplyBody {
                        up: None,
                        engaged: false,
                        wake_at: None,
                    },
                    up_bytes: 0,
                });
            }
            NodeFrame::Halt => break,
        }
    }
    cell.node
}
