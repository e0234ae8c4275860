//! The arms a pass can drive: the system under test behind its public
//! front door, and the twins that replay the identical inputs through one
//! layer less (a single session instead of the service, a bare engine
//! instead of the session).

use topk_core::session::{Engine, MonitorBuilder, MonitorSession};
use topk_core::{
    Monitor, MonitorConfig, RunMetrics, SocketTopkMonitor, ThreadedTopkMonitor, TopkMonitor,
};
use topk_net::id::{NodeId, Value};
use topk_net::ledger::{LedgerSnapshot, WireMetrics};
use topk_serve::{ServeBuilder, TopkService};

use crate::check::{Checker, Record, StepView, ThresholdRule};
use crate::spans::Tracer;
use crate::workload::{Front, Input, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmKind {
    /// The workload's front door: a session or the service.
    Front,
    /// A `MonitorSession` on the sequential engine (the single-session
    /// twin of the service).
    SingleSession,
    /// A bare engine, no session layer.
    Bare(Engine),
}

impl ArmKind {
    /// Name of the root span of one step of this arm.
    pub fn root(self, workload: Workload) -> &'static str {
        match (self, workload.front()) {
            (ArmKind::Front, Front::Service { .. }) => "serve.step",
            (ArmKind::Front, _) | (ArmKind::SingleSession, _) => "session.step",
            (ArmKind::Bare(Engine::Socket), _) => "engine.socket_step",
            (ArmKind::Bare(Engine::Threaded), _) => "engine.threaded_step",
            (ArmKind::Bare(_), _) => "engine.seq_step",
        }
    }

    /// Which reference record the arm's ledger is checked against: every
    /// arm over one `(n, k, seed)` configuration shares a family, and the
    /// service (whose ledger sums its shards) is a family of its own.
    pub fn family(self, workload: Workload) -> usize {
        match (self, workload.front()) {
            (ArmKind::Front, Front::Service { .. }) => 1,
            _ => 0,
        }
    }
}

/// Counters read (outside the timers) at the start and end of a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub metrics: RunMetrics,
    pub ledger: LedgerSnapshot,
    pub micro_rounds: u64,
    pub silent_steps: u64,
    pub micro_polls: u64,
    pub sync_frames: u64,
    pub wire: WireMetrics,
}

pub enum Arm {
    Session(Box<MonitorSession>),
    Service(Box<TopkService>),
    Seq(Box<TopkMonitor>),
    Socket(Box<SocketTopkMonitor>),
    Threaded(Box<ThreadedTopkMonitor>),
}

/// The protocol seed of the system under test, derived from the workload
/// seed so that a new seed also draws new protocol randomness.
pub fn protocol_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x7065_7266_6265_6e63
}

impl Arm {
    /// Build the arm and commit step 0 (which runs the init FILTERRESET).
    /// This is what `setup_s` times.
    pub fn setup(kind: ArmKind, workload: Workload, seed: u64, init: &[Value]) -> Arm {
        let (n, k) = (workload.n(), workload.k());
        let pseed = protocol_seed(seed);
        let session = |engine| {
            let mut s = MonitorBuilder::new(n, k).seed(pseed).engine(engine).build();
            s.update_row(init);
            s.advance(0);
            Arm::Session(Box::new(s))
        };
        let cfg = MonitorConfig::new(n, k);
        match (kind, workload.front()) {
            (ArmKind::Front, Front::Service { shards }) => {
                let mut svc = ServeBuilder::new(n, k)
                    .shards(shards)
                    .seed(pseed)
                    .engine(Engine::Sequential)
                    .build();
                svc.update_row(init);
                svc.advance(0);
                Arm::Service(Box::new(svc))
            }
            (ArmKind::Front, Front::SequentialSession) | (ArmKind::SingleSession, _) => {
                session(Engine::Sequential)
            }
            (ArmKind::Bare(Engine::Socket), _) => {
                let mut m = SocketTopkMonitor::new(cfg, pseed);
                m.step(0, init);
                Arm::Socket(Box::new(m))
            }
            (ArmKind::Bare(Engine::Threaded), _) => {
                let mut m = ThreadedTopkMonitor::new(cfg, pseed);
                m.step(0, init);
                Arm::Threaded(Box::new(m))
            }
            (ArmKind::Bare(_), _) => {
                let mut m = TopkMonitor::new(cfg, pseed);
                m.step(0, init);
                Arm::Seq(Box::new(m))
            }
        }
    }

    /// Commit step `t`: the public ingest call, then `advance` (or one
    /// engine step). Returns the number of events the step emitted.
    pub fn step(&mut self, t: u64, input: &Input<'_>, tr: &mut Tracer) -> Result<usize, String> {
        match self {
            Arm::Session(s) => {
                tr.begin("session.ingest");
                match *input {
                    Input::Row(r) => s.update_row(r),
                    Input::Batch(b) => s.update_batch(b.iter().copied()),
                }
                tr.end();
                tr.begin("session.advance");
                let events = s.advance(t).len();
                tr.end();
                Ok(events)
            }
            Arm::Service(svc) => {
                tr.begin("serve.ingest");
                match *input {
                    Input::Row(r) => svc.update_row(r),
                    Input::Batch(b) => svc.update_batch(b.iter().copied()),
                }
                tr.end();
                tr.begin("serve.advance");
                let events = svc.advance(t).len();
                tr.end();
                Ok(events)
            }
            Arm::Seq(m) => {
                match *input {
                    Input::Row(r) => m.step(t, r),
                    Input::Batch(b) => m.step_sparse(t, b),
                }
                Ok(0)
            }
            Arm::Socket(m) => match *input {
                Input::Row(r) => m.try_step(t, r),
                Input::Batch(b) => m.try_step_sparse(t, b),
            }
            .map(|()| 0)
            .map_err(|e| format!("socket engine step {t}: {e}")),
            Arm::Threaded(m) => match *input {
                Input::Row(r) => m.try_step(t, r),
                Input::Batch(b) => m.try_step_sparse(t, b),
            }
            .map(|()| 0)
            .map_err(|e| format!("threaded engine step {t}: {e}")),
        }
    }

    pub fn rule(&self) -> ThresholdRule {
        match self {
            Arm::Service(_) => ThresholdRule::Cut,
            _ => ThresholdRule::Filter,
        }
    }

    /// Check the step just committed (against `record` when there is one).
    pub fn check(
        &self,
        checker: &mut Checker,
        t: usize,
        record: Option<&mut Record>,
    ) -> Result<(), String> {
        let owned: Vec<NodeId>;
        let view = match self {
            Arm::Session(s) => StepView {
                topk: s.topk(),
                threshold: s.threshold(),
                events: Some(s.events()),
                ledger: s.ledger(),
            },
            Arm::Service(svc) => StepView {
                topk: svc.topk(),
                threshold: svc.threshold(),
                events: Some(svc.events()),
                ledger: svc.ledger(),
            },
            Arm::Seq(m) => {
                owned = m.topk();
                bare_view(&owned, m.as_ref(), m.coordinator().current_threshold())
            }
            Arm::Socket(m) => {
                owned = m.topk();
                bare_view(&owned, m.as_ref(), m.coordinator().current_threshold())
            }
            Arm::Threaded(m) => {
                owned = m.topk();
                bare_view(&owned, m.as_ref(), m.coordinator().current_threshold())
            }
        };
        checker.check(t, &view, record)
    }

    pub fn counters(&self) -> Counters {
        match self {
            Arm::Session(s) => Counters {
                metrics: *s.metrics(),
                ledger: s.ledger(),
                micro_rounds: s.micro_rounds_run(),
                silent_steps: s.silent_steps(),
                ..Counters::default()
            },
            Arm::Service(svc) => Counters {
                metrics: svc.metrics(),
                ledger: svc.ledger(),
                ..Counters::default()
            },
            Arm::Seq(m) => Counters {
                metrics: *m.metrics(),
                ledger: m.ledger(),
                micro_rounds: m.micro_rounds_run(),
                silent_steps: m.silent_steps(),
                micro_polls: m.micro_polls(),
                ..Counters::default()
            },
            Arm::Socket(m) => Counters {
                metrics: *m.metrics(),
                ledger: m.ledger(),
                micro_rounds: m.micro_rounds_run(),
                silent_steps: m.silent_steps(),
                sync_frames: m.sync_frames(),
                wire: *m.wire(),
                ..Counters::default()
            },
            Arm::Threaded(m) => Counters {
                metrics: *m.metrics(),
                ledger: m.ledger(),
                micro_rounds: m.micro_rounds_run(),
                silent_steps: m.silent_steps(),
                sync_frames: m.sync_frames(),
                ..Counters::default()
            },
        }
    }

    /// The service's candidates inspected by its last merge.
    pub fn merge_offered(&self) -> Option<u64> {
        match self {
            Arm::Service(svc) => Some(svc.merge_offered()),
            _ => None,
        }
    }

    /// The shard each key maps to, for arms that shard.
    pub fn shard_map(&self) -> Option<(usize, Vec<u32>)> {
        match self {
            Arm::Service(svc) => Some((
                svc.shard_count(),
                (0..svc.keys())
                    .map(|key| svc.shard_of(NodeId(key as u32)) as u32)
                    .collect(),
            )),
            _ => None,
        }
    }
}

fn bare_view<'a>(topk: &'a [NodeId], m: &dyn Monitor, threshold: Option<Value>) -> StepView<'a> {
    StepView {
        topk,
        threshold,
        events: None,
        ledger: m.ledger(),
    }
}
