//! The two workloads and their input generators.
//!
//! Every workload is a closed loop: one driver thread builds the next
//! step's input, hands it to the system under test through the public
//! ingest call, and sends the step after that only once `advance` has
//! returned. Inputs are a pure function of the workload seed (pass `i` of
//! a run draws from [`pass_seed`]`(seed, i)`); the program under test
//! receives only the generated values.

use topk_net::behavior::ValueFeed;
use topk_net::id::{NodeId, Value};
use topk_streams::{SensorField, SparseWalk};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SensorChurn,
    ServeBursty,
}

/// Which public front door a workload drives, and with which engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `MonitorSession` on the sequential engine.
    SequentialSession,
    /// `TopkService` over sequential shard engines.
    Service { shards: usize },
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::SensorChurn, Workload::ServeBursty];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SensorChurn => "sensor_churn",
            Workload::ServeBursty => "serve_bursty",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, with the counters that justify it (measured
    /// over one pass at the commit that introduced the benchmark; the
    /// traced run reports them again on every run).
    ///
    /// * `sensor_churn` — the paper's sensor scenario: `SensorField`,
    ///   n = 1,024, k = 8, one whole row per step through `update_row`.
    ///   About 0.78 resets and 79 messages per step: the node/coordinator
    ///   machines, the k-select FILTERRESET and event derivation dominate,
    ///   and the session's dense write route is exercised. Its traced run
    ///   also replays a prefix of the trace on the socket and threaded
    ///   engines, which is where the transport and wire layers are
    ///   measured.
    /// * `serve_bursty` — `TopkService` over 1,000,000 keys, k = 8,
    ///   2 sequential shards, one tick per step. Every 10th tick carries
    ///   1,000 `SparseWalk` movers (domain 2^40, step ≤ 4,096), the other 9
    ///   none: the idle-shard tick share is 0.9, a quiet tick costs about
    ///   20 µs (every `advance` wakes every worker) and a burst about
    ///   200 µs, so idle-shard skipping moves `step_p50_rel` and ingest
    ///   routing moves `updates_per_ref`. The domain is 2^40, not 2^20: at
    ///   2^20 about 36 shard FILTERRESETs per 10,000 ticks, each about
    ///   0.1 s on a 500,000-key shard, make up some 90% of the service's
    ///   time, and their count from seed to seed spread `msgs_per_step`
    ///   by 0.25 and `updates_per_s` by 0.40 (IQR over median, five
    ///   seeds). At 2^40 the filters absorb every move after the init
    ///   reset, and the merge runs when a burst touches a shard's
    ///   candidates.
    ///
    /// Two workloads of the four first planned were tried and left out as
    /// unsteady on a shared two-core machine, where other tenants slow
    /// whole seconds of a run by up to 70%:
    ///
    /// * a 1,000,000-node sequential session fed 1,000 `SparseWalk` movers
    ///   a step (domain 2^40, step ≤ 64), which the filters absorb
    ///   entirely. Its step is bound by memory latency, so its p50 spread
    ///   0.18–0.37 and its throughput 0.16–0.34 (IQR over median, ten
    ///   seeds) against the largest bound the benchmark may set, 0.25.
    ///   The sparse session path is still measured: `serve_bursty`'s
    ///   traced run replays its ticks through one such session.
    /// * a socket session on a 256-node walk: its step time is set by
    ///   thread wake-ups between the driver and the socket engine's four
    ///   shard threads, and its p50 spread 0.2–0.46 across five seeds.
    ///   `sensor_churn`'s traced run measures the socket and threaded
    ///   engines as twins instead.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SensorChurn => {
                "paper's sensor field, whole rows: resets on most steps, so protocol rounds and event derivation dominate"
            }
            Workload::ServeBursty => {
                "2-shard service, 1 burst tick in 10: quiet ticks measure handoff overhead, bursts measure ingest and merge"
            }
        }
    }

    pub fn front(self) -> Front {
        match self {
            Workload::SensorChurn => Front::SequentialSession,
            Workload::ServeBursty => Front::Service { shards: 2 },
        }
    }

    pub fn n(self) -> usize {
        match self {
            Workload::ServeBursty => 1_000_000,
            Workload::SensorChurn => 1_024,
        }
    }

    pub fn k(self) -> usize {
        8
    }

    /// Steps per pass after the init step. At least 1,000, so every pass
    /// supports a p99 with 10 samples beyond it.
    pub fn steps(self) -> usize {
        match self {
            Workload::SensorChurn => 3_000,
            Workload::ServeBursty => 10_000,
        }
    }

    /// Steps per pass of one arm: the workload's own count, except that
    /// the socket and threaded twins of the whole-row workload replay only
    /// a prefix of its trace (a dense row per step costs those engines one
    /// frame per node, about 15 and 55 ms a step at n = 1,024).
    pub fn steps_of(self, kind: crate::arms::ArmKind) -> usize {
        use crate::arms::ArmKind;
        use topk_core::session::Engine;
        match (self, kind) {
            (Workload::SensorChurn, ArmKind::Bare(Engine::Socket)) => 200,
            (Workload::SensorChurn, ArmKind::Bare(Engine::Threaded)) => 50,
            _ => self.steps(),
        }
    }

    /// Passes every untraced run makes at least. `msgs_per_step` is
    /// counted over exactly these, so it is a pure function of the seed;
    /// the count is what it takes for the seed-to-seed spread of that
    /// count to fall well inside its bound.
    pub fn min_passes(self) -> usize {
        match self {
            Workload::ServeBursty => 12,
            Workload::SensorChurn => 3,
        }
    }

    /// A human-readable parameter line for the run's provenance record.
    pub fn params(self) -> String {
        match self {
            Workload::SensorChurn => "SensorField::standard n=1024 k=8 update_row".into(),
            Workload::ServeBursty => "SparseWalk n=1000000 k=8 domain=2^40 step<=4096 movers=1000 every 10th tick, shards=2".into(),
        }
    }
}

/// The seed of pass `i`'s inputs and protocol randomness under workload
/// seed `seed` (a splitmix64 step, so neighbouring seeds share no pass).
pub fn pass_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Period of `serve_bursty`'s burst ticks.
pub const BURST_EVERY: u64 = 10;

/// One step's input as the system under test receives it.
pub enum Input<'a> {
    /// A whole row: node `i` observes `row[i]`.
    Row(&'a [Value]),
    /// Changed nodes only, ascending ids (empty on a quiet tick).
    Batch(&'a [(NodeId, Value)]),
}

impl Input<'_> {
    pub fn updates(&self) -> usize {
        match self {
            Input::Row(r) => r.len(),
            Input::Batch(b) => b.len(),
        }
    }
}

enum Source {
    Delta(Box<dyn ValueFeed>),
    Rows(SensorField),
}

/// The load generator of one pass, built fresh from the pass seed, so
/// every arm that replays a pass seed sees the identical input sequence.
pub struct Inputs {
    workload: Workload,
    source: Source,
    row: Vec<Value>,
    changes: Vec<(NodeId, Value)>,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let n = workload.n();
        let source = match workload {
            Workload::SensorChurn => Source::Rows(SensorField::standard(n, seed)),
            Workload::ServeBursty => {
                Source::Delta(Box::new(SparseWalk::new(n, 0, 1 << 40, 4_096, 1e-3, seed)))
            }
        };
        Inputs {
            workload,
            source,
            row: vec![0; n],
            changes: Vec::new(),
        }
    }

    /// The step-0 row every node observes at initialization.
    pub fn init(&mut self) -> &[Value] {
        match &mut self.source {
            Source::Delta(feed) => {
                feed.fill_delta(0, &mut self.changes);
                assert_eq!(self.changes.len(), self.row.len(), "first delta is dense");
                for &(id, v) in &self.changes {
                    self.row[id.idx()] = v;
                }
            }
            Source::Rows(field) => field.fill_step(0, &mut self.row),
        }
        &self.row
    }

    /// The input of step `t ≥ 1`.
    pub fn next(&mut self, t: u64) -> Input<'_> {
        match &mut self.source {
            Source::Rows(field) => {
                field.fill_step(t, &mut self.row);
                Input::Row(&self.row)
            }
            Source::Delta(feed) => {
                if self.workload == Workload::ServeBursty && !t.is_multiple_of(BURST_EVERY) {
                    self.changes.clear();
                } else {
                    feed.fill_delta(t, &mut self.changes);
                }
                Input::Batch(&self.changes)
            }
        }
    }
}
