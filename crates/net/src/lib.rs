//! # topk-net — communication substrate for distributed stream monitoring
//!
//! This crate implements the system model of *Online Top-k-Position
//! Monitoring of Distributed Data Streams* (Mäcker, Malatyali, Meyer auf der
//! Heide): `n` nodes with private data streams, one coordinator,
//! node→coordinator and coordinator→node unicasts plus a broadcast channel,
//! each costing one message; instantaneous delivery; and an arbitrary
//! multi-round protocol between consecutive observations.
//!
//! Provided here:
//!
//! * [`id`] — node identities, values, and the tie-breaking total order;
//! * [`ledger`] — message accounting (the paper's cost metric);
//! * [`wire`] — compact encodings and the `O(log n + log Δ)` size budget;
//! * [`rng`] — deterministic per-node randomness and the exact `2^r/N`
//!   Bernoulli trials the model's nodes are equipped with;
//! * [`behavior`] — the node/coordinator state-machine traits;
//! * [`delta`] — the driver's cached value row behind the delta-driven
//!   entry points;
//! * [`calendar`] — the driver's fire-round calendar (protocol rounds
//!   visit only the round's scheduled firers);
//! * [`driver`] — the one coordinator-side step driver ([`Cluster`]) of
//!   every engine: visit rule, round loop and guard, ledger charging, reply
//!   bookkeeping and crash recovery over a small [`Transport`] trait;
//! * [`seq`] — the direct-call transport ([`DirectTransport`]: nodes run in
//!   place, no frames) and [`SyncRuntime`], the deterministic sequential
//!   engine every experiment uses;
//! * [`threaded`] — the OS-thread + crossbeam-channel transport (the "real"
//!   distributed execution);
//! * [`socket`] — the loopback-TCP transport: node shards behind real
//!   sockets, length-prefixed frames, and a physical wire ledger
//!   ([`WireMetrics`]) alongside the model ledger;
//! * [`trace`] — dense observation traces, replay and CSV I/O;
//! * [`chaos`] — seeded, deterministic fault injection for the threaded
//!   and socket runtimes (including the wire-level [`WireChaos`] classes),
//!   plus the recovery observability types ([`RecoveryMetrics`],
//!   [`RuntimeError`]).

#![forbid(unsafe_code)]

pub mod behavior;
pub mod calendar;
pub mod chaos;
pub mod delta;
pub mod driver;
pub mod id;
pub mod ledger;
pub mod rng;
pub mod seq;
pub mod socket;
pub mod threaded;
pub mod trace;
pub mod wire;

pub use behavior::{
    emit_dense, CoordOut, CoordinatorBehavior, NodeBehavior, ObserveAction, RoundAction, ValueFeed,
};
pub use calendar::FireCalendar;
pub use chaos::{ChaosPolicy, RecoveryMetrics, RuntimeError, WireChaos};
pub use delta::DeltaRow;
pub use driver::{Cluster, Transport};
pub use id::{midpoint_floor, true_ranking, true_topk, MinEntry, NodeId, RankEntry, Value};
pub use ledger::{ChannelKind, CommLedger, LedgerSnapshot, WireMetrics};
pub use seq::{DirectTransport, SyncRuntime};
pub use socket::{FrameCodec, SocketCluster, TcpTransport, WireError, WireTaps};
pub use threaded::{ChannelTransport, ThreadedCluster};
pub use trace::{TraceMatrix, TraceReplay};
