//! Serving-layer throughput: a sharded [`TopkService`] against a single
//! [`MonitorSession`] on the same sparse workload.
//!
//! Three groups at a fixed key space (50k keys, 1% movers per step):
//!
//! * **ingest** — `update_batch` + `advance` per step across shard counts
//!   {1, 2, 4}; throughput is reported in *updates*/sec (movers per step),
//!   the serving layer's headline number. A changed step pays the shard
//!   round plus the `S`-way exact merge and event derivation.
//! * **session_baseline** — the identical stream through one
//!   [`MonitorSession`]; the gap to `ingest/1` is the worker-handoff +
//!   merge overhead the front door costs, the gap to higher shard counts
//!   is what concurrent shard rounds buy back.
//! * **silent** — `advance` with nothing buffered: every shard sits the
//!   tick out, so no worker round trip, no merge and no allocation (the
//!   zero-alloc pin lives in `tests/alloc_discipline.rs`). This is the
//!   service's own per-tick floor; the handoff cost shows on ingest steps.
//!
//! The machine-readable trajectory counterpart (10M keys, deterministic
//! counters) is `results/BENCH_serve.json` via `bench_json`.
//!
//! [`TopkService`]: topk_serve::TopkService
//! [`MonitorSession`]: topk_core::session::MonitorSession

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use topk_core::session::{Engine, MonitorBuilder};
use topk_net::behavior::ValueFeed;
use topk_net::id::{NodeId, Value};
use topk_serve::ServeBuilder;
use topk_streams::WorkloadSpec;

const KEYS: usize = 50_000;
const K: usize = 8;
const SHARDS: &[usize] = &[1, 2, 4];
const MOVERS: usize = 500;
const SEED: u64 = 9;

fn spec() -> WorkloadSpec {
    WorkloadSpec::SparseWalk {
        n: KEYS,
        lo: 0,
        hi: 1 << 40,
        step_max: 64,
        sparsity: MOVERS as f64 / KEYS as f64,
    }
}

/// Steady-state sharded ingest: route the movers, commit the step, merge.
fn serve_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_throughput/ingest");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    for &s in SHARDS {
        let mut svc = ServeBuilder::new(KEYS, K)
            .shards(s)
            .seed(SEED)
            .engine(Engine::Sequential)
            .build();
        let mut feed = spec().build(5);
        let mut changes: Vec<(NodeId, Value)> = Vec::new();
        let mut t = 0u64;
        feed.fill_delta(t, &mut changes);
        svc.update_batch(changes.iter().copied());
        svc.advance(t);
        group.throughput(Throughput::Elements(MOVERS as u64));
        group.bench_with_input(BenchmarkId::from_parameter(s), &s, |b, _| {
            b.iter(|| {
                t += 1;
                feed.fill_delta(t, &mut changes);
                svc.update_batch(changes.iter().copied());
                svc.advance(t);
                black_box(svc.merge_offered())
            });
        });
    }
    group.finish();
}

/// The identical stream through one session — what the front door costs.
fn session_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_throughput/session_baseline");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    let mut session = MonitorBuilder::new(KEYS, K)
        .seed(SEED)
        .engine(Engine::Sequential)
        .build();
    let mut feed = spec().build(5);
    let mut changes: Vec<(NodeId, Value)> = Vec::new();
    let mut t = 0u64;
    feed.fill_delta(t, &mut changes);
    session.update_batch(changes.iter().copied());
    session.advance(t);
    group.throughput(Throughput::Elements(MOVERS as u64));
    group.bench_with_input(BenchmarkId::from_parameter(KEYS), &KEYS, |b, _| {
        b.iter(|| {
            t += 1;
            feed.fill_delta(t, &mut changes);
            session.update_batch(changes.iter().copied());
            session.advance(t);
            black_box(session.silent_steps())
        });
    });
    group.finish();
}

/// Globally silent service step: every shard sits it out (no worker
/// round trip), no merge, no events, no allocation.
fn serve_silent(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_throughput/silent");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    for &s in SHARDS {
        let mut svc = ServeBuilder::new(KEYS, K)
            .shards(s)
            .seed(SEED)
            .engine(Engine::Sequential)
            .build();
        let mut feed = spec().build(5);
        let mut changes: Vec<(NodeId, Value)> = Vec::new();
        let mut t = 0u64;
        feed.fill_delta(t, &mut changes);
        svc.update_batch(changes.iter().copied());
        svc.advance(t);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(s), &s, |b, _| {
            b.iter(|| {
                t += 1;
                assert!(svc.advance(t).is_empty());
                black_box(svc.event_capacity())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, serve_ingest, session_baseline, serve_silent);
criterion_main!(benches);
