//! The [`Monitor`] trait — the public face every monitoring algorithm
//! (Algorithm 1, the baselines, the ordered extension) implements — and
//! [`TopkMonitor`], Algorithm 1 assembled on the sequential engine.

use topk_net::behavior::ValueFeed;
use topk_net::id::{NodeId, Value};
use topk_net::ledger::LedgerSnapshot;
use topk_net::seq::DirectTransport;

use crate::cluster::ClusterMonitor;
use crate::events::TopkEvent;
use crate::node::NodeMachine;

/// A continuous top-k-position monitoring algorithm.
///
/// Contract: after `step(t, values)` returns, `topk()` is a *valid* top-k
/// set for `values` — the minimum value over members is ≥ the maximum over
/// non-members (equality only at ties). When the k-th and (k+1)-st values
/// are distinct, the set is unique and must equal the ground truth.
pub trait Monitor: Send {
    /// Short identifier for tables.
    fn name(&self) -> &'static str;
    /// Process the observations of time step `t` (strictly increasing `t`).
    fn step(&mut self, t: u64, values: &[Value]);
    /// Delta form of [`Monitor::step`]: process step `t` given only the
    /// `(id, value)` pairs that changed since `t − 1` (ascending ids; the
    /// first step must carry all `n` nodes) — the entry point sparse feeds
    /// drive via [`topk_net::behavior::ValueFeed::fill_delta`].
    ///
    /// The default accepts exactly the *dense* change-lists the default
    /// `fill_delta` produces (all `n` nodes present) and forwards to `step`.
    /// Every in-repo monitor overrides it: [`TopkMonitor`] with its native
    /// `O(#changed + #engaged)` path, the baselines via a [`RowCache`]
    /// (correct with any feed, dense cost). Monitors outside this crate
    /// should do one or the other.
    fn step_sparse(&mut self, t: u64, changes: &[(NodeId, Value)]) {
        assert_eq!(
            changes.len(),
            self.n(),
            "{}: no sparse path; default step_sparse needs dense change-lists \
             (drive this monitor with fill_step + step instead)",
            self.name()
        );
        debug_assert!(changes
            .iter()
            .enumerate()
            .all(|(i, &(id, _))| id.idx() == i));
        let row: Vec<Value> = changes.iter().map(|&(_, v)| v).collect();
        self.step(t, &row);
    }
    /// Current answer: top-k node ids, sorted ascending.
    fn topk(&self) -> Vec<NodeId>;
    /// Message counters accumulated so far.
    fn ledger(&self) -> LedgerSnapshot;
    /// Number of nodes.
    fn n(&self) -> usize;
    /// Monitored positions.
    fn k(&self) -> usize;
    /// Append the protocol-level [`TopkEvent`]s this monitor can attribute
    /// to the step that just completed — [`TopkEvent::ResetCompleted`] and
    /// [`TopkEvent::ThresholdUpdated`] for Algorithm 1 — clearing its
    /// internal "changed since last drain" cursor. Membership and rank
    /// events are *not* produced here: they are derived by the session
    /// layer ([`crate::session::MonitorSession`]), which owns the value row
    /// needed to rank members.
    ///
    /// The default is a no-op: monitors without protocol-level state (the
    /// baselines) report nothing, and a session over them still emits the
    /// derived membership events.
    fn drain_events(&mut self, _t: u64, _out: &mut Vec<TopkEvent>) {}
}

/// Drive any monitor over a feed for `steps` steps; returns the ledger delta.
pub fn run_monitor(
    monitor: &mut dyn Monitor,
    feed: &mut dyn ValueFeed,
    steps: u64,
) -> LedgerSnapshot {
    assert_eq!(feed.n(), monitor.n());
    let before = monitor.ledger();
    let mut row = vec![0 as Value; monitor.n()];
    for t in 0..steps {
        feed.fill_step(t, &mut row);
        monitor.step(t, &row);
    }
    monitor.ledger().since(&before)
}

/// Delta-driven counterpart of [`run_monitor`]: pulls change-lists via
/// [`ValueFeed::fill_delta`] and steps via [`Monitor::step_sparse`]. With a
/// natively sparse feed and a sparse monitor the whole loop is
/// `O(#changed + #engaged)` per step; with a default (dense-emitting) feed
/// any monitor works, falling back to its dense path.
pub fn run_monitor_sparse(
    monitor: &mut dyn Monitor,
    feed: &mut dyn ValueFeed,
    steps: u64,
) -> LedgerSnapshot {
    assert_eq!(feed.n(), monitor.n());
    let before = monitor.ledger();
    let mut changes: Vec<(NodeId, Value)> = Vec::new();
    for t in 0..steps {
        feed.fill_delta(t, &mut changes);
        monitor.step_sparse(t, &changes);
    }
    monitor.ledger().since(&before)
}

/// Cached full-value row for monitors without a native sparse path: patch a
/// change-list onto it and hand the dense row to `step`. Correct for any
/// change-list (O(n) per step, like the dense path it feeds).
#[derive(Debug, Clone, Default)]
pub struct RowCache {
    row: Vec<Value>,
    started: bool,
}

impl RowCache {
    /// Apply `changes` for step `t`; returns the full current row.
    /// The first call must carry all `n` nodes (the `fill_delta` contract).
    pub fn patch(&mut self, changes: &[(NodeId, Value)]) -> &[Value] {
        if !self.started {
            assert!(
                changes
                    .iter()
                    .enumerate()
                    .all(|(i, &(id, _))| id.idx() == i),
                "first change-list must cover ids 0..n in order"
            );
            self.row = changes.iter().map(|&(_, v)| v).collect();
            self.started = true;
        } else {
            for &(id, v) in changes {
                self.row[id.idx()] = v;
            }
        }
        &self.row
    }
}

/// The fallback [`Monitor::step_sparse`] body for monitors that keep a
/// [`RowCache`] in a `sparse_row` field: patch the change-list onto the
/// cached row and run the dense `step`. A macro (not a default method)
/// because the take/patch/restore dance needs the concrete type's field.
#[macro_export]
macro_rules! row_cache_step_sparse {
    () => {
        /// Correct sparse driving for a monitor without a native sparse
        /// path: patch the cached row and run the dense step (same O(n)
        /// cost as the dense drive).
        fn step_sparse(&mut self, t: u64, changes: &[(topk_net::id::NodeId, topk_net::id::Value)]) {
            let mut cache = std::mem::take(&mut self.sparse_row);
            self.step(t, cache.patch(changes));
            self.sparse_row = cache;
        }
    };
}

/// Algorithm 1 of the paper, assembled: `n` [`NodeMachine`]s and one
/// [`crate::CoordinatorMachine`] on the sequential engine — the step driver
/// over the direct-call transport, the sibling of
/// [`crate::ThreadedTopkMonitor`] and [`crate::SocketTopkMonitor`].
///
/// This is the *engine* type; new code should usually build a
/// [`crate::session::MonitorSession`] via
/// [`crate::session::MonitorBuilder`] instead of constructing engines
/// directly — the session adds push-based ingestion, automatic dense/sparse
/// routing, and the typed event stream on top of the identical execution.
pub type TopkMonitor = ClusterMonitor<DirectTransport<NodeMachine>>;

impl TopkMonitor {
    /// Node states (test/debug introspection).
    pub fn nodes(&self) -> &[NodeMachine] {
        self.cluster.nodes()
    }

    /// Total node `observe` calls — `O(#changed + #engaged)` per step on
    /// the sparse path, `n` per step only on the very first (init) step.
    pub fn observe_calls(&self) -> u64 {
        self.cluster.observe_calls()
    }

    /// Round-poll counter of the engine — the fire-round calendar's cost
    /// witness: a protocol episode polls each participant once (at its
    /// scheduled fire phase) plus the full-fanout rounds, instead of every
    /// active participant every round.
    pub fn micro_polls(&self) -> u64 {
        self.cluster.micro_polls()
    }
}

/// Check that `set` is a *tolerance-`tol` valid* top-k set for `values`:
/// `min_{i∈set} v_i + tol ≥ max_{j∉set} v_j`. With `tol = 0` this is exact
/// validity; a slack-`ε` monitor guarantees `tol = 2ε` (see
/// [`crate::config::MonitorConfig::slack`]).
pub fn is_eps_valid_topk(values: &[Value], set: &[NodeId], tol: Value) -> bool {
    if set.is_empty() {
        return values.is_empty();
    }
    let mut member = vec![false; values.len()];
    for id in set {
        if id.idx() >= values.len() {
            return false;
        }
        member[id.idx()] = true;
    }
    let min_in = values
        .iter()
        .enumerate()
        .filter(|(i, _)| member[*i])
        .map(|(_, &v)| v)
        .min()
        .unwrap();
    let max_out = values
        .iter()
        .enumerate()
        .filter(|(i, _)| !member[*i])
        .map(|(_, &v)| v)
        .max()
        .unwrap_or(0);
    min_in.saturating_add(tol) >= max_out
}

/// Check that `set` (sorted ids) is a *valid* top-k set for `values`:
/// `min_{i∈set} v_i ≥ max_{j∉set} v_j`. Unique ground truth ⇒ equality with
/// [`topk_net::id::true_topk`]; boundary ties admit any valid choice.
pub fn is_valid_topk(values: &[Value], set: &[NodeId]) -> bool {
    is_eps_valid_topk(values, set, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MonitorConfig;
    use topk_net::id::true_topk;

    #[test]
    fn valid_topk_checker() {
        let values = vec![10, 50, 20, 40, 30];
        assert!(is_valid_topk(&values, &[NodeId(1), NodeId(3)]));
        assert!(!is_valid_topk(&values, &[NodeId(0), NodeId(1)]));
        // Tie at the boundary: both choices valid.
        let tied = vec![10, 30, 30];
        assert!(is_valid_topk(&tied, &[NodeId(1)]));
        assert!(is_valid_topk(&tied, &[NodeId(2)]));
        assert!(!is_valid_topk(&tied, &[NodeId(0)]));
    }

    #[test]
    fn monitor_initializes_to_truth() {
        let cfg = MonitorConfig::new(8, 3);
        let mut mon = TopkMonitor::new(cfg, 42);
        let values: Vec<u64> = vec![5, 80, 20, 70, 10, 60, 30, 40];
        mon.step(0, &values);
        assert_eq!(mon.topk(), true_topk(&values, 3));
        assert!(mon.ledger().total() > 0, "initialization communicates");
    }

    #[test]
    fn constant_stream_is_silent_after_init() {
        let cfg = MonitorConfig::new(6, 2);
        let mut mon = TopkMonitor::new(cfg, 7);
        let values: Vec<u64> = vec![10, 60, 30, 50, 20, 40];
        mon.step(0, &values);
        let after_init = mon.ledger().total();
        for t in 1..200 {
            mon.step(t, &values);
        }
        assert_eq!(
            mon.ledger().total(),
            after_init,
            "no movement ⇒ no messages"
        );
        assert_eq!(mon.topk(), true_topk(&values, 2));
        assert_eq!(mon.silent_steps(), 199);
    }

    #[test]
    fn movement_within_filters_is_silent() {
        let cfg = MonitorConfig::new(4, 2);
        let mut mon = TopkMonitor::new(cfg, 3);
        // top-2 = {n1:100, n3:80}; bottom = {n0:20, n2:40}; threshold = 60.
        mon.step(0, &[20, 100, 40, 80]);
        let after_init = mon.ledger().total();
        // Wiggle everyone strictly within their side of 60.
        mon.step(1, &[25, 90, 45, 85]);
        mon.step(2, &[10, 110, 59, 61]);
        mon.step(3, &[0, 61, 0, 100]);
        assert_eq!(mon.ledger().total(), after_init);
        assert_eq!(mon.topk(), vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn boundary_swap_updates_answer() {
        let cfg = MonitorConfig::new(4, 2);
        let mut mon = TopkMonitor::new(cfg, 9);
        mon.step(0, &[20, 100, 40, 80]);
        assert_eq!(mon.topk(), vec![NodeId(1), NodeId(3)]);
        // n2 rockets above everyone; n3 collapses.
        mon.step(1, &[20, 100, 500, 10]);
        assert_eq!(mon.topk(), vec![NodeId(1), NodeId(2)]);
        // And the tracker reflects a fresh epoch.
        assert!(mon.coordinator().tracker().is_some());
    }

    #[test]
    fn degenerate_k_equals_n_never_communicates() {
        let cfg = MonitorConfig::new(3, 3);
        let mut mon = TopkMonitor::new(cfg, 1);
        for t in 0..50 {
            mon.step(t, &[t, 2 * t + 1, 100 - t]);
        }
        assert_eq!(mon.ledger().total(), 0);
        assert_eq!(mon.topk(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn single_node_k1() {
        let cfg = MonitorConfig::new(1, 1);
        let mut mon = TopkMonitor::new(cfg, 1);
        for t in 0..20 {
            mon.step(t, &[t * 17]);
        }
        assert_eq!(mon.ledger().total(), 0);
        assert_eq!(mon.topk(), vec![NodeId(0)]);
    }

    #[test]
    fn run_monitor_helper_drives_feed() {
        use topk_net::trace::{TraceMatrix, TraceReplay};
        let trace = TraceMatrix::from_rows(&[vec![1, 5, 3], vec![2, 6, 3], vec![9, 6, 3]]);
        let mut feed = TraceReplay::new(trace);
        let mut mon = TopkMonitor::new(MonitorConfig::new(3, 1), 5);
        let delta = run_monitor(&mut mon, &mut feed, 3);
        assert!(delta.total() > 0);
        assert_eq!(mon.topk(), vec![NodeId(0)]);
    }
}
