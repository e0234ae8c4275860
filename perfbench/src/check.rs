//! The per-step correctness checker, run outside the step timers.
//!
//! A step passes when
//!
//! * its answer holds exactly `k` distinct ids and is a valid top-k set
//!   against an independent reference order: no non-member's value exceeds
//!   a member's ([`Reference`] keeps that order incrementally);
//! * its threshold is right: a session's filter threshold `M` separates
//!   members (`≥ M`) from non-members (`≤ M`), and a service's threshold is
//!   the exact global `(k+1)`-th-best value;
//! * replaying the events the step emitted through [`EventReplay`] yields
//!   the reported answer and threshold;
//! * its model ledger and threshold equal those the same step had in the
//!   reference record of its input trace, when the pass is checked against
//!   one: the first pass over a trace writes the record, and every later
//!   pass and every twin over the same trace must agree message for
//!   message.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashSet};

use topk_core::{EventReplay, TopkEvent};
use topk_net::id::{NodeId, Value};
use topk_net::ledger::LedgerSnapshot;

/// The reference order: every value, plus an exact ordered set of the
/// candidates for the top. Every value outside the candidate set is at
/// most `outside_max`, so the best `m` candidates are the best `m` overall
/// whenever the `m`-th of them beats `outside_max` strictly; when it does
/// not, the candidate set is rebuilt by one scan. A changed value costs one
/// row write and, for a candidate, one `O(log C)` re-insert.
pub struct Reference {
    row: Vec<Value>,
    /// Candidates best-first: higher value, ties by lower id (the
    /// repository's rank order).
    cand: BTreeSet<(Reverse<Value>, u32)>,
    is_cand: HashSet<u32>,
    /// Upper bound on every non-candidate's value (`None`: all are
    /// candidates).
    outside_max: Option<Value>,
    dirty: bool,
}

/// Candidates a rebuild keeps.
const CANDIDATES: usize = 64;

impl Reference {
    pub fn new(row: &[Value]) -> Self {
        Reference {
            row: row.to_vec(),
            cand: BTreeSet::new(),
            is_cand: HashSet::new(),
            outside_max: None,
            dirty: true,
        }
    }

    pub fn value(&self, id: NodeId) -> Value {
        self.row[id.idx()]
    }

    /// One changed value.
    pub fn set(&mut self, id: NodeId, value: Value) {
        let old = std::mem::replace(&mut self.row[id.idx()], value);
        if self.dirty {
            return;
        }
        if self.is_cand.contains(&id.0) {
            self.cand.remove(&(Reverse(old), id.0));
            self.cand.insert((Reverse(value), id.0));
        } else if self.outside_max.is_some_and(|m| value >= m) {
            self.cand.insert((Reverse(value), id.0));
            self.is_cand.insert(id.0);
        }
    }

    /// A whole new row.
    pub fn set_row(&mut self, row: &[Value]) {
        self.row.copy_from_slice(row);
        self.dirty = true;
    }

    /// Re-select the candidates by one scan: the best `CANDIDATES` become
    /// candidates, and the next one bounds everything else.
    fn rebuild(&mut self) {
        let mut heap = BinaryHeap::with_capacity(CANDIDATES + 2);
        for (i, &v) in self.row.iter().enumerate() {
            heap.push(Reverse((v, Reverse(i as u32))));
            if heap.len() > CANDIDATES + 1 {
                heap.pop();
            }
        }
        self.outside_max = None;
        if heap.len() > CANDIDATES {
            let Reverse((v, _)) = heap.pop().expect("non-empty");
            self.outside_max = Some(v);
        }
        self.cand.clear();
        self.is_cand.clear();
        for Reverse((v, Reverse(id))) in heap {
            self.cand.insert((Reverse(v), id));
            self.is_cand.insert(id);
        }
        self.dirty = false;
    }

    /// The best `m` ids in rank order (`m ≤ CANDIDATES`).
    pub fn top(&mut self, m: usize, out: &mut Vec<NodeId>) {
        assert!(m <= CANDIDATES);
        let exact = |r: &Reference| {
            r.cand.len() >= m.min(r.row.len())
                && match (r.outside_max, r.cand.iter().nth(m.saturating_sub(1))) {
                    (None, _) => true,
                    (Some(bound), Some(&(Reverse(v), _))) => v > bound,
                    (Some(_), None) => false,
                }
        };
        if self.dirty || !exact(self) || self.cand.len() > 16 * CANDIDATES {
            self.rebuild();
        }
        if !exact(self) {
            // Ties straddle the bound: fall back to a full sort.
            let mut ids: Vec<u32> = (0..self.row.len() as u32).collect();
            ids.sort_by_key(|&i| (Reverse(self.row[i as usize]), i));
            out.clear();
            out.extend(ids.into_iter().take(m).map(NodeId));
            return;
        }
        out.clear();
        out.extend(self.cand.iter().take(m).map(|&(_, id)| NodeId(id)));
    }
}

/// What the reported threshold means for the arm under check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdRule {
    /// A session's (or bare engine's) filter threshold `M`: members `≥ M ≥`
    /// non-members.
    Filter,
    /// A service's exact global `(k+1)`-th-best value.
    Cut,
}

/// The outputs of one committed step, as an arm reports them.
pub struct StepView<'a> {
    /// Answer ids, sorted ascending.
    pub topk: &'a [NodeId],
    pub threshold: Option<Value>,
    /// The step's emitted events, for arms that emit them.
    pub events: Option<&'a [TopkEvent]>,
    pub ledger: LedgerSnapshot,
}

/// The model part of a ledger: the counters every engine charges
/// identically (transport sync frames and retransmits excluded).
pub fn model_ledger(l: &LedgerSnapshot) -> [u64; 6] {
    [
        l.up,
        l.down,
        l.broadcast,
        l.up_bits,
        l.down_bits,
        l.broadcast_bits,
    ]
}

/// Per-step model ledger and threshold of one input trace under one arm
/// family, against which every later pass and every twin is checked.
#[derive(Default)]
pub struct Record {
    steps: Vec<([u64; 6], Option<Value>)>,
}

impl Record {
    /// Compare step `t` with the record, or append it when the record ends
    /// at `t` (the first pass over the trace writes it as it goes).
    fn check(&mut self, t: usize, step: ([u64; 6], Option<Value>)) -> Result<(), String> {
        match self.steps.get(t) {
            Some(want) if *want != step => Err(format!(
                "ledger/threshold {step:?} differ from the reference record {want:?}"
            )),
            Some(_) => Ok(()),
            None => {
                debug_assert_eq!(self.steps.len(), t, "steps are checked in order");
                self.steps.push(step);
                Ok(())
            }
        }
    }
}

/// Checks one pass of one arm, step by step.
pub struct Checker {
    k: usize,
    rule: ThresholdRule,
    reference: Reference,
    replay: EventReplay,
    top: Vec<NodeId>,
    member: Vec<bool>,
}

impl Checker {
    /// A checker whose reference starts at the step-0 row `init`.
    pub fn new(k: usize, rule: ThresholdRule, init: &[Value]) -> Self {
        Checker {
            k,
            rule,
            reference: Reference::new(init),
            replay: EventReplay::new(),
            top: Vec::with_capacity(k + 1),
            member: vec![false; init.len()],
        }
    }

    pub fn reference(&mut self) -> &mut Reference {
        &mut self.reference
    }

    /// Check step `t` (0 = the init step), and compare its ledger and
    /// threshold with `record` when there is one.
    pub fn check(
        &mut self,
        t: usize,
        view: &StepView<'_>,
        record: Option<&mut Record>,
    ) -> Result<(), String> {
        let result = self.check_answer(view).and(record.map_or(Ok(()), |r| {
            r.check(t, (model_ledger(&view.ledger), view.threshold))
        }));
        result.map_err(|e| format!("step {t}: {e}"))
    }

    fn check_answer(&mut self, view: &StepView<'_>) -> Result<(), String> {
        let k = self.k;
        if view.topk.len() != k || view.topk.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!(
                "answer is not {k} distinct sorted ids: {:?}",
                view.topk
            ));
        }
        if let Some(&id) = view.topk.iter().find(|id| id.idx() >= self.member.len()) {
            return Err(format!("answer holds unknown id {id}"));
        }
        for &id in view.topk {
            self.member[id.idx()] = true;
        }
        self.reference.top(k + 1, &mut self.top);
        let min_in = view
            .topk
            .iter()
            .map(|&id| self.reference.value(id))
            .min()
            .expect("k ≥ 1");
        // At most k of the best k+1 are members: the first non-member among
        // them is the best non-member overall.
        let max_out = self
            .top
            .iter()
            .find(|id| !self.member[id.idx()])
            .map(|&id| self.reference.value(id));
        for &id in view.topk {
            self.member[id.idx()] = false;
        }
        if let Some(max_out) = max_out {
            if min_in < max_out {
                return Err(format!(
                    "invalid answer: a member holds {min_in}, a non-member {max_out}"
                ));
            }
        }
        let threshold_ok = match (self.rule, view.threshold) {
            (ThresholdRule::Filter, Some(m)) => min_in >= m && max_out.is_none_or(|v| v <= m),
            (ThresholdRule::Cut, Some(cut)) => max_out == Some(cut),
            (_, None) => false,
        };
        if !threshold_ok {
            return Err(format!(
                "threshold {:?} ({:?} rule) is wrong for member minimum {min_in} and non-member maximum {max_out:?}",
                view.threshold, self.rule
            ));
        }
        if let Some(events) = view.events {
            self.replay.apply(events);
            if self.replay.topk() != view.topk || self.replay.threshold() != view.threshold {
                return Err(format!(
                    "event replay gives {:?} / {:?}, the arm reports {:?} / {:?}",
                    self.replay.topk(),
                    self.replay.threshold(),
                    view.topk,
                    view.threshold
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_core::session::MonitorBuilder;

    fn ids(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().copied().map(NodeId).collect()
    }

    /// The candidate bookkeeping agrees with a full sort through many
    /// random changes, including ties and values that fall out of the top.
    #[test]
    fn reference_matches_a_full_sort() {
        let n = 500;
        let mut x = 12345u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let row: Vec<Value> = (0..n).map(|_| next() % 300).collect();
        let mut r = Reference::new(&row);
        let mut top = Vec::new();
        for step in 0..2000 {
            let id = (next() % n) as u32;
            r.set(NodeId(id), next() % 300);
            if step % 7 == 0 {
                r.top(9, &mut top);
                let mut ids: Vec<u32> = (0..n as u32).collect();
                ids.sort_by_key(|&i| (Reverse(r.value(NodeId(i))), i));
                assert_eq!(
                    top,
                    ids[..9].iter().copied().map(NodeId).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn reference_orders_by_value_then_id() {
        let mut r = Reference::new(&[5, 9, 9, 1, 7]);
        let mut top = Vec::new();
        r.top(5, &mut top);
        assert_eq!(top, ids(&[1, 2, 4, 0, 3]));
        r.set(NodeId(3), 10);
        r.top(2, &mut top);
        assert_eq!(top, ids(&[3, 1]));
        r.set_row(&[0, 0, 0, 0, 1]);
        r.top(1, &mut top);
        assert_eq!(top, ids(&[4]));
    }

    /// Drive a real session and check every step; then corrupt the answer,
    /// the threshold and the event stream one at a time and require each
    /// corruption to fail its step.
    #[test]
    fn real_steps_pass_and_corrupted_steps_fail() {
        let n = 64;
        let k = 4;
        let row = |t: u64| -> Vec<Value> {
            (0..n as u64)
                .map(|i| (i * 37 + t * (i % 5) * 11) % 1000)
                .collect()
        };
        let mut session = MonitorBuilder::new(n, k).seed(3).build();
        let mut checker = Checker::new(k, ThresholdRule::Filter, &row(0));
        let mut record = Record::default();
        for t in 0..40u64 {
            let values = row(t);
            session.update_row(&values);
            checker.reference().set_row(&values);
            let events = session.advance(t).to_vec();
            let view = StepView {
                topk: session.topk(),
                threshold: session.threshold(),
                events: Some(&events),
                ledger: session.ledger(),
            };
            checker
                .check(t as usize, &view, Some(&mut record))
                .expect("a real session step is correct");
        }
        let good = session.topk().to_vec();
        let m = session.threshold();
        let ledger = session.ledger();
        let last = 39;

        // A non-member swapped in for the weakest member.
        let mut fresh = |topk: &[NodeId], threshold, events: Option<&[TopkEvent]>| {
            let mut c = Checker::new(k, ThresholdRule::Filter, &row(last as u64));
            let view = StepView {
                topk,
                threshold,
                events,
                ledger,
            };
            c.check(last, &view, Some(&mut record))
        };
        assert!(fresh(&good, m, None).is_ok());
        let outsider = (0..n as u32)
            .map(NodeId)
            .filter(|id| !good.contains(id))
            .min_by_key(|id| row(last as u64)[id.idx()])
            .unwrap();
        let mut bad = good.clone();
        bad[0] = outsider;
        bad.sort_unstable();
        assert!(fresh(&bad, m, None).is_err(), "corrupted answer must fail");
        assert!(
            fresh(&good[1..], m, None).is_err(),
            "short answer must fail"
        );
        assert!(
            fresh(&good, m.map(|m| m + 100_000), None).is_err(),
            "corrupted threshold must fail"
        );
        assert!(
            fresh(&good, None, None).is_err(),
            "missing threshold must fail"
        );
        let stray = [TopkEvent::ThresholdUpdated { t: 0, threshold: 1 }];
        assert!(
            fresh(&good, m, Some(&stray)).is_err(),
            "an event stream that does not replay to the answer must fail"
        );
        let mut wrong_ledger = ledger;
        wrong_ledger.up += 1;
        let mut c = Checker::new(k, ThresholdRule::Filter, &row(last as u64));
        let view = StepView {
            topk: &good,
            threshold: m,
            events: None,
            ledger: wrong_ledger,
        };
        assert!(
            c.check(last, &view, Some(&mut record)).is_err(),
            "a ledger that differs from the record must fail"
        );
    }

    #[test]
    fn cut_rule_wants_the_exact_k_plus_first_value() {
        let values = [50, 40, 30, 20, 10];
        let mut c = Checker::new(2, ThresholdRule::Cut, &values);
        let ledger = LedgerSnapshot::default();
        let view = |threshold| StepView {
            topk: &[NodeId(0), NodeId(1)],
            threshold,
            events: None,
            ledger,
        };
        assert!(c.check(0, &view(Some(30)), None).is_ok());
        assert!(c.check(0, &view(Some(35)), None).is_err());
    }
}
