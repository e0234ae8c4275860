//! The distributed engines size their micro-round guard from the monitored
//! `k`, exactly like the sequential runtime: a valid large-`k` legacy init
//! reset at n = 256, k = 200 runs 1,810 micro-rounds — more than a guard
//! sized for k = 16 allows even with 4× headroom (1,056) — and every
//! engine commits it with the same answers, threshold, model ledger and
//! round count.

use topk_monitoring::prelude::*;

fn probe(engine: Engine) -> MonitorSession {
    let (n, k) = (256, 200);
    let row: Vec<Value> = (0..n as u64).map(|i| 7 * i + 1).collect();
    let mut session = MonitorBuilder::new(n, k)
        .reset(ResetStrategy::Legacy)
        .engine(engine)
        .build();
    session.update_row(&row);
    session.advance(0);
    session
}

#[test]
fn large_k_legacy_init_commits_on_every_engine() {
    let seq = probe(Engine::Sequential);
    assert_eq!(seq.micro_rounds_run(), 1_810);
    for engine in [Engine::Threaded, Engine::Socket] {
        let twin = probe(engine);
        assert_eq!(twin.topk(), seq.topk(), "{engine:?}");
        assert_eq!(twin.threshold(), seq.threshold(), "{engine:?}");
        // `sync_frames` is transport accounting, not model cost.
        let model = LedgerSnapshot {
            sync_frames: 0,
            ..twin.ledger()
        };
        assert_eq!(model, seq.ledger(), "{engine:?}");
        assert_eq!(
            twin.micro_rounds_run(),
            seq.micro_rounds_run(),
            "{engine:?}"
        );
    }
}
