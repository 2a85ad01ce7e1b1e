//! Cross-cutting invariants a chaotic run must still satisfy.
//!
//! The recorder/ledger-level checks live in `faasim-resilience` and
//! [`check_cloud`], the one-call bundle over a whole `Cloud`, in the
//! core crate (so the core experiments can assert them without a
//! dependency cycle); this module re-exports them.

pub use faasim::experiments::check_cloud;
pub use faasim_resilience::{ledger_consistent, message_conservation, queue_conservation};

#[cfg(test)]
mod tests {
    use super::*;
    use faasim_pricing::Ledger;
    use faasim_simcore::Recorder;

    #[test]
    fn clean_recorder_and_ledger_pass() {
        let r = Recorder::new();
        let l = Ledger::new();
        assert_eq!(message_conservation(&r), None);
        assert_eq!(ledger_consistent(&l), None);
    }

    #[test]
    fn unaccounted_messages_are_flagged() {
        let r = Recorder::new();
        r.add("net.messages_sent", 10);
        r.add("net.messages_delivered", 9);
        let v = message_conservation(&r).expect("one message vanished");
        assert!(v.contains("sent=10"), "{v}");
    }

    #[test]
    fn balanced_counters_pass() {
        let r = Recorder::new();
        r.add("net.messages_sent", 10);
        r.add("net.messages_delivered", 7);
        r.add("net.messages_dropped", 1);
        r.add("net.messages_partitioned", 1);
        r.add("net.messages_lost", 1);
        assert_eq!(message_conservation(&r), None);
    }

    #[test]
    fn queue_conservation_balances_through_dlq_flow() {
        use faasim::{Cloud, CloudProfile};
        use faasim_queue::{DeadLetterConfig, QueueConfig};
        use faasim_simcore::SimDuration;

        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 7);
        cloud.queue.create_queue("dlq", QueueConfig::default());
        cloud.queue.create_queue(
            "q",
            QueueConfig {
                // Wider than the queue's RPC latency, so the receipt is
                // still live when the delete lands.
                visibility_timeout: SimDuration::from_millis(100),
                dead_letter: Some(DeadLetterConfig {
                    queue: "dlq".into(),
                    max_receives: 2,
                }),
            },
        );
        let host = cloud.client_host();
        let q = cloud.queue.clone();
        let sim = cloud.sim.clone();
        cloud.sim.block_on(async move {
            q.send(&host, "q", "poison").await.unwrap();
            q.send(&host, "q", "good").await.unwrap();
            // First receive claims both; delete only one.
            let got = q.receive(&host, "q", 10, SimDuration::ZERO).await.unwrap();
            assert_eq!(got.len(), 2);
            let keep = got
                .into_iter()
                .find(|m| m.body.eq_bytes(b"good"))
                .unwrap();
            q.delete(&host, keep.receipt).await.unwrap();
            // Drive the poison message through its receive budget.
            for _ in 0..3 {
                sim.sleep(SimDuration::from_millis(150)).await;
                let _ = q.receive(&host, "q", 10, SimDuration::ZERO).await.unwrap();
            }
        });
        assert!(
            cloud.recorder.counter("queue.dead_lettered") > 0,
            "the poison message must have dead-lettered"
        );
        assert_eq!(
            queue_conservation(&cloud.recorder, &cloud.queue),
            None,
            "enqueued == deleted + dead_lettered + remaining"
        );
    }

    #[test]
    fn consistent_ledger_passes() {
        use faasim_pricing::Service;
        let l = Ledger::new();
        l.charge(Service::Kv, "write-requests", 3.0, 0.000004);
        l.charge(Service::Blob, "put-requests", 1.0, 0.000005);
        assert_eq!(ledger_consistent(&l), None);
    }
}
