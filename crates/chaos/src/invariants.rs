//! Cross-cutting invariants a chaotic run must still satisfy.
//!
//! Fault injection is only useful if something checks that the system
//! *under* fault keeps its promises. These checks are deliberately
//! global — they read the shared [`Recorder`] and [`Ledger`] rather
//! than scenario state, so every workload gets them for free, and
//! [`check_cloud`] bundles them over a whole [`Cloud`].

use faasim::Cloud;
use faasim_pricing::Ledger;
use faasim_queue::QueueService;
use faasim_simcore::Recorder;

/// Run every global invariant against a cloud; returns the list of
/// violations (empty means healthy).
pub fn check_cloud(cloud: &Cloud) -> Vec<String> {
    [
        message_conservation(&cloud.recorder),
        queue_conservation(&cloud.recorder, &cloud.queue),
        ledger_consistent(&cloud.ledger),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Message conservation: every message the fabric accepted must be
/// accounted for as delivered, dropped (dead host / no socket),
/// partitioned, or chaos-lost. Chaos may *reclassify* messages, but it
/// must never make one vanish without a counter.
pub fn message_conservation(recorder: &Recorder) -> Option<String> {
    let sent = recorder.counter("net.messages_sent");
    let delivered = recorder.counter("net.messages_delivered");
    let dropped = recorder.counter("net.messages_dropped");
    let partitioned = recorder.counter("net.messages_partitioned");
    let lost = recorder.counter("net.messages_lost");
    let accounted = delivered + dropped + partitioned + lost;
    if sent != accounted {
        return Some(format!(
            "message conservation violated: sent={sent} != \
             delivered={delivered} + dropped={dropped} + \
             partitioned={partitioned} + lost={lost} (= {accounted})"
        ));
    }
    None
}

/// DLQ-aware queue-message conservation: every stored copy (client
/// sends, chaos duplicates, dead-letter moves) must end the run
/// deleted, dead-lettered, or still sitting in some queue. Duplication
/// and redelivery are *allowed* — silent loss is not.
pub fn queue_conservation(recorder: &Recorder, queues: &QueueService) -> Option<String> {
    let enqueued = recorder.counter("queue.enqueued");
    let deleted = recorder.counter("queue.deleted_messages");
    let dead_lettered = recorder.counter("queue.dead_lettered");
    let remaining = queues.total_remaining();
    let accounted = deleted + dead_lettered + remaining;
    if enqueued != accounted {
        return Some(format!(
            "queue conservation violated: enqueued={enqueued} != \
             deleted={deleted} + dead_lettered={dead_lettered} + \
             remaining={remaining} (= {accounted})"
        ));
    }
    None
}

/// Billing-ledger consistency: every line item finite and non-negative,
/// per-service subtotals summing to the grand total. Chaos must never
/// corrupt the bill — throttled and crashed requests are either billed
/// like AWS bills them or not billed at all, but never billed NaN.
pub fn ledger_consistent(ledger: &Ledger) -> Option<String> {
    let items = ledger.breakdown();
    let mut sum = 0.0;
    for (service, item, quantity, dollars) in &items {
        if !quantity.is_finite() || *quantity < 0.0 {
            return Some(format!("bad quantity {quantity} for {service}/{item}"));
        }
        if !dollars.is_finite() || *dollars < 0.0 {
            return Some(format!("bad charge ${dollars} for {service}/{item}"));
        }
        sum += dollars;
    }
    let total = ledger.total();
    let tolerance = 1e-9 * (1.0 + total.abs());
    if (total - sum).abs() > tolerance {
        return Some(format!(
            "ledger total ${total} != sum of line items ${sum}"
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

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
        use faasim::CloudProfile;
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
