//! Property-based tests over the workspace's core invariants.

use faasim::payload::Payload;
use proptest::prelude::*;

use faasim::faas::{decode_batch, encode_batch};
use faasim::ml::{Mlp, SparseVec, Trainer};
use faasim::pricing::{format_dollars, Ledger, Service};
use faasim::queue::{QueueConfig, QueueService};
use faasim::simcore::{mbps, FairShareLink, Sim, SimDuration};

// ---------------------------------------------------------------------------
// Fair-share link: work conservation and cap respect
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With N equal uncapped flows, all complete together at exactly
    /// total_bytes / capacity, regardless of N (work conservation).
    #[test]
    fn link_is_work_conserving(
        n in 1usize..24,
        kb in 1u64..500,
        cap_mbps in 1.0f64..1000.0,
    ) {
        let sim = Sim::new(1);
        let link = FairShareLink::new(&sim, mbps(cap_mbps));
        for _ in 0..n {
            let l = link.clone();
            sim.spawn(async move { l.transfer(kb * 1000, None).await });
        }
        sim.run();
        let want = (n as f64) * (kb * 1000) as f64 * 8.0 / mbps(cap_mbps);
        let got = sim.now().as_secs_f64();
        prop_assert!((got - want).abs() < want * 1e-6 + 1e-6,
            "{n} flows took {got}, want {want}");
    }

    /// A per-flow cap is never exceeded: a capped flow alone on a large
    /// link finishes no faster than bytes/cap.
    #[test]
    fn link_respects_per_flow_cap(
        kb in 1u64..500,
        cap_mbps in 1.0f64..100.0,
    ) {
        let sim = Sim::new(2);
        let link = FairShareLink::new(&sim, mbps(10_000.0));
        let l = link.clone();
        sim.block_on(async move { l.transfer(kb * 1000, Some(mbps(cap_mbps))).await });
        let floor = (kb * 1000) as f64 * 8.0 / mbps(cap_mbps);
        prop_assert!(sim.now().as_secs_f64() >= floor - 1e-9);
    }

    /// Flows arriving at staggered times all finish, and the link ends
    /// empty.
    #[test]
    fn link_staggered_arrivals_all_finish(
        offsets in prop::collection::vec(0u64..1000, 1..16),
    ) {
        let sim = Sim::new(3);
        let link = FairShareLink::new(&sim, mbps(100.0));
        let n = offsets.len();
        let done = std::rc::Rc::new(std::cell::Cell::new(0usize));
        for off in offsets {
            let l = link.clone();
            let s = sim.clone();
            let d = done.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_millis(off)).await;
                l.transfer(50_000, None).await;
                d.set(d.get() + 1);
            });
        }
        sim.run();
        prop_assert_eq!(done.get(), n);
        prop_assert_eq!(link.active_flows(), 0);
    }
}

// ---------------------------------------------------------------------------
// Queue service: at-least-once, receipts, batch caps
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every sent message is eventually received at least once, and after
    /// deletion nothing remains.
    #[test]
    fn queue_delivers_everything_exactly_once_when_acked(
        bodies in prop::collection::vec(0u8..255, 1..40),
    ) {
        let sim = Sim::new(4);
        let recorder = faasim::simcore::Recorder::new();
        let fabric = faasim::net::Fabric::new(
            &sim,
            faasim::net::NetProfile::aws_2018().exact(),
            recorder.clone(),
        );
        let host = fabric.add_host(0, faasim::net::NicConfig::simple(mbps(1000.0)));
        let svc = QueueService::new(
            &sim,
            faasim::queue::QueueProfile::aws_2018().exact(),
            std::rc::Rc::new(faasim::pricing::PriceBook::aws_2018()),
            Ledger::new(),
            recorder,
        );
        svc.create_queue("q", QueueConfig::default());
        let n = bodies.len();
        let want = {
            let mut w = bodies.clone();
            w.sort_unstable();
            w
        };
        let got = sim.block_on({
            let svc = svc.clone();
            async move {
                for b in &bodies {
                    svc.send(&host, "q", Payload::from(vec![*b])).await.unwrap();
                }
                let mut got = Vec::new();
                while got.len() < n {
                    let batch = svc
                        .receive(&host, "q", 10, SimDuration::from_secs(1))
                        .await
                        .unwrap();
                    let receipts: Vec<_> =
                        batch.iter().map(|m| m.receipt.clone()).collect();
                    got.extend(batch.into_iter().map(|m| m.body.bytes()[0]));
                    svc.delete_batch(&host, receipts).await.unwrap();
                }
                got
            }
        });
        let mut have = got;
        have.sort_unstable();
        prop_assert_eq!(want, have);
        prop_assert_eq!(svc.queue_len("q"), 0);
    }

    /// Unacked messages always come back; receive_count grows monotonic.
    #[test]
    fn queue_redelivers_unacked(receives in 1u32..5) {
        let sim = Sim::new(5);
        let recorder = faasim::simcore::Recorder::new();
        let fabric = faasim::net::Fabric::new(
            &sim,
            faasim::net::NetProfile::aws_2018().exact(),
            recorder.clone(),
        );
        let host = fabric.add_host(0, faasim::net::NicConfig::simple(mbps(1000.0)));
        let svc = QueueService::new(
            &sim,
            faasim::queue::QueueProfile::aws_2018().exact(),
            std::rc::Rc::new(faasim::pricing::PriceBook::aws_2018()),
            Ledger::new(),
            recorder,
        );
        svc.create_queue(
            "q",
            QueueConfig {
                visibility_timeout: SimDuration::from_millis(200),
                dead_letter: None,
            },
        );
        let counts = sim.block_on({
            let svc = svc.clone();
            async move {
                svc.send(&host, "q", Payload::from_static(b"x")).await.unwrap();
                let mut counts = Vec::new();
                for _ in 0..receives {
                    let got = svc
                        .receive(&host, "q", 1, SimDuration::from_secs(2))
                        .await
                        .unwrap();
                    counts.push(got[0].receive_count);
                    // never delete
                }
                counts
            }
        });
        let want: Vec<u32> = (1..=receives).collect();
        prop_assert_eq!(counts, want);
    }
}

// ---------------------------------------------------------------------------
// Socket layer: message conservation
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every sent datagram is accounted for exactly once: delivered,
    /// dropped (dead host / unbound port), or partitioned — no message
    /// vanishes and none is double-counted.
    #[test]
    fn sockets_conserve_messages(
        plan in prop::collection::vec((0usize..4, 0usize..4, any::<bool>()), 1..60),
        partition_at in 0usize..40,
    ) {
        let sim = faasim::simcore::Sim::new(6);
        let recorder = faasim::simcore::Recorder::new();
        let fabric = faasim::net::Fabric::new(
            &sim,
            faasim::net::NetProfile::aws_2018().exact(),
            recorder.clone(),
        );
        let hosts: Vec<faasim::net::Host> = (0..4)
            .map(|i| fabric.add_host(i as u32 % 2, faasim::net::NicConfig::simple(mbps(1000.0))))
            .collect();
        // Bind sockets on hosts 0..3; port 9 on host 3 stays unbound.
        let socks: Vec<_> = hosts
            .iter()
            .map(|h| fabric.bind(h, 1).expect("bind"))
            .collect();
        let n = plan.len() as u64;
        let sim2 = sim.clone();
        let fabric2 = fabric.clone();
        let h0 = hosts[0].id();
        let h1 = hosts[1].id();
        sim.block_on(async move {
            for (step, (from, to, to_ghost)) in plan.into_iter().enumerate() {
                if step == partition_at {
                    fabric2.partition(&[h0], &[h1]);
                }
                let to_addr = if to_ghost {
                    faasim::net::Addr { host: hosts[to].id(), port: 9 }
                } else {
                    socks[to].addr()
                };
                socks[from].send(to_addr, Payload::from_static(b"m")).await;
            }
            // Let everything in flight land.
            sim2.sleep(SimDuration::from_secs(1)).await;
        });
        let sent = recorder.counter("net.messages_sent");
        let delivered = recorder.counter("net.messages_delivered");
        let dropped = recorder.counter("net.messages_dropped");
        let partitioned = recorder.counter("net.messages_partitioned");
        prop_assert_eq!(sent, n);
        prop_assert_eq!(delivered + dropped + partitioned, sent);
        // Self-sends and intact paths must actually deliver.
        prop_assert!(delivered + dropped + partitioned > 0);
    }
}

// ---------------------------------------------------------------------------
// Batch codec, pricing, ML
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_roundtrips(batches in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..200), 0..12)) {
        let items: Vec<faasim::payload::Payload> =
            batches.into_iter().map(faasim::payload::Payload::from).collect();
        let encoded = encode_batch(&items);
        prop_assert_eq!(decode_batch(&encoded), Some(items));
    }

    #[test]
    fn codec_rejects_truncation(batches in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 1..50), 1..6), cut in 1usize..8) {
        let items: Vec<faasim::payload::Payload> =
            batches.into_iter().map(faasim::payload::Payload::from).collect();
        let encoded = encode_batch(&items);
        let cut = cut.min(encoded.len() - 1).max(1);
        let truncated = encoded.slice(0..encoded.len() - cut);
        prop_assert_eq!(decode_batch(&truncated), None);
    }

    /// Ledger totals are non-negative, additive, and formatting never
    /// panics.
    #[test]
    fn ledger_is_additive(charges in prop::collection::vec(
        (0u8..5, 0.0f64..10.0), 0..50)) {
        let ledger = Ledger::new();
        let mut sum = 0.0;
        for (svc, amount) in charges {
            let service = match svc {
                0 => Service::Faas,
                1 => Service::Blob,
                2 => Service::Kv,
                3 => Service::Queue,
                _ => Service::Compute,
            };
            ledger.charge(service, "item", 1.0, amount);
            sum += amount;
        }
        prop_assert!((ledger.total() - sum).abs() < 1e-9);
        let _ = format_dollars(ledger.total());
        let parts: f64 = [
            Service::Faas,
            Service::Blob,
            Service::Kv,
            Service::Queue,
            Service::Compute,
            Service::Other,
        ]
        .iter()
        .map(|&s| ledger.total_for(s))
        .sum();
        prop_assert!((parts - sum).abs() < 1e-9);
    }

    /// MLP forward is finite for arbitrary (finite) sparse inputs, and an
    /// Adam step never produces non-finite parameters.
    #[test]
    fn mlp_is_numerically_robust(
        entries in prop::collection::vec((0u32..50, -5.0f32..5.0), 0..20),
        y in -5.0f32..5.0,
    ) {
        let x = SparseVec::from_pairs(entries);
        let mlp = Mlp::new(&[50, 8, 1], 1);
        let pred = mlp.predict(&x);
        prop_assert!(pred.is_finite());
        let mut t = Trainer::new(&[50, 8, 1], 0.01, 2);
        t.train_batch(&[x], &[y]);
        for layer in &t.model.layers {
            prop_assert!(layer.w.iter().all(|w| w.is_finite()));
            prop_assert!(layer.b.iter().all(|b| b.is_finite()));
        }
    }

    /// Executor determinism under arbitrary task/sleep structures: two
    /// runs of the same random program produce identical event orders.
    #[test]
    fn executor_deterministic_for_random_programs(
        sleeps in prop::collection::vec(
            prop::collection::vec(0u64..1_000, 1..12), 1..8),
    ) {
        fn trace(sleeps: &[Vec<u64>]) -> Vec<(u64, usize)> {
            let sim = Sim::new(1);
            let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            for (task, ds) in sleeps.iter().enumerate() {
                let s = sim.clone();
                let log = log.clone();
                let ds = ds.clone();
                sim.spawn(async move {
                    for d in ds {
                        s.sleep(SimDuration::from_micros(d)).await;
                        log.borrow_mut().push((s.now().as_nanos(), task));
                    }
                });
            }
            sim.run();
            let out = log.borrow().clone();
            out
        }
        prop_assert_eq!(trace(&sleeps), trace(&sleeps));
    }
}
