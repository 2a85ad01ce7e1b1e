//! Property tests for the §4 agents prototype: arbitrary interleavings of
//! spawn / request / migrate keep the directory consistent and requests
//! to live agents always succeed (possibly via the stale-cache retry).

use faasim_agents::AgentRuntime;
use faasim_net::{Fabric, NetProfile, NicConfig};
use faasim_payload::Payload;
use faasim_simcore::{mbps, Recorder, Sim, SimDuration};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Action {
    /// Request/reply from the prober to the named worker.
    Probe(usize),
    /// Migrate the named worker to a random host, with some state.
    Migrate(usize, u8, u32),
}

fn action_strategy(workers: usize, hosts: usize) -> impl Strategy<Value = Action> {
    prop_oneof![
        (0..workers).prop_map(Action::Probe),
        (0..workers, 0..hosts as u8, 0u32..200_000)
            .prop_map(|(w, h, bytes)| Action::Migrate(w, h, bytes)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn requests_survive_arbitrary_migrations(
        actions in prop::collection::vec(action_strategy(3, 4), 1..25),
    ) {
        let sim = Sim::new(12345);
        let recorder = Recorder::new();
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
        let hosts: Vec<_> = (0..4)
            .map(|r| fabric.add_host(r, NicConfig::simple(mbps(10_000.0))))
            .collect();
        let runtime = AgentRuntime::new(&sim, &fabric, recorder);

        // Three echo workers plus one prober.
        let mut workers = Vec::new();
        for w in 0..3 {
            let agent = runtime
                .spawn(&hosts[w % hosts.len()], &format!("worker-{w}"))
                .expect("spawn");
            workers.push(agent);
        }
        let prober = runtime.spawn(&hosts[3], "prober").expect("spawn");

        // Worker loops echo forever; migrations are driven via a channel
        // so each worker owns itself (migrate takes &mut self).
        let mut migrate_txs = Vec::new();
        for mut agent in workers {
            let (tx, mut rx) = faasim_simcore::channel::<(usize, u32)>();
            migrate_txs.push(tx);
            let hosts = hosts.clone();
            sim.spawn(async move {
                loop {
                    // Serve anything pending, then apply one migration if
                    // requested, then block on the next message.
                    while let Some((h, bytes)) = rx.try_recv() {
                        agent.migrate(&hosts[h], bytes as u64).await;
                    }
                    let msg = agent.recv().await;
                    // Echo requests; one-way nudges just wake the loop.
                    if matches!(msg.kind, faasim_net::Kind::Request(_)) {
                        agent.reply(&msg, msg.payload.clone()).await;
                    }
                }
            });
        }

        let sim2 = sim.clone();
        let ok = sim.block_on(async move {
            let mut all_ok = true;
            for action in actions {
                match action {
                    Action::Probe(w) => {
                        let name = format!("worker-{w}");
                        let got = prober
                            .request(&name, Payload::from_static(b"ping"))
                            .await;
                        if got.is_err() {
                            // One retry after the runtime-level retry: the
                            // worker may have been mid-migration.
                            sim2.sleep(SimDuration::from_millis(100)).await;
                            all_ok &= prober
                                .request(&name, Payload::from_static(b"ping"))
                                .await
                                .is_ok();
                        }
                    }
                    Action::Migrate(w, h, bytes) => {
                        let _ = migrate_txs[w].send((h as usize, bytes));
                        // Nudge the worker loop awake so it applies the
                        // migration before the next probe.
                        let _ = prober
                            .send(&format!("worker-{w}"), Payload::from_static(b"nudge"))
                            .await;
                        sim2.sleep(SimDuration::from_millis(50)).await;
                    }
                }
            }
            all_ok
        });
        prop_assert!(ok, "a probe to a live agent failed permanently");
        // The prober was dropped with the driver future (unregistering
        // itself); the three workers live on in their tasks.
        prop_assert_eq!(runtime.agent_count(), 3);
    }
}
