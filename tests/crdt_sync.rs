//! §3.2 made concrete: "disorderly" CRDT state converges even when every
//! exchange goes through the *eventually consistent* storage tier —
//! replicas gossip snapshots via the KV store, read with
//! `Consistency::Eventual` (so they may see arbitrarily stale states),
//! and still agree once writes quiesce. No coordination protocol, no
//! leader, no 16.7-second elections.

use faasim::kv::{Consistency, KvError, KvProfile};
use faasim::net::{Fabric, NetProfile, NicConfig};
use faasim::payload::Payload;
use faasim::pricing::{Ledger, PriceBook};
use faasim::protocols::{Crdt, GCounter};
use faasim::simcore::{mbps, LatencyModel, Recorder, Sim, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn gcounters_converge_through_eventually_consistent_storage() {
    let sim = Sim::new(55);
    let recorder = Recorder::new();
    let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
    // A deliberately laggy KV store: eventual reads can be 2 s stale.
    let mut profile = KvProfile::aws_2018().exact();
    profile.eventual_lag = LatencyModel::Constant(SimDuration::from_secs(2));
    let kv = faasim::kv::KvStore::new(
        &sim,
        profile,
        Rc::new(PriceBook::aws_2018()),
        Ledger::new(),
        recorder,
    );
    kv.create_table("crdt");

    let replicas = 4u64;
    let increments_each = 25u64;
    let states: Rc<RefCell<Vec<GCounter>>> =
        Rc::new(RefCell::new((0..replicas).map(|_| GCounter::new()).collect()));

    for r in 1..=replicas {
        let kv = kv.clone();
        let sim2 = sim.clone();
        let host = fabric.add_host(0, NicConfig::simple(mbps(1000.0)));
        let states = states.clone();
        sim.spawn(async move {
            let idx = (r - 1) as usize;
            let my_key = format!("replica-{r}");
            for step in 0..increments_each {
                // Local disorderly work...
                states.borrow_mut()[idx].increment(r, 1);
                // ...publish own snapshot (strong write),
                let snapshot = Payload::from(states.borrow()[idx].encode());
                kv.put(&host, "crdt", &my_key, snapshot).await.unwrap();
                // ...and gossip: merge a peer's (possibly very stale)
                // snapshot read with EVENTUAL consistency.
                let peer = (r + step) % replicas + 1;
                if peer != r {
                    match kv
                        .get(
                            &host,
                            "crdt",
                            &format!("replica-{peer}"),
                            Consistency::Eventual,
                        )
                        .await
                    {
                        Ok(item) => {
                            let other =
                                GCounter::decode(&item.value.bytes()).expect("valid snapshot");
                            states.borrow_mut()[idx].merge(&other);
                        }
                        Err(KvError::NoSuchKey(_)) => {} // peer not seen yet
                        Err(e) => panic!("kv error: {e}"),
                    }
                }
                sim2.sleep(SimDuration::from_millis(500)).await;
            }
            // Quiesce phase: publish final state, then keep gossiping
            // until everything has propagated.
            for round in 0..20u64 {
                let snapshot = Payload::from(states.borrow()[idx].encode());
                kv.put(&host, "crdt", &my_key, snapshot).await.unwrap();
                for peer in 1..=replicas {
                    if peer == r {
                        continue;
                    }
                    if let Ok(item) = kv
                        .get(
                            &host,
                            "crdt",
                            &format!("replica-{peer}"),
                            Consistency::Eventual,
                        )
                        .await
                    {
                        let other = GCounter::decode(&item.value.bytes()).expect("valid snapshot");
                        states.borrow_mut()[idx].merge(&other);
                    }
                }
                let _ = round;
                sim2.sleep(SimDuration::from_secs(1)).await;
            }
        });
    }
    sim.run();

    let states = states.borrow();
    let want = replicas * increments_each;
    for (i, s) in states.iter().enumerate() {
        assert_eq!(
            s.value(),
            want,
            "replica {i} did not converge: {} != {want}",
            s.value()
        );
    }
}
