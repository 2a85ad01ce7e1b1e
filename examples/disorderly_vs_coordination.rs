//! §3.2's argument, staged as a failure drill: a network partition hits a
//! cluster that is simultaneously running
//!
//! 1. **coordination** (bully leader election over direct messaging), and
//! 2. **disorderly state** (CRDT counters gossiped between the same hosts).
//!
//! The election split-brains — each side elects its own leader, and no
//! quorum machinery exists to stop it. The counters don't care: replicas
//! keep accepting increments on both sides, and a single round of gossip
//! after healing makes every replica exact. "This kind of 'disorderly'
//! loosely-consistent model" is the paper's §3.2 candidate for programs
//! that should survive a platform with no reliable coordination.
//!
//! ```text
//! cargo run --release --example disorderly_vs_coordination
//! ```

use faasim::net::{Fabric, NicConfig};
use faasim::payload::Payload;
use faasim::protocols::{
    build_directory, spawn_node, BullyConfig, Crdt, ElectionObserver, GCounter, SocketTransport,
};
use faasim::simcore::{mbps, SimDuration};
use faasim::{Cloud, CloudProfile};
use std::cell::RefCell;
use std::rc::Rc;

const NODES: u64 = 6;

fn main() {
    let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 99);
    let fabric: &Fabric = &cloud.fabric;

    // Six hosts; each runs an election participant AND a counter replica.
    let members: Vec<(u64, faasim::net::Host)> = (1..=NODES)
        .map(|id| (id, fabric.add_host(0, NicConfig::simple(mbps(10_000.0)))))
        .collect();
    let dir = build_directory(&members);
    let observer = ElectionObserver::new();
    let mut handles = Vec::new();
    for (id, host) in &members {
        let t = SocketTransport::new(fabric, host, *id, dir.clone());
        handles.push(spawn_node(
            &cloud.sim,
            t,
            BullyConfig::direct(),
            observer.clone(),
        ));
    }

    // Counter replicas gossip over their own sockets every 200 ms.
    let counters: Rc<RefCell<Vec<GCounter>>> =
        Rc::new(RefCell::new((0..NODES).map(|_| GCounter::new()).collect()));
    let mut gossip_addrs = Vec::new();
    let mut gossip_socks = Vec::new();
    for (_, host) in &members {
        let sock = fabric.bind(host, 9100).expect("bind gossip");
        gossip_addrs.push(sock.addr());
        gossip_socks.push(sock);
    }
    for (i, sock) in gossip_socks.into_iter().enumerate() {
        let sim = cloud.sim.clone();
        let counters = counters.clone();
        let addrs = gossip_addrs.clone();
        cloud.sim.spawn(async move {
            let replica = (i + 1) as u64;
            let mut rng = sim.rng(&format!("gossip-{i}"));
            for _round in 0..3_000u32 {
                // Local disorderly work: a few increments.
                counters.borrow_mut()[i].increment(replica, 1);
                // Push state to one random peer; absorb anything received.
                let peer = rng.range_usize(0..addrs.len());
                if peer != i {
                    let snapshot = Payload::from(counters.borrow()[i].encode());
                    sock.send(addrs[peer], snapshot).await;
                }
                while let Some(msg) = sock.try_recv() {
                    if let Some(other) = GCounter::decode(&msg.payload.bytes()) {
                        counters.borrow_mut()[i].merge(&other);
                    }
                }
                sim.sleep(SimDuration::from_millis(200)).await;
            }
            // Quiesce: a few rounds of full broadcast so every replica's
            // final state reaches everyone.
            for _ in 0..4 {
                let snapshot = Payload::from(counters.borrow()[i].encode());
                for (peer, &addr) in addrs.iter().enumerate() {
                    if peer != i {
                        sock.send(addr, snapshot.clone()).await;
                    }
                }
                sim.sleep(SimDuration::from_millis(500)).await;
                while let Some(msg) = sock.try_recv() {
                    if let Some(other) = GCounter::decode(&msg.payload.bytes()) {
                        counters.borrow_mut()[i].merge(&other);
                    }
                }
            }
        });
    }

    cloud.sim.run_until(cloud.sim.now() + SimDuration::from_secs(10));
    println!("t=10s   : leader = node {:?}, all counters converging", observer.current_leader().expect("elected"));

    // Partition: {1,2,3} | {4,5,6} for 60 seconds.
    let side_a: Vec<_> = members[..3].iter().map(|(_, h)| h.id()).collect();
    let side_b: Vec<_> = members[3..].iter().map(|(_, h)| h.id()).collect();
    fabric.partition(&side_a, &side_b);
    cloud.sim.run_until(cloud.sim.now() + SimDuration::from_secs(60));
    let views = observer.views();
    println!("\n-- during the partition --");
    println!(
        "election : split brain! views = {:?}",
        views.iter().map(|(id, _, v)| (*id, v.unwrap_or(0))).collect::<Vec<_>>()
    );
    {
        let cs = counters.borrow();
        let values: Vec<u64> = cs.iter().map(|c| c.value()).collect();
        println!(
            "counters : replicas disagree transiently ({:?}) but every increment is safe",
            values
        );
    }

    // Heal and settle.
    fabric.heal_partition();
    cloud.sim.run_until(cloud.sim.now() + SimDuration::from_secs(20));
    println!("\n-- after healing --");
    let views = observer.views();
    println!(
        "election : usurper stood down; views = {:?}",
        views.iter().map(|(id, _, v)| (*id, v.unwrap_or(0))).collect::<Vec<_>>()
    );
    for h in &handles {
        h.kill();
    }
    cloud.sim.run();
    let cs = counters.borrow();
    let values: Vec<u64> = cs.iter().map(|c| c.value()).collect();
    assert!(
        values.iter().all(|&v| v == values[0]),
        "replicas failed to converge: {values:?}"
    );
    assert_eq!(values[0], NODES * 3_000, "an increment was lost");
    println!("counters : all replicas equal = true");
    println!("           final value {} = every increment from both sides of the partition", values[0]);
    println!(
        "\ncoordination needed the partition to end AND a protocol to notice;\n\
         the disorderly counters never stopped and converged for free — §3.2's\n\
         'can limitations set us free?' answered with running code."
    );
}
