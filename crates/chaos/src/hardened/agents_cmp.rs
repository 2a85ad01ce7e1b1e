//! Hardened addressable-agents election: direct socket messaging under
//! the hostile plan's packet loss and delay spikes. Lost protocol
//! messages are absorbed by the bully timeouts (a dropped answer looks
//! like a dead peer and the round re-runs). Invariant: liveness — the
//! cluster elects the highest id and completes every failover round
//! within a bounded budget — and the fabric accounts for every message
//! it accepted, the chaos-dropped ones included.

use faasim::protocols::{
    build_directory, spawn_node, BullyConfig, ElectionObserver, NodeId, SocketTransport,
};
use faasim_net::{Host, NicConfig};
use faasim_simcore::{mbps, SimDuration};

use super::election::{failover_drill, NODES};
use super::Harness;
use crate::faults::FaultPlan;
use crate::sweep::RunReport;

pub(super) fn run(plan: &FaultPlan, seed: u64) -> RunReport {
    let mut h = Harness::new(plan);
    let cloud = h.cloud(seed);
    let observer = ElectionObserver::new();
    let members: Vec<(NodeId, Host)> = (1..=NODES)
        .map(|id| {
            (
                id,
                cloud.fabric.add_host(0, NicConfig::simple(mbps(10_000.0))),
            )
        })
        .collect();
    let dir = build_directory(&members);
    let mut handles = Vec::new();
    for (id, host) in &members {
        let t = SocketTransport::new(&cloud.fabric, host, *id, dir.clone());
        handles.push(spawn_node(
            &cloud.sim,
            t,
            BullyConfig::direct(),
            observer.clone(),
        ));
    }
    let slice = SimDuration::from_secs(15);
    failover_drill(
        &mut h,
        "agents_cmp",
        &cloud,
        &handles,
        &observer,
        (slice, slice),
    );
    h.finish()
}
