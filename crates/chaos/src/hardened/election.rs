//! Hardened bully election over the KV blackboard, which under the
//! hostile plan throttles ~10 % of polls. The transport already
//! tolerates storage errors (a failed poll is a missed beat).
//! Invariant: liveness under brownout — the cluster still elects the
//! highest id, and every leader kill still completes a failover round,
//! inside a generous but bounded convergence budget.

use faasim::protocols::{
    spawn_node, BlackboardTransport, BullyConfig, ElectionObserver, NodeHandle, NodeId,
};
use faasim::Cloud;
use faasim_net::NicConfig;
use faasim_simcore::{mbps, SimDuration};

use super::Harness;
use crate::faults::FaultPlan;
use crate::sweep::RunReport;

pub(super) const NODES: u64 = 5;
const ROUNDS: usize = 2;

pub(super) fn run(plan: &FaultPlan, seed: u64) -> RunReport {
    let mut h = Harness::new(plan);
    let cloud = h.cloud(seed);
    BlackboardTransport::setup(&cloud.kv);
    let observer = ElectionObserver::new();
    let poll = SimDuration::from_millis(250);
    let cfg = BullyConfig::blackboard_2018();
    let members: Vec<NodeId> = (1..=NODES).collect();
    let mut handles = Vec::new();
    for &id in &members {
        let host = cloud.fabric.add_host(0, NicConfig::simple(mbps(1_000.0)));
        let t = BlackboardTransport::new(&cloud.sim, &cloud.kv, host, id, &members, poll);
        handles.push(spawn_node(&cloud.sim, t, cfg.clone(), observer.clone()));
    }
    // Throttling stretches rounds, so the blackboard gets long slices.
    let slices = (SimDuration::from_secs(30), SimDuration::from_secs(60));
    failover_drill(&mut h, "election", &cloud, &handles, &observer, slices);
    h.finish()
}

/// The drill both election workloads run on a cluster of [`NODES`]
/// freshly spawned nodes: converge on the highest id, kill the sitting
/// leader [`ROUNDS`] times and wait for each failover round, then stop
/// every node and close the cloud. The observer is polled in slices
/// (`converge`, then `failover` per round, twenty of each at most) so a
/// snapshot taken mid-round doesn't flake.
pub(super) fn failover_drill(
    h: &mut Harness<'_>,
    scope: &str,
    cloud: &Cloud,
    handles: &[NodeHandle],
    observer: &ElectionObserver,
    (converge, failover): (SimDuration, SimDuration),
) {
    let mut converged = false;
    for _ in 0..20 {
        cloud.sim.run_until(cloud.sim.now() + converge);
        if observer.current_leader() == Some(NODES) {
            converged = true;
            break;
        }
    }
    h.check(converged, || {
        format!(
            "{scope}: no initial leader within budget (got {:?})",
            observer.current_leader()
        )
    });

    let mut live_high = NODES;
    for round in 0..ROUNDS {
        if live_high <= 2 {
            break;
        }
        handles[(live_high - 1) as usize].kill();
        observer.mark_dead(live_high, cloud.sim.now());
        let before = observer.rounds().len();
        let mut completed = false;
        for _ in 0..20 {
            cloud.sim.run_until(cloud.sim.now() + failover);
            if observer.rounds().len() > before {
                completed = true;
                break;
            }
        }
        h.check(completed, || {
            format!("{scope}: failover round {round} did not complete after killing {live_high}")
        });
        live_high -= 1;
    }
    for node in handles {
        node.kill();
    }
    // A bounded settle, not a drain to quiescence: the golden digests
    // pin the run as of five seconds after the last kill.
    cloud
        .sim
        .run_until(cloud.sim.now() + SimDuration::from_secs(5));
    h.close(scope, cloud);
}
