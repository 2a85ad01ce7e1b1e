//! Ablation A4 — what §4's "long-running, addressable virtual agents"
//! proposal buys: the same bully election run over the blackboard (the
//! FaaS reality) and over directly addressed agents (the §4 vision), plus
//! raw point-to-point message latency both ways.

use faasim_protocols::{
    build_directory, spawn_node, BullyConfig, ElectionObserver, NodeId, SocketTransport,
};
use faasim_simcore::{mbps, SimDuration};

use crate::cloud::{Cloud, CloudProfile};
use crate::experiments::election::{self, ElectionParams};
use crate::experiments::probe::ExperimentProbe;
use crate::report::{fmt_latency, fmt_ratio, Table};

/// Parameters of the comparison.
#[derive(Clone, Debug)]
pub struct AgentsCmpParams {
    /// Cluster size.
    pub nodes: u64,
    /// Leader kills measured per variant.
    pub rounds: usize,
}

impl Default for AgentsCmpParams {
    fn default() -> Self {
        AgentsCmpParams { nodes: 10, rounds: 5 }
    }
}

impl AgentsCmpParams {
    /// Reduced scale for tests.
    pub fn quick() -> AgentsCmpParams {
        AgentsCmpParams { nodes: 5, rounds: 2 }
    }
}

/// The comparison outcome.
#[derive(Clone, Debug)]
pub struct AgentsCmpResult {
    /// Mean failover round over the blackboard.
    pub blackboard_round: SimDuration,
    /// Mean failover round over addressable agents.
    pub agents_round: SimDuration,
    /// Byte-exact replay probe (blackboard cloud, then agents cloud).
    pub probe: ExperimentProbe,
}

impl AgentsCmpResult {
    /// Speedup of the agents variant.
    pub fn speedup(&self) -> f64 {
        self.blackboard_round.as_secs_f64() / self.agents_round.as_secs_f64()
    }

    /// Render.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Ablation: leader election, storage-mediated vs addressable agents (§4)",
            &["variant", "failover round", "vs agents"],
        );
        t.row(&[
            "blackboard (FaaS reality)".into(),
            fmt_latency(self.blackboard_round),
            fmt_ratio(self.speedup()),
        ]);
        t.row(&[
            "addressable agents (§4)".into(),
            fmt_latency(self.agents_round),
            "1.00\u{d7}".into(),
        ]);
        t.render()
    }
}

/// Run both variants.
pub fn run(params: &AgentsCmpParams, seed: u64) -> AgentsCmpResult {
    // Blackboard side: reuse E5 at matching scale.
    let bb = election::run(
        &ElectionParams {
            nodes: params.nodes,
            rounds: params.rounds,
            ..ElectionParams::default()
        },
        seed,
    );

    // Agents side: socket transport with direct-network timeouts.
    let cloud = Cloud::new(CloudProfile::aws_2018().exact(), seed + 100);
    let observer = ElectionObserver::new();
    let members: Vec<(NodeId, faasim_net::Host)> = (1..=params.nodes)
        .map(|id| {
            (
                id,
                cloud
                    .fabric
                    .add_host(0, faasim_net::NicConfig::simple(mbps(10_000.0))),
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
    cloud
        .sim
        .run_until(cloud.sim.now() + SimDuration::from_secs(5));
    assert_eq!(observer.current_leader(), Some(params.nodes));

    let mut rounds = Vec::new();
    let mut live_high = params.nodes;
    for _ in 0..params.rounds {
        if live_high <= 2 {
            break;
        }
        handles[(live_high - 1) as usize].kill();
        observer.mark_dead(live_high, cloud.sim.now());
        let before = observer.rounds().len();
        cloud
            .sim
            .run_until(cloud.sim.now() + SimDuration::from_secs(10));
        let after = observer.rounds();
        assert!(after.len() > before, "agents round did not complete");
        rounds.push(after.last().expect("round").duration());
        live_high -= 1;
    }
    for h in &handles {
        h.kill();
    }
    cloud
        .sim
        .run_until(cloud.sim.now() + SimDuration::from_secs(1));

    let agents_round = SimDuration::from_secs_f64(
        rounds.iter().map(|d| d.as_secs_f64()).sum::<f64>() / rounds.len().max(1) as f64,
    );
    let mut probe = bb.probe.clone();
    probe.capture(&cloud);
    AgentsCmpResult {
        blackboard_round: bb.mean_round,
        agents_round,
        probe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agents_beat_blackboard_by_an_order_of_magnitude() {
        let r = run(&AgentsCmpParams::quick(), 42);
        assert!(
            r.agents_round < SimDuration::from_secs(2),
            "agents round {}",
            r.agents_round
        );
        assert!(
            r.blackboard_round > SimDuration::from_secs(10),
            "blackboard round {}",
            r.blackboard_round
        );
        assert!(r.speedup() > 10.0, "speedup {}", r.speedup());
        assert!(r.render().contains("addressable agents"));
    }
}
