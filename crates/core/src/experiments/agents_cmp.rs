//! Ablation A4 — what §4's "long-running, addressable virtual agents"
//! proposal buys: the same bully election run over the blackboard (the
//! FaaS reality) and over directly addressed agents (the §4 vision), plus
//! raw point-to-point message latency both ways.

use faasim_protocols::{
    build_directory, spawn_node, BullyConfig, ElectionObserver, NodeId, SocketTransport,
};
use faasim_simcore::{mbps, SimDuration};

use crate::cloud::CloudProfile;
use crate::experiments::clients::{plain, Backend, Run};
use crate::experiments::election::{self, failover_drill, mean_round, ElectionParams};
use crate::experiments::probe::ExperimentProbe;
use crate::report::{fmt_latency, fmt_ratio, Table};

/// Parameters of the comparison.
#[derive(Clone, Debug)]
pub struct AgentsCmpParams {
    /// Cluster size.
    pub nodes: u64,
    /// Leader kills measured per variant.
    pub rounds: usize,
    /// The `slices` of the agents side's [`failover_drill`]: the undisturbed
    /// cluster needs one.
    pub wait_slices: u32,
}

impl Default for AgentsCmpParams {
    fn default() -> Self {
        AgentsCmpParams { nodes: 10, rounds: 5, wait_slices: 1 }
    }
}

impl AgentsCmpParams {
    /// Reduced scale for tests.
    pub fn quick() -> AgentsCmpParams {
        AgentsCmpParams { nodes: 5, rounds: 2, wait_slices: 1 }
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
    plain(|run| {
        // Blackboard side: reuse E5 at matching scale.
        let bb = election::run_on(
            run,
            &ElectionParams {
                nodes: params.nodes,
                rounds: params.rounds,
                ..ElectionParams::default()
            },
            seed,
        );
        let agents_round = agents_side(run, params, seed + 100);
        AgentsCmpResult {
            blackboard_round: bb.mean_round,
            agents_round,
            probe: run.probe.clone(),
        }
    })
}

/// The agents side on any backend — socket transport with direct-network
/// timeouts — and its mean failover round. Lost protocol messages are the
/// bully timeouts' to absorb (a dropped answer looks like a dead peer and
/// the round re-runs); a wait that runs out is an entry in `run.failures`.
pub fn agents_side<B: Backend>(run: &mut Run<B>, params: &AgentsCmpParams, seed: u64) -> SimDuration {
    let (cloud, ..) = run.open(CloudProfile::aws_2018().exact(), seed);
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
    let windows = (SimDuration::from_secs(5), SimDuration::from_secs(10), SimDuration::from_secs(1));
    let (kills, slices) = (params.rounds, params.wait_slices);
    let (rounds, failures) =
        failover_drill(&cloud, &handles, &observer, kills, windows, slices, || ());
    run.fail("agents_cmp", failures);
    run.close("agents_cmp", &cloud);
    mean_round(&rounds)
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
