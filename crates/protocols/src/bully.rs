//! Garcia-Molina's bully leader election [7 in the paper], the protocol
//! the paper uses as its distributed-computing case study: "we implemented
//! one of the simplest of these protocols ... Garcia-Molina's bully leader
//! election. Using Lambda, all communication between our functions was
//! done in blackboard fashion via DynamoDB."
//!
//! The node logic is transport-generic: the same state machine runs over
//! the KV blackboard (polling) and over direct sockets, which is exactly
//! the comparison the paper's §4 "addressable virtual agents" proposal
//! implies.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use faasim_simcore::{Sim, SimDuration, SimTime};

use crate::message::{ElectionMsg, NodeId};
use crate::transport::Transport;

/// Timing parameters of the protocol.
#[derive(Clone, Debug)]
pub struct BullyConfig {
    /// How often the leader signals liveness.
    pub heartbeat_interval: SimDuration,
    /// Silence after which followers suspect the leader and start an
    /// election.
    pub heartbeat_timeout: SimDuration,
    /// How long an initiator waits for `Answer`s before declaring itself.
    pub answer_timeout: SimDuration,
    /// How long to wait for the `Coordinator` announcement after being
    /// outranked, before restarting the election.
    pub coordinator_timeout: SimDuration,
}

impl BullyConfig {
    /// Calibrated for the blackboard transport at the paper's 4 Hz poll
    /// rate. Conservative timeouts sized in whole polling windows; with
    /// ~8 s detection + 8 s answer window + broadcast, a full failover
    /// lands at the paper's ~16.7 s per election round.
    pub fn blackboard_2018() -> BullyConfig {
        BullyConfig {
            heartbeat_interval: SimDuration::from_secs(2),
            heartbeat_timeout: SimDuration::from_millis(9_500),
            answer_timeout: SimDuration::from_secs(8),
            coordinator_timeout: SimDuration::from_secs(8),
        }
    }

    /// Aggressive timings for directly addressed agents (sub-millisecond
    /// RTTs make hundred-millisecond failure detection safe).
    pub fn direct() -> BullyConfig {
        BullyConfig {
            heartbeat_interval: SimDuration::from_millis(100),
            heartbeat_timeout: SimDuration::from_millis(400),
            answer_timeout: SimDuration::from_millis(100),
            coordinator_timeout: SimDuration::from_millis(200),
        }
    }

    /// Scale every timeout by `k` (for sensitivity sweeps).
    pub fn scaled(&self, k: f64) -> BullyConfig {
        BullyConfig {
            heartbeat_interval: self.heartbeat_interval.mul_f64(k),
            heartbeat_timeout: self.heartbeat_timeout.mul_f64(k),
            answer_timeout: self.answer_timeout.mul_f64(k),
            coordinator_timeout: self.coordinator_timeout.mul_f64(k),
        }
    }
}

/// Shared observer: tracks each node's current leader view and detects
/// when every live node agrees on the highest live id (a completed
/// election round).
#[derive(Clone, Default)]
pub struct ElectionObserver {
    inner: Rc<RefCell<ObserverInner>>,
}

#[derive(Default)]
struct ObserverInner {
    views: BTreeMap<NodeId, Option<NodeId>>,
    live: BTreeMap<NodeId, bool>,
    rounds: Vec<CompletedRound>,
    round_open_since: Option<SimTime>,
}

/// One completed election: when consensus was disturbed and when every
/// live node agreed again.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CompletedRound {
    /// When agreement was first disturbed (node joined/failed/view reset).
    pub started_at: SimTime,
    /// When every live node agreed on the (correct) leader.
    pub completed_at: SimTime,
    /// The elected leader.
    pub leader: NodeId,
}

impl CompletedRound {
    /// Round duration.
    pub fn duration(&self) -> SimDuration {
        self.completed_at - self.started_at
    }
}

impl ElectionObserver {
    /// A fresh observer.
    pub fn new() -> ElectionObserver {
        ElectionObserver::default()
    }

    /// Register a participant (initially with no leader view).
    pub fn register(&self, node: NodeId, now: SimTime) {
        let mut st = self.inner.borrow_mut();
        st.views.insert(node, None);
        st.live.insert(node, true);
        st.round_open_since.get_or_insert(now);
    }

    /// Mark a node dead (its view no longer counts toward agreement).
    pub fn mark_dead(&self, node: NodeId, now: SimTime) {
        let mut st = self.inner.borrow_mut();
        st.live.insert(node, false);
        // Killing the leader (or any node) disturbs agreement.
        if st.round_open_since.is_none() {
            st.round_open_since = Some(now);
        }
        drop(st);
        self.check_agreement(now);
    }

    /// A node reports its current leader view.
    pub fn report(&self, node: NodeId, leader: Option<NodeId>, now: SimTime) {
        {
            let mut st = self.inner.borrow_mut();
            st.views.insert(node, leader);
            if st.round_open_since.is_none() {
                st.round_open_since = Some(now);
            }
        }
        self.check_agreement(now);
    }

    fn check_agreement(&self, now: SimTime) {
        let mut st = self.inner.borrow_mut();
        let Some(started_at) = st.round_open_since else {
            return;
        };
        let expected: Option<NodeId> = st
            .live
            .iter()
            .filter(|(_, &alive)| alive)
            .map(|(&id, _)| id)
            .max();
        let Some(expected) = expected else { return };
        let agreed = st
            .live
            .iter()
            .filter(|(_, &alive)| alive)
            .all(|(id, _)| st.views.get(id) == Some(&Some(expected)));
        if agreed {
            st.rounds.push(CompletedRound {
                started_at,
                completed_at: now,
                leader: expected,
            });
            st.round_open_since = None;
        }
    }

    /// All completed rounds so far.
    pub fn rounds(&self) -> Vec<CompletedRound> {
        self.inner.borrow().rounds.clone()
    }

    /// Current `(node, live, leader-view)` snapshot, for diagnostics.
    pub fn views(&self) -> Vec<(NodeId, bool, Option<NodeId>)> {
        let st = self.inner.borrow();
        st.views
            .iter()
            .map(|(&id, &view)| (id, st.live.get(&id).copied().unwrap_or(false), view))
            .collect()
    }

    /// The current agreed leader, if any round has completed.
    pub fn current_leader(&self) -> Option<NodeId> {
        self.inner.borrow().rounds.last().map(|r| r.leader)
    }

    /// Total time agreement was disturbed within `[from, to]`: completed
    /// rounds clipped to the window, plus any disturbance still open at
    /// `to`.
    pub fn disturbed_time(&self, from: SimTime, to: SimTime) -> SimDuration {
        let st = self.inner.borrow();
        let mut total = SimDuration::ZERO;
        for r in &st.rounds {
            if r.completed_at <= from || r.started_at >= to {
                continue;
            }
            let start = r.started_at.max(from);
            let end = r.completed_at.min(to);
            total += end - start;
        }
        if let Some(open) = st.round_open_since {
            if open < to {
                total += to - open.max(from);
            }
        }
        total
    }
}

/// Control handle for a running node.
#[derive(Clone)]
pub struct NodeHandle {
    stop: Rc<Cell<bool>>,
    stop_notify: faasim_simcore::Notify,
    id: NodeId,
}

impl NodeHandle {
    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Crash the node immediately: it stops participating mid-await (and
    /// stops heartbeating if it was the leader). A crashed node never
    /// consumes another message — important when a successor with the
    /// same identity takes over the inbox.
    pub fn kill(&self) {
        self.stop.set(true);
        self.stop_notify.notify_all();
    }
}

enum Phase {
    Idle,
    AwaitAnswer { deadline: SimTime },
    AwaitCoordinator { deadline: SimTime },
}

/// Run one bully participant until killed. Spawn one per node.
pub fn spawn_node<T: Transport + 'static>(
    sim: &Sim,
    transport: T,
    cfg: BullyConfig,
    observer: ElectionObserver,
) -> NodeHandle {
    let stop = Rc::new(Cell::new(false));
    let stop_notify = faasim_simcore::Notify::new();
    let handle = NodeHandle {
        stop: stop.clone(),
        stop_notify: stop_notify.clone(),
        id: transport.node_id(),
    };
    observer.register(transport.node_id(), sim.now());
    let sim2 = sim.clone();
    sim.spawn(run_node(sim2, transport, cfg, observer, stop, stop_notify));
    handle
}

async fn run_node<T: Transport>(
    sim: Sim,
    mut transport: T,
    cfg: BullyConfig,
    observer: ElectionObserver,
    stop: Rc<Cell<bool>>,
    stop_notify: faasim_simcore::Notify,
) {
    let me = transport.node_id();
    let peers = transport.peers();
    let higher: Vec<NodeId> = peers.iter().copied().filter(|&p| p > me).collect();
    let lower: Vec<NodeId> = peers.iter().copied().filter(|&p| p < me).collect();

    let mut leader: Option<NodeId> = None;
    let mut phase = Phase::Idle;
    let mut next_heartbeat = sim.now();
    let mut start_election = true;
    let mut epoch: u64 = 0;
    // Freshest evidence that the current leader is alive: its heartbeat
    // or a Coordinator announcement.
    let mut leader_seen_at = sim.now();

    loop {
        if stop.get() {
            return;
        }

        if start_election {
            start_election = false;
            leader = None;
            epoch += 1;
            observer.report(me, None, sim.now());
            for &h in &higher {
                transport
                    .send(h, ElectionMsg::Election { from: me, epoch })
                    .await;
            }
            // Wait out the full answer window even when no higher peer is
            // known: a conservative implementation cannot trust its
            // membership view (peers may be mid-restart), and this is the
            // behaviour implied by the paper's measured 16.7 s rounds.
            phase = Phase::AwaitAnswer {
                deadline: sim.now() + cfg.answer_timeout,
            };
            continue;
        }

        // Pick the next deadline this node cares about.
        let deadline = match phase {
            Phase::AwaitAnswer { deadline } | Phase::AwaitCoordinator { deadline } => deadline,
            Phase::Idle => {
                if leader == Some(me) {
                    next_heartbeat
                } else {
                    if let Some((id, at)) = transport.last_heartbeat() {
                        if Some(id) == leader && at > leader_seen_at {
                            leader_seen_at = at;
                        }
                    }
                    leader_seen_at + cfg.heartbeat_timeout
                }
            }
        };

        let wait = deadline.duration_since(sim.now());
        let event = if wait.is_zero() {
            None // deadline already due
        } else {
            // Race the kill switch so a crashed node stops mid-await and
            // cannot consume messages meant for its successor.
            match faasim_simcore::select2(
                stop_notify.notified(),
                sim.timeout(wait, transport.recv()),
            )
            .await
            {
                faasim_simcore::Either::Left(()) => return,
                faasim_simcore::Either::Right(ev) => ev,
            }
        };
        if stop.get() {
            return; // killed while the event was in flight: do not act on it
        }

        match event {
            Some(Some((from, msg))) => match msg {
                ElectionMsg::Election {
                    epoch: their_epoch, ..
                } => {
                    if from < me {
                        transport
                            .send(
                                from,
                                ElectionMsg::Answer {
                                    from: me,
                                    epoch: their_epoch,
                                },
                            )
                            .await;
                        if leader == Some(me) {
                            // A sitting leader re-announces instead of
                            // re-electing; rerunning the whole election
                            // would silence its heartbeats for a full
                            // answer window and let followers' suspicion
                            // restart the cycle (an election storm).
                            transport
                                .send(from, ElectionMsg::Coordinator { from: me })
                                .await;
                            transport.broadcast_heartbeat().await;
                        } else if matches!(phase, Phase::Idle) {
                            start_election = true;
                        }
                    }
                }
                ElectionMsg::Answer {
                    epoch: answered, ..
                } => {
                    // Only an answer to *this* attempt counts; stale
                    // answers from storage are ignored (see message docs).
                    if answered == epoch && matches!(phase, Phase::AwaitAnswer { .. }) {
                        phase = Phase::AwaitCoordinator {
                            deadline: sim.now() + cfg.coordinator_timeout,
                        };
                    }
                }
                ElectionMsg::Coordinator { from: new_leader } => {
                    if new_leader >= me {
                        leader = Some(new_leader);
                        phase = Phase::Idle;
                        // The announcement itself is liveness evidence.
                        leader_seen_at = sim.now();
                        observer.report(me, leader, sim.now());
                    } else {
                        // An inferior node claims leadership: challenge it.
                        start_election = true;
                    }
                }
                ElectionMsg::Heartbeat { .. } => {
                    // Socket transports consume these internally; tolerate
                    // transports that surface them anyway.
                }
            },
            Some(None) => return, // transport closed
            None => {
                // Deadline fired.
                if stop.get() {
                    return;
                }
                match phase {
                    Phase::AwaitAnswer { .. } => {
                        // Nobody outranked us in time.
                        declare_self(&sim, &transport, &lower, &observer, &mut leader).await;
                        phase = Phase::Idle;
                        next_heartbeat = sim.now();
                    }
                    Phase::AwaitCoordinator { .. } => {
                        // Winner died mid-election: start over.
                        start_election = true;
                    }
                    Phase::Idle => {
                        if leader == Some(me) {
                            // A self-styled leader that observes recent
                            // liveness from a *higher* node (its heartbeat
                            // in the cell, or a Heartbeat message) stands
                            // down — this heals the split where a low node
                            // elected itself after its election messages
                            // were lost.
                            let usurped = transport.last_heartbeat().and_then(|(id, at)| {
                                (id > me && sim.now() < at + cfg.heartbeat_timeout)
                                    .then_some((id, at))
                            });
                            if let Some((real_leader, at)) = usurped {
                                leader = Some(real_leader);
                                leader_seen_at = at;
                                observer.report(me, leader, sim.now());
                                continue;
                            }
                            transport.broadcast_heartbeat().await;
                            next_heartbeat = sim.now() + cfg.heartbeat_interval;
                        } else {
                            // The deadline was computed before we started
                            // waiting; heartbeats consumed while parked in
                            // recv() don't produce an event, so re-check
                            // liveness before suspecting the leader.
                            if let Some((id, at)) = transport.last_heartbeat() {
                                if Some(id) == leader && at > leader_seen_at {
                                    leader_seen_at = at;
                                }
                            }
                            if sim.now() >= leader_seen_at + cfg.heartbeat_timeout {
                                start_election = true;
                            }
                        }
                    }
                }
            }
        }
    }
}

async fn declare_self<T: Transport>(
    sim: &Sim,
    transport: &T,
    lower: &[NodeId],
    observer: &ElectionObserver,
    leader: &mut Option<NodeId>,
) {
    let me = transport.node_id();
    *leader = Some(me);
    for &l in lower {
        transport
            .send(l, ElectionMsg::Coordinator { from: me })
            .await;
    }
    transport.broadcast_heartbeat().await;
    observer.report(me, Some(me), sim.now());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{build_directory, BlackboardTransport, SocketTransport};
    use faasim_kv::{KvProfile, KvStore};
    use faasim_net::{Fabric, NetProfile, NicConfig};
    use faasim_pricing::{Ledger, PriceBook};
    use faasim_simcore::{mbps, Recorder};

    fn socket_cluster(
        sim: &Sim,
        n: u64,
    ) -> (Fabric, Vec<(NodeId, faasim_net::Host)>, ElectionObserver) {
        let fabric = Fabric::new(sim, NetProfile::aws_2018().exact(), Recorder::new());
        let members: Vec<(NodeId, faasim_net::Host)> = (1..=n)
            .map(|id| (id, fabric.add_host(0, NicConfig::simple(mbps(10_000.0)))))
            .collect();
        (fabric, members, ElectionObserver::new())
    }

    #[test]
    fn socket_cluster_elects_highest() {
        let sim = Sim::new(81);
        let (fabric, members, observer) = socket_cluster(&sim, 5);
        let dir = build_directory(&members);
        let mut handles = Vec::new();
        for (id, host) in &members {
            let t = SocketTransport::new(&fabric, host, *id, dir.clone());
            handles.push(spawn_node(&sim, t, BullyConfig::direct(), observer.clone()));
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(observer.current_leader(), Some(5));
        let rounds = observer.rounds();
        assert!(!rounds.is_empty());
        // Direct transport: initial agreement well under a second.
        assert!(
            rounds[0].duration() < SimDuration::from_secs(1),
            "initial round took {}",
            rounds[0].duration()
        );
        for h in handles {
            h.kill();
        }
        sim.run_until(sim.now() + SimDuration::from_secs(2));
    }

    #[test]
    fn socket_cluster_survives_leader_failure() {
        let sim = Sim::new(82);
        let (fabric, members, observer) = socket_cluster(&sim, 4);
        let dir = build_directory(&members);
        let mut handles = Vec::new();
        for (id, host) in &members {
            let t = SocketTransport::new(&fabric, host, *id, dir.clone());
            handles.push(spawn_node(&sim, t, BullyConfig::direct(), observer.clone()));
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        assert_eq!(observer.current_leader(), Some(4));
        // Kill the leader.
        handles[3].kill();
        observer.mark_dead(4, sim.now());
        sim.run_until(sim.now() + SimDuration::from_secs(5));
        assert_eq!(observer.current_leader(), Some(3));
        let rounds = observer.rounds();
        let failover = *rounds.last().unwrap();
        assert_eq!(failover.leader, 3);
        assert!(
            failover.duration() < SimDuration::from_secs(2),
            "failover took {}",
            failover.duration()
        );
        for h in handles {
            h.kill();
        }
        sim.run_until(sim.now() + SimDuration::from_secs(2));
    }

    #[test]
    fn blackboard_cluster_elects_and_fails_over_slowly() {
        let sim = Sim::new(83);
        let recorder = Recorder::new();
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
        let ledger = Ledger::new();
        let kv = KvStore::new(
            &sim,
            KvProfile::aws_2018().exact(),
            Rc::new(PriceBook::aws_2018()),
            ledger.clone(),
            recorder,
        );
        BlackboardTransport::setup(&kv);
        let observer = ElectionObserver::new();
        let members: Vec<NodeId> = (1..=5).collect();
        let mut handles = Vec::new();
        for &id in &members {
            let host = fabric.add_host(0, NicConfig::simple(mbps(1000.0)));
            let t = BlackboardTransport::new(
                &sim,
                &kv,
                host,
                id,
                &members,
                SimDuration::from_millis(250),
            );
            handles.push(spawn_node(
                &sim,
                t,
                BullyConfig::blackboard_2018(),
                observer.clone(),
            ));
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
        assert_eq!(observer.current_leader(), Some(5));

        // Kill the leader; the cluster must converge on 4, taking on the
        // order of the paper's 16.7 s (detection + answer window).
        handles[4].kill();
        observer.mark_dead(5, sim.now());
        let killed_at = sim.now();
        sim.run_until(killed_at + SimDuration::from_secs(120));
        assert_eq!(observer.current_leader(), Some(4));
        let round = *observer.rounds().last().unwrap();
        let secs = round.duration().as_secs_f64();
        assert!(
            (10.0..25.0).contains(&secs),
            "blackboard failover took {secs} s; expected paper-scale ~16.7 s"
        );
        for h in handles {
            h.kill();
        }
        sim.run_until(sim.now() + SimDuration::from_secs(5));
    }

    #[test]
    fn partition_causes_split_brain_and_heals() {
        // Bully has no quorum: a partition yields one leader per side —
        // the paper's point that real agreement must be "bolted on as a
        // protocol of additional I/Os akin to classical consensus". When
        // the partition heals, the usurper stands down on seeing the
        // higher leader's heartbeats.
        let sim = Sim::new(84);
        let (fabric, members, observer) = socket_cluster(&sim, 6);
        let dir = build_directory(&members);
        let mut handles = Vec::new();
        for (id, host) in &members {
            let t = SocketTransport::new(&fabric, host, *id, dir.clone());
            handles.push(spawn_node(&sim, t, BullyConfig::direct(), observer.clone()));
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        assert_eq!(observer.current_leader(), Some(6));

        // Split 1-3 from 4-6.
        let side_a: Vec<_> = members[..3].iter().map(|(_, h)| h.id()).collect();
        let side_b: Vec<_> = members[3..].iter().map(|(_, h)| h.id()).collect();
        fabric.partition(&side_a, &side_b);
        sim.run_until(sim.now() + SimDuration::from_secs(5));
        let views = observer.views();
        // Split brain: side A elected its own leader (3); side B kept 6.
        for (id, _, view) in &views {
            if *id <= 3 {
                assert_eq!(*view, Some(3), "node {id} view {view:?}");
            } else {
                assert_eq!(*view, Some(6), "node {id} view {view:?}");
            }
        }

        // Heal: node 3 must stand down and the cluster re-converge on 6.
        fabric.heal_partition();
        sim.run_until(sim.now() + SimDuration::from_secs(5));
        let views = observer.views();
        for (id, _, view) in &views {
            assert_eq!(*view, Some(6), "node {id} view {view:?} after heal");
        }
        for h in handles {
            h.kill();
        }
        sim.run_until(sim.now() + SimDuration::from_secs(1));
    }

    #[test]
    fn observer_tracks_agreement_correctly() {
        let obs = ElectionObserver::new();
        let t0 = SimTime::ZERO;
        obs.register(1, t0);
        obs.register(2, t0);
        assert_eq!(obs.current_leader(), None);
        obs.report(1, Some(2), SimTime::from_nanos(5));
        assert!(obs.rounds().is_empty(), "not all nodes agree yet");
        // Node 2 believing in itself completes the round.
        obs.report(2, Some(2), SimTime::from_nanos(9));
        let rounds = obs.rounds();
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].leader, 2);
        assert_eq!(rounds[0].started_at, t0);
        assert_eq!(rounds[0].completed_at, SimTime::from_nanos(9));
        // Death of the leader opens a new round.
        obs.mark_dead(2, SimTime::from_nanos(20));
        obs.report(1, Some(1), SimTime::from_nanos(30));
        assert_eq!(obs.rounds().len(), 2);
        assert_eq!(obs.current_leader(), Some(1));
    }

    #[test]
    fn wrong_leader_view_does_not_complete_round() {
        let obs = ElectionObserver::new();
        obs.register(1, SimTime::ZERO);
        obs.register(3, SimTime::ZERO);
        // Both agree — but on the wrong (non-highest) node.
        obs.report(1, Some(1), SimTime::from_nanos(5));
        obs.report(3, Some(1), SimTime::from_nanos(6));
        assert!(obs.rounds().is_empty());
    }
}
