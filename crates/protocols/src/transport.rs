//! The two ways election participants can communicate — the paper's §3
//! duality: "event-driven execution over shared state (the natural FaaS
//! approach), or message-passing across long-running agents".
//!
//! [`BlackboardTransport`] is the FaaS-world option: every message is a
//! KV item in a per-node inbox, discovered by polling (the paper polls
//! four times a second); leader liveness is a shared cell. Every poll
//! costs billable requests.
//!
//! [`SocketTransport`] is the serverful option: directly addressed
//! datagrams at network latency.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use faasim_kv::{Consistency, KvError, KvStore};
use faasim_net::{Addr, Fabric, Host, Kind, Socket};
use faasim_simcore::{Sim, SimDuration, SimTime};

use crate::message::{ElectionMsg, NodeId};

/// How election participants exchange messages and observe leader
/// liveness. Implemented by the blackboard (KV-polling) and socket
/// transports.
#[allow(async_fn_in_trait)]
pub trait Transport {
    /// This participant's id.
    fn node_id(&self) -> NodeId;
    /// All other participants.
    fn peers(&self) -> Vec<NodeId>;
    /// Send a protocol message to one peer.
    async fn send(&self, to: NodeId, msg: ElectionMsg);
    /// Signal leader liveness to the whole group.
    async fn broadcast_heartbeat(&self);
    /// The most recent leader liveness observation `(leader, when)`.
    fn last_heartbeat(&self) -> Option<(NodeId, SimTime)>;
    /// Await the next protocol message. `None` when the transport is
    /// closed. Implementations may also surface liveness via
    /// [`Transport::last_heartbeat`] as a side effect.
    async fn recv(&mut self) -> Option<(NodeId, ElectionMsg)>;
}

// ---------------------------------------------------------------------------
// Blackboard transport (DynamoDB-style polling)
// ---------------------------------------------------------------------------

/// Shared naming for the blackboard table.
const TABLE: &str = "election";
const COORD_CELL: &str = "coordinator";

fn inbox_prefix(node: NodeId) -> String {
    format!("inbox/{node:06}/")
}

/// Transport over a KV blackboard, polled at a fixed rate.
pub struct BlackboardTransport {
    sim: Sim,
    kv: KvStore,
    host: Host,
    me: NodeId,
    /// `inbox/<me>/`, built once: every poll scans it.
    inbox: String,
    peers: Vec<NodeId>,
    /// Poll interval (the paper: 250 ms).
    pub poll_interval: SimDuration,
    seq: Rc<RefCell<u64>>,
    buffer: VecDeque<(NodeId, ElectionMsg)>,
    last_hb: Option<(NodeId, SimTime)>,
    closed: bool,
    /// Largest inbox key already buffered. Inbox deletes happen *after*
    /// buffering and can be abandoned when a poll is canceled by a
    /// protocol timeout; without this watermark, the undeleted items
    /// would be re-read as duplicates on the next poll — stale `Answer`s
    /// from dead nodes then livelock the election.
    watermark: Option<String>,
}

impl BlackboardTransport {
    /// Create the shared table (call once before building transports).
    pub fn setup(kv: &KvStore) {
        kv.create_table(TABLE);
    }

    /// Build a transport for node `me` among `members`.
    pub fn new(
        sim: &Sim,
        kv: &KvStore,
        host: Host,
        me: NodeId,
        members: &[NodeId],
        poll_interval: SimDuration,
    ) -> BlackboardTransport {
        BlackboardTransport {
            sim: sim.clone(),
            kv: kv.clone(),
            host,
            me,
            inbox: inbox_prefix(me),
            peers: members.iter().copied().filter(|&n| n != me).collect(),
            poll_interval,
            seq: Rc::new(RefCell::new(0)),
            buffer: VecDeque::new(),
            last_hb: None,
            closed: false,
            watermark: None,
        }
    }

    /// Stop polling; subsequent `recv` returns `None`.
    pub fn close(&mut self) {
        self.closed = true;
    }

    fn encode_hb(&self, now: SimTime) -> Vec<u8> {
        let mut v = Vec::with_capacity(16);
        v.extend_from_slice(&self.me.to_le_bytes());
        v.extend_from_slice(&now.as_nanos().to_le_bytes());
        v
    }

    fn decode_hb(bytes: &[u8]) -> Option<(NodeId, SimTime)> {
        if bytes.len() != 16 {
            return None;
        }
        let id = u64::from_le_bytes(bytes[..8].try_into().ok()?);
        let at = u64::from_le_bytes(bytes[8..].try_into().ok()?);
        Some((id, SimTime::from_nanos(at)))
    }

    /// One polling cycle: read the coordinator cell, then drain the inbox.
    /// Steady state costs 2 read requests (the paper's footnote 6);
    /// election traffic adds per-item reads and deletes.
    async fn poll_once(&mut self) {
        // Liveness cell.
        match self
            .kv
            .get(&self.host, TABLE, COORD_CELL, Consistency::Strong)
            .await
        {
            Ok(item) => {
                if let Some(hb) = Self::decode_hb(&item.value.bytes()) {
                    self.last_hb = Some(hb);
                }
            }
            Err(KvError::NoSuchKey(_)) => {}
            Err(_) => return,
        }
        // Inbox.
        let Ok(items) = self.kv.scan_prefix(&self.host, TABLE, &self.inbox).await else {
            return;
        };
        // Buffer everything new first (cancellation-safe), then clean up.
        for (key, item) in &items {
            if self.watermark.as_deref() >= Some(key.as_str()) {
                continue; // already buffered on an earlier (canceled) poll
            }
            if let Some(msg) = ElectionMsg::decode(&item.value.bytes()) {
                self.buffer.push_back((msg.from(), msg));
            }
            self.watermark = Some(key.clone());
        }
        for (key, _) in items {
            let _ = self.kv.delete(&self.host, TABLE, &key).await;
        }
    }
}

impl Transport for BlackboardTransport {
    fn node_id(&self) -> NodeId {
        self.me
    }

    fn peers(&self) -> Vec<NodeId> {
        self.peers.clone()
    }

    async fn send(&self, to: NodeId, msg: ElectionMsg) {
        let seq = {
            let mut s = self.seq.borrow_mut();
            *s += 1;
            *s
        };
        let key = format!(
            "{}{:020}-{:06}-{seq:06}",
            inbox_prefix(to),
            self.sim.now().as_nanos(),
            self.me
        );
        let _ = self.kv.put(&self.host, TABLE, &key, msg.encode()).await;
    }

    async fn broadcast_heartbeat(&self) {
        let hb = self.encode_hb(self.sim.now());
        let _ = self.kv.put(&self.host, TABLE, COORD_CELL, hb).await;
    }

    fn last_heartbeat(&self) -> Option<(NodeId, SimTime)> {
        self.last_hb
    }

    async fn recv(&mut self) -> Option<(NodeId, ElectionMsg)> {
        loop {
            if let Some(m) = self.buffer.pop_front() {
                return Some(m);
            }
            if self.closed {
                return None;
            }
            self.sim.sleep(self.poll_interval).await;
            if self.closed {
                return None;
            }
            self.poll_once().await;
        }
    }
}

// ---------------------------------------------------------------------------
// Socket transport (directly addressed agents)
// ---------------------------------------------------------------------------

/// Port every election participant binds.
pub const ELECTION_PORT: u16 = 7400;

/// Transport over directly addressed datagrams.
pub struct SocketTransport {
    socket: Socket,
    me: NodeId,
    directory: Rc<HashMap<NodeId, Addr>>,
    last_hb: Option<(NodeId, SimTime)>,
    sim: Sim,
}

impl SocketTransport {
    /// Bind a socket on `host` for node `me`; `directory` maps every
    /// member to its address (build it with [`build_directory`]).
    pub fn new(
        fabric: &Fabric,
        host: &Host,
        me: NodeId,
        directory: Rc<HashMap<NodeId, Addr>>,
    ) -> SocketTransport {
        let socket = fabric
            .bind(host, ELECTION_PORT)
            .expect("election port already bound on this host");
        SocketTransport {
            socket,
            me,
            directory,
            last_hb: None,
            sim: fabric.sim().clone(),
        }
    }
}

/// Build the node→address directory for a set of (id, host) pairs.
pub fn build_directory(members: &[(NodeId, Host)]) -> Rc<HashMap<NodeId, Addr>> {
    Rc::new(
        members
            .iter()
            .map(|(id, host)| {
                (
                    *id,
                    Addr {
                        host: host.id(),
                        port: ELECTION_PORT,
                    },
                )
            })
            .collect(),
    )
}

impl Transport for SocketTransport {
    fn node_id(&self) -> NodeId {
        self.me
    }

    fn peers(&self) -> Vec<NodeId> {
        let mut peers: Vec<NodeId> = self
            .directory
            .keys()
            .copied()
            .filter(|&n| n != self.me)
            .collect();
        peers.sort_unstable();
        peers
    }

    async fn send(&self, to: NodeId, msg: ElectionMsg) {
        if let Some(&addr) = self.directory.get(&to) {
            self.socket.send(addr, msg.encode()).await;
        }
    }

    async fn broadcast_heartbeat(&self) {
        let hb = ElectionMsg::Heartbeat { from: self.me };
        for peer in self.peers() {
            self.send(peer, hb).await;
        }
    }

    fn last_heartbeat(&self) -> Option<(NodeId, SimTime)> {
        self.last_hb
    }

    async fn recv(&mut self) -> Option<(NodeId, ElectionMsg)> {
        loop {
            let raw = self.socket.recv().await;
            debug_assert!(matches!(raw.kind, Kind::Oneway));
            let Some(msg) = ElectionMsg::decode(&raw.payload.bytes()) else {
                continue;
            };
            if let ElectionMsg::Heartbeat { from } = msg {
                self.last_hb = Some((from, self.sim.now()));
                continue; // liveness only; not a protocol event
            }
            return Some((msg.from(), msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasim_kv::KvProfile;
    use faasim_net::{NetProfile, NicConfig};
    use faasim_pricing::{Ledger, PriceBook};
    use faasim_simcore::{mbps, Recorder};

    fn kv_world() -> (Sim, KvStore, Fabric) {
        let sim = Sim::new(71);
        let recorder = Recorder::new();
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
        let kv = KvStore::new(
            &sim,
            KvProfile::aws_2018().exact(),
            Rc::new(PriceBook::aws_2018()),
            Ledger::new(),
            recorder,
        );
        BlackboardTransport::setup(&kv);
        (sim, kv, fabric)
    }

    #[test]
    fn blackboard_send_recv_via_polling() {
        let (sim, kv, fabric) = kv_world();
        let ha = fabric.add_host(0, NicConfig::simple(mbps(1000.0)));
        let hb = fabric.add_host(0, NicConfig::simple(mbps(1000.0)));
        let members = [1u64, 2u64];
        let ta = BlackboardTransport::new(&sim, &kv, ha, 1, &members, SimDuration::from_millis(250));
        let mut tb =
            BlackboardTransport::new(&sim, &kv, hb, 2, &members, SimDuration::from_millis(250));
        assert_eq!(ta.peers(), vec![2]);
        sim.spawn(async move {
            ta.send(2, ElectionMsg::Election { from: 1, epoch: 1 }).await;
        });
        let got = sim.block_on(async move { tb.recv().await });
        assert_eq!(got, Some((1, ElectionMsg::Election { from: 1, epoch: 1 })));
        // Discovery took at least one poll interval — the FaaS tax.
        assert!(sim.now() >= SimTime::ZERO + SimDuration::from_millis(250));
    }

    #[test]
    fn blackboard_heartbeat_cell() {
        let (sim, kv, fabric) = kv_world();
        let ha = fabric.add_host(0, NicConfig::simple(mbps(1000.0)));
        let hb_host = fabric.add_host(0, NicConfig::simple(mbps(1000.0)));
        let members = [1u64, 2u64];
        let leader =
            BlackboardTransport::new(&sim, &kv, ha, 2, &members, SimDuration::from_millis(250));
        let mut follower =
            BlackboardTransport::new(&sim, &kv, hb_host, 1, &members, SimDuration::from_millis(250));
        let s = sim.clone();
        sim.spawn(async move {
            leader.broadcast_heartbeat().await;
            s.sleep(SimDuration::from_secs(5)).await;
        });
        sim.block_on(async move {
            // One poll cycle observes the heartbeat.
            let got = follower
                .sim
                .clone()
                .timeout(SimDuration::from_secs(1), follower.recv())
                .await;
            assert!(got.is_none(), "no protocol message expected");
            let (id, _at) = follower.last_heartbeat().expect("heartbeat seen");
            assert_eq!(id, 2);
        });
    }

    #[test]
    fn blackboard_close_stops_recv() {
        let (sim, kv, fabric) = kv_world();
        let ha = fabric.add_host(0, NicConfig::simple(mbps(1000.0)));
        let mut t =
            BlackboardTransport::new(&sim, &kv, ha, 1, &[1, 2], SimDuration::from_millis(250));
        t.close();
        let got = sim.block_on(async move { t.recv().await });
        assert_eq!(got, None);
    }

    #[test]
    fn socket_transport_delivers_and_filters_heartbeats() {
        let sim = Sim::new(72);
        let recorder = Recorder::new();
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder);
        let h1 = fabric.add_host(0, NicConfig::simple(mbps(10_000.0)));
        let h2 = fabric.add_host(0, NicConfig::simple(mbps(10_000.0)));
        let dir = build_directory(&[(1, h1.clone()), (2, h2.clone())]);
        let t1 = SocketTransport::new(&fabric, &h1, 1, dir.clone());
        let mut t2 = SocketTransport::new(&fabric, &h2, 2, dir);
        assert_eq!(t2.peers(), vec![1]);
        sim.spawn(async move {
            t1.broadcast_heartbeat().await;
            t1.send(2, ElectionMsg::Coordinator { from: 1 }).await;
        });
        let got = sim.block_on(async move {
            let m = t2.recv().await;
            (m, t2.last_heartbeat().map(|(id, _)| id))
        });
        assert_eq!(got.0, Some((1, ElectionMsg::Coordinator { from: 1 })));
        assert_eq!(got.1, Some(1));
        // Direct delivery: sub-millisecond, not a polling cycle.
        assert!(sim.now() < SimTime::ZERO + SimDuration::from_millis(2));
    }
}
