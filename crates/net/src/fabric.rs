//! The datacenter fabric: racks, hosts, NICs, and pairwise latency.
//!
//! Latency between two hosts depends only on their placement tier
//! (same host / same rack / cross rack), sampled from the profile's
//! [`LatencyModel`]s. Bandwidth contention is modeled at each host's NIC
//! with a [`FairShareLink`]; the fabric core is assumed non-blocking
//! (true of modern Clos datacenter networks at the scales simulated here).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use faasim_simcore::{
    Bps, FairShareLink, LatencyModel, LazyCounter, Recorder, Sim, SimDuration, SimRng,
};

/// Identifier of a host on the fabric.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HostId(pub u64);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// A rack number; hosts in the same rack see intra-rack latency.
pub type RackId = u32;

/// NIC sizing for a host.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct NicConfig {
    /// Total NIC capacity shared by all flows on the host, bits/second.
    pub capacity: Bps,
    /// Optional per-flow ceiling (the Lambda measurement of 538 Mbps for a
    /// single function is such a ceiling).
    pub per_flow_cap: Option<Bps>,
}

impl NicConfig {
    /// A NIC with the given capacity and no per-flow ceiling.
    pub fn simple(capacity: Bps) -> NicConfig {
        NicConfig {
            capacity,
            per_flow_cap: None,
        }
    }
}

/// Latency tiers of the fabric.
#[derive(Clone, Debug, PartialEq)]
pub struct NetProfile {
    /// One-way latency between two endpoints on the same host.
    pub loopback_one_way: LatencyModel,
    /// One-way latency within a rack.
    pub intra_rack_one_way: LatencyModel,
    /// One-way latency across racks.
    pub inter_rack_one_way: LatencyModel,
}

impl NetProfile {
    /// Calibrated to the paper's Table 1 (ZeroMQ 1KB RTT of 290 µs between
    /// two EC2 instances ⇒ 145 µs one-way including stack overheads) and to
    /// the Pingmesh inter-rack average of 1.26 ms RTT cited in §3.1.
    pub fn aws_2018() -> NetProfile {
        NetProfile {
            loopback_one_way: LatencyModel::LogNormal {
                mean: SimDuration::from_micros(15),
                cv: 0.10,
                floor: SimDuration::from_micros(5),
            },
            intra_rack_one_way: LatencyModel::LogNormal {
                mean: SimDuration::from_micros(145),
                cv: 0.10,
                floor: SimDuration::from_micros(50),
            },
            inter_rack_one_way: LatencyModel::LogNormal {
                mean: SimDuration::from_micros(630),
                cv: 0.15,
                floor: SimDuration::from_micros(200),
            },
        }
    }

    /// Collapse every tier to its mean, for exact-reproduction runs.
    pub fn exact(&self) -> NetProfile {
        NetProfile {
            loopback_one_way: self.loopback_one_way.to_constant(),
            intra_rack_one_way: self.intra_rack_one_way.to_constant(),
            inter_rack_one_way: self.inter_rack_one_way.to_constant(),
        }
    }
}

/// Deterministic fault-injection knobs for the fabric. All probabilities
/// default to zero, and the fabric consumes no extra RNG draws while they
/// are zero — enabling chaos never perturbs the event stream of a
/// fault-free run at the same seed.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct NetFaults {
    /// Probability that a sampled one-way latency gets `DELAY_SPIKE` added.
    pub delay_spike_prob: f64,
    /// Probability that a datagram is silently lost on the wire (after
    /// paying the sender's NIC, like real packet loss).
    pub loss_prob: f64,
}

/// Extra latency added when a spike hits.
const DELAY_SPIKE: SimDuration = SimDuration::from_millis(50);

/// NIC contention statistics, sampled at every transfer start via the
/// link's O(1) accessors (`active_flows` / `fair_share_estimate`). The
/// sampling is plain-cell bookkeeping on the hot path — it never records
/// into the shared [`Recorder`], so enabling it cannot perturb recorder
/// digests or the event stream.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct NicStats {
    /// Transfers started through this host's NIC.
    pub transfers: u64,
    /// Sum over transfer starts of the concurrent flow count including
    /// the starting flow; `concurrency_sum / transfers` is the mean
    /// fan-in a transfer observed.
    pub concurrency_sum: u64,
    /// Peak concurrent flows observed at any transfer start.
    pub peak_flows: u64,
    /// Lowest fair-share estimate seen at any transfer start, bits/sec —
    /// the §3 bandwidth-collapse number for this host.
    pub min_fair_share: Bps,
}

impl Default for NicStats {
    fn default() -> Self {
        NicStats {
            transfers: 0,
            concurrency_sum: 0,
            peak_flows: 0,
            min_fair_share: f64::INFINITY,
        }
    }
}

impl NicStats {
    /// Mean concurrent flows observed at transfer starts (0 if none).
    pub fn mean_fan_in(&self) -> f64 {
        if self.transfers == 0 {
            0.0
        } else {
            self.concurrency_sum as f64 / self.transfers as f64
        }
    }

    /// [`NicStats::min_fair_share`] in Mbit/s (0 if no transfer ran).
    pub fn min_share_mbps(&self) -> f64 {
        if self.transfers == 0 {
            0.0
        } else {
            self.min_fair_share / 1e6
        }
    }
}

impl fmt::Display for NicStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} NIC transfers, fan-in peak {} / mean {:.1}, min fair share {:.1} Mbit/s",
            self.transfers,
            self.peak_flows,
            self.mean_fan_in(),
            self.min_share_mbps()
        )
    }
}

pub(crate) struct HostState {
    rack: RackId,
    nic: FairShareLink,
    per_flow_cap: Option<Bps>,
    stats: RefCell<NicStats>,
}

impl HostState {
    pub(crate) fn nic(&self) -> &FairShareLink {
        &self.nic
    }

    pub(crate) fn flow_cap(&self) -> Option<Bps> {
        self.per_flow_cap
    }
}

/// Recorder handles of the per-message path, resolved on first use (see
/// [`LazyCounter`]): a message indexes its counters instead of hashing
/// their names. Each counter is `net.<field>`.
pub(crate) struct Counters {
    pub(crate) messages_sent: LazyCounter,
    pub(crate) bytes_sent: LazyCounter,
    pub(crate) messages_partitioned: LazyCounter,
    pub(crate) messages_lost: LazyCounter,
    pub(crate) messages_dropped: LazyCounter,
    pub(crate) messages_delivered: LazyCounter,
    pub(crate) chaos_delay_spikes: LazyCounter,
}

pub(crate) struct FabricInner {
    pub(crate) sim: Sim,
    profile: NetProfile,
    hosts: RefCell<HashMap<HostId, Rc<HostState>>>,
    next_host: RefCell<u64>,
    rng: RefCell<SimRng>,
    pub(crate) recorder: Recorder,
    pub(crate) counters: Counters,
    pub(crate) sockets: RefCell<HashMap<super::socket::Addr, super::socket::SocketHandle>>,
    /// Active network partition: host sets that cannot reach each other.
    partition: RefCell<Option<(std::collections::HashSet<HostId>, std::collections::HashSet<HostId>)>>,
    /// Chaos knobs (all zero by default).
    faults: RefCell<NetFaults>,
}

/// The datacenter network. Cheap to clone.
#[derive(Clone)]
pub struct Fabric {
    pub(crate) inner: Rc<FabricInner>,
}

impl Fabric {
    /// Build a fabric on `sim` with the given latency profile.
    pub fn new(sim: &Sim, profile: NetProfile, recorder: Recorder) -> Fabric {
        Fabric {
            inner: Rc::new(FabricInner {
                sim: sim.clone(),
                profile,
                hosts: RefCell::new(HashMap::new()),
                next_host: RefCell::new(0),
                rng: RefCell::new(sim.rng("net.fabric")),
                recorder,
                counters: Counters {
                    messages_sent: LazyCounter::new("net.messages_sent"),
                    bytes_sent: LazyCounter::new("net.bytes_sent"),
                    messages_partitioned: LazyCounter::new("net.messages_partitioned"),
                    messages_lost: LazyCounter::new("net.messages_lost"),
                    messages_dropped: LazyCounter::new("net.messages_dropped"),
                    messages_delivered: LazyCounter::new("net.messages_delivered"),
                    chaos_delay_spikes: LazyCounter::new("net.chaos_delay_spikes"),
                },
                sockets: RefCell::new(HashMap::new()),
                partition: RefCell::new(None),
                faults: RefCell::new(NetFaults::default()),
            }),
        }
    }

    /// The simulation this fabric runs on.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// Metrics recorder shared with the rest of the cloud.
    pub fn recorder(&self) -> &Recorder {
        &self.inner.recorder
    }

    /// Attach a new host in `rack` with the given NIC.
    pub fn add_host(&self, rack: RackId, nic: NicConfig) -> Host {
        let id = {
            let mut next = self.inner.next_host.borrow_mut();
            let id = HostId(*next);
            *next += 1;
            id
        };
        let state = Rc::new(HostState {
            rack,
            nic: FairShareLink::new(&self.inner.sim, nic.capacity),
            per_flow_cap: nic.per_flow_cap,
            stats: RefCell::new(NicStats::default()),
        });
        self.inner.hosts.borrow_mut().insert(id, state.clone());
        Host {
            id,
            state,
            fabric: self.clone(),
        }
    }

    /// Number of attached hosts.
    pub fn host_count(&self) -> usize {
        self.inner.hosts.borrow().len()
    }

    /// Sample the one-way latency from `a` to `b`.
    pub fn one_way_latency(&self, a: &Host, b_id: HostId) -> SimDuration {
        let model = {
            let hosts = self.inner.hosts.borrow();
            let b = hosts.get(&b_id);
            match b {
                Some(_) if a.id == b_id => &self.inner.profile.loopback_one_way,
                Some(b) if a.state.rack == b.rack => &self.inner.profile.intra_rack_one_way,
                Some(_) => &self.inner.profile.inter_rack_one_way,
                None => &self.inner.profile.inter_rack_one_way,
            }
            .clone()
        };
        let mut rng = self.inner.rng.borrow_mut();
        let mut latency = model.sample(&mut rng);
        let faults = self.inner.faults.borrow();
        if faults.delay_spike_prob > 0.0 && rng.chance(faults.delay_spike_prob) {
            latency += DELAY_SPIKE;
            self.inner
                .counters
                .chaos_delay_spikes
                .incr(&self.inner.recorder);
        }
        latency
    }

    /// Install chaos knobs; pass `NetFaults::default()` to disable.
    pub fn set_faults(&self, faults: NetFaults) {
        *self.inner.faults.borrow_mut() = faults;
    }

    /// Whether the chaos layer eats this datagram (packet loss). Consumes
    /// an RNG draw only when a loss probability is configured.
    pub(crate) fn chaos_drop(&self) -> bool {
        let p = self.inner.faults.borrow().loss_prob;
        p > 0.0 && self.inner.rng.borrow_mut().chance(p)
    }

    /// Partition the network: messages between `side_a` and `side_b` are
    /// dropped in both directions until [`Fabric::heal_partition`]. Hosts
    /// in neither set communicate freely with everyone (they model the
    /// unaffected part of the datacenter). Storage services are not
    /// partitioned — the paper's world keeps S3/DynamoDB reachable while
    /// compute nodes lose each other.
    pub fn partition(&self, side_a: &[HostId], side_b: &[HostId]) {
        *self.inner.partition.borrow_mut() = Some((
            side_a.iter().copied().collect(),
            side_b.iter().copied().collect(),
        ));
    }

    /// Remove the active partition.
    pub fn heal_partition(&self) {
        *self.inner.partition.borrow_mut() = None;
    }

    /// Whether a message from `a` to `b` is currently blocked.
    pub fn is_blocked(&self, a: HostId, b: HostId) -> bool {
        match &*self.inner.partition.borrow() {
            None => false,
            Some((left, right)) => {
                (left.contains(&a) && right.contains(&b))
                    || (right.contains(&a) && left.contains(&b))
            }
        }
    }

    pub(crate) fn host_state(&self, id: HostId) -> Option<Rc<HostState>> {
        self.inner.hosts.borrow().get(&id).cloned()
    }
}

/// A host attached to the fabric: the unit that owns a NIC. VMs and FaaS
/// container hosts are all `Host`s.
#[derive(Clone)]
pub struct Host {
    id: HostId,
    state: Rc<HostState>,
    fabric: Fabric,
}

impl fmt::Debug for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Host")
            .field("id", &self.id)
            .field("rack", &self.state.rack)
            .finish()
    }
}

impl Host {
    /// This host's id.
    pub fn id(&self) -> HostId {
        self.id
    }

    /// The fabric this host is attached to.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The host's NIC link (shared by every flow to/from this host).
    pub fn nic(&self) -> &FairShareLink {
        &self.state.nic
    }

    /// Contention statistics sampled at transfer starts on this host.
    pub fn nic_stats(&self) -> NicStats {
        *self.state.stats.borrow()
    }

    /// Sample the NIC's contention state as a new transfer starts. Both
    /// accessors are O(1) counters on the link, so this stays on the hot
    /// path unconditionally.
    fn note_transfer_start(&self) {
        let mut st = self.state.stats.borrow_mut();
        st.transfers += 1;
        let n = self.state.nic.active_flows() as u64 + 1;
        st.concurrency_sum += n;
        st.peak_flows = st.peak_flows.max(n);
        st.min_fair_share = st.min_fair_share.min(self.state.nic.fair_share_estimate());
    }

    /// Move `bytes` through this host's NIC, respecting the per-flow cap
    /// and fair sharing with every other active flow on the host.
    pub async fn nic_transfer(&self, bytes: u64) {
        self.note_transfer_start();
        self.state
            .nic
            .transfer(bytes, self.state.per_flow_cap)
            .await;
    }

    /// Move `bytes` through the NIC with an additional ceiling (e.g. a
    /// storage service's per-connection limit). The effective cap is the
    /// minimum of the host cap and `extra_cap`.
    pub async fn nic_transfer_capped(&self, bytes: u64, extra_cap: Bps) {
        let cap = match self.state.per_flow_cap {
            Some(host_cap) => host_cap.min(extra_cap),
            None => extra_cap,
        };
        self.note_transfer_start();
        self.state.nic.transfer(bytes, Some(cap)).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasim_simcore::mbps;

    fn test_fabric(seed: u64) -> (Sim, Fabric) {
        let sim = Sim::new(seed);
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), Recorder::new());
        (sim, fabric)
    }

    #[test]
    fn hosts_get_distinct_ids() {
        let (_sim, fabric) = test_fabric(1);
        let a = fabric.add_host(0, NicConfig::simple(mbps(1000.0)));
        let b = fabric.add_host(0, NicConfig::simple(mbps(1000.0)));
        assert_ne!(a.id(), b.id());
        assert_eq!(fabric.host_count(), 2);
    }

    #[test]
    fn latency_tiers_ordered() {
        let (_sim, fabric) = test_fabric(2);
        let a = fabric.add_host(0, NicConfig::simple(mbps(1000.0)));
        let b = fabric.add_host(0, NicConfig::simple(mbps(1000.0)));
        let c = fabric.add_host(1, NicConfig::simple(mbps(1000.0)));
        let loopback = fabric.one_way_latency(&a, a.id());
        let intra = fabric.one_way_latency(&a, b.id());
        let inter = fabric.one_way_latency(&a, c.id());
        assert!(loopback < intra, "{loopback} !< {intra}");
        assert!(intra < inter, "{intra} !< {inter}");
        // Exact profile: calibrated one-way means.
        assert_eq!(intra, SimDuration::from_micros(145));
        assert_eq!(inter, SimDuration::from_micros(630));
    }

    #[test]
    fn nic_transfer_respects_capacity() {
        let (sim, fabric) = test_fabric(3);
        let host = fabric.add_host(0, NicConfig::simple(mbps(8.0))); // 1 MB/s
        sim.block_on(async move {
            host.nic_transfer(1_000_000).await;
        });
        assert!((sim.now().as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn per_flow_cap_and_extra_cap_compose() {
        let (sim, fabric) = test_fabric(4);
        let host = fabric.add_host(
            0,
            NicConfig {
                capacity: mbps(1000.0),
                per_flow_cap: Some(mbps(16.0)),
            },
        );
        let h2 = host.clone();
        sim.block_on(async move {
            // extra cap 8 Mbps is tighter than the host's 16 Mbps.
            h2.nic_transfer_capped(1_000_000, mbps(8.0)).await;
            // host cap 16 Mbps is tighter than extra 1000 Mbps.
            h2.nic_transfer_capped(1_000_000, mbps(1000.0)).await;
        });
        let t = sim.now().as_secs_f64();
        assert!((t - 1.5).abs() < 1e-6, "took {t}");
    }

    #[test]
    fn packed_host_shares_nic() {
        // The §3 bandwidth collapse: 20 co-located flows on one 574 Mbps
        // NIC get ~28.7 Mbps each.
        let (sim, fabric) = test_fabric(5);
        let host = fabric.add_host(
            0,
            NicConfig {
                capacity: mbps(574.0),
                per_flow_cap: Some(mbps(538.0)),
            },
        );
        for _ in 0..20 {
            let h = host.clone();
            sim.spawn(async move {
                h.nic_transfer(3_587_500).await; // 28.7 Mbit
            });
        }
        sim.run();
        assert!((sim.now().as_secs_f64() - 1.0).abs() < 1e-3, "{}", sim.now());
    }

    #[test]
    fn nic_stats_track_fan_in() {
        let (sim, fabric) = test_fabric(6);
        let host = fabric.add_host(0, NicConfig::simple(mbps(574.0)));
        for _ in 0..20 {
            let h = host.clone();
            sim.spawn(async move {
                h.nic_transfer(3_587_500).await;
            });
        }
        sim.run();
        let stats = host.nic_stats();
        assert_eq!(stats.transfers, 20);
        // All 20 start at t=0; the k-th start sees k concurrent flows.
        assert_eq!(stats.peak_flows, 20);
        assert_eq!(stats.concurrency_sum, (1..=20).sum::<u64>());
        assert!((stats.mean_fan_in() - 10.5).abs() < 1e-9);
        // The last starter's estimate is the §3 collapse: 574/20 Mbps.
        assert!((stats.min_fair_share - mbps(574.0 / 20.0)).abs() < 1.0);
        // Fresh host: no samples yet.
        let idle = fabric.add_host(0, NicConfig::simple(mbps(1.0)));
        assert_eq!(idle.nic_stats(), NicStats::default());
        assert_eq!(idle.nic_stats().mean_fan_in(), 0.0);
    }
}
