//! # faasim-compute
//!
//! EC2-like serverful compute: an instance-type catalog, provisioning with
//! boot delay, per-core CPU scheduling, EBS-like attached volumes, and
//! per-second billing with a one-minute minimum — the baseline the paper
//! compares Lambda against in every case study.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use faasim_net::{Fabric, Host, NicConfig, RackId};
use faasim_pricing::{Ledger, PriceBook, Service};
use faasim_simcore::{
    gbps, mbps, Bps, FairShareLink, LatencyModel, LazyCounter, Recorder, SemPermit, Semaphore, Sim,
    SimDuration, SimTime,
};

/// Static description of an instance type.
#[derive(Clone, Debug)]
pub struct InstanceType {
    /// Type name, e.g. `"m4.large"`.
    pub name: &'static str,
    /// Number of vCPUs.
    pub vcpus: u32,
    /// Memory in MB.
    pub mem_mb: u64,
    /// NIC sizing.
    pub nic: NicConfig,
    /// Attached-volume read bandwidth, bits/second.
    pub ebs_read_bandwidth: Bps,
    /// Attached-volume write bandwidth, bits/second.
    pub ebs_write_bandwidth: Bps,
    /// Per-core speed relative to the reference core (an m4.large core).
    pub cpu_speed: f64,
}

/// The instance types the experiments use.
///
/// EBS read bandwidth on `m4.large` is calibrated to the paper's §3.1
/// training case (100 MB batch from EBS in 0.04 s ⇒ 2.5 GB/s), which is
/// generous for gp2 but is what the authors measured (likely page cache);
/// we keep their number, since our goal is their ratio.
pub fn instance_catalog() -> Vec<InstanceType> {
    vec![
        InstanceType {
            name: "m4.large",
            vcpus: 2,
            mem_mb: 8 * 1024,
            nic: NicConfig::simple(mbps(450.0)),
            ebs_read_bandwidth: gbps(20.0),
            ebs_write_bandwidth: gbps(2.0),
            cpu_speed: 1.0,
        },
        InstanceType {
            name: "m5.large",
            vcpus: 2,
            mem_mb: 8 * 1024,
            nic: NicConfig::simple(gbps(10.0)),
            ebs_read_bandwidth: gbps(20.0),
            ebs_write_bandwidth: gbps(4.0),
            cpu_speed: 1.1,
        },
        InstanceType {
            name: "m5.xlarge",
            vcpus: 4,
            mem_mb: 16 * 1024,
            nic: NicConfig::simple(gbps(10.0)),
            ebs_read_bandwidth: gbps(20.0),
            ebs_write_bandwidth: gbps(4.0),
            cpu_speed: 1.1,
        },
        InstanceType {
            name: "c5.large",
            vcpus: 2,
            mem_mb: 4 * 1024,
            nic: NicConfig::simple(gbps(10.0)),
            ebs_read_bandwidth: gbps(20.0),
            ebs_write_bandwidth: gbps(4.0),
            cpu_speed: 1.25,
        },
    ]
}

/// Look up an instance type by name.
pub fn instance_type(name: &str) -> Option<InstanceType> {
    instance_catalog().into_iter().find(|t| t.name == name)
}

/// EC2 control-plane configuration.
#[derive(Clone, Debug)]
pub struct Ec2Profile {
    /// Time from provisioning request to a usable VM.
    pub provisioning_delay: LatencyModel,
}

impl Ec2Profile {
    /// ~90 s boot, the 2018-era experience the paper contrasts with
    /// autoscaling.
    pub fn aws_2018() -> Ec2Profile {
        Ec2Profile {
            provisioning_delay: LatencyModel::LogNormal {
                mean: SimDuration::from_secs(90),
                cv: 0.2,
                floor: SimDuration::from_secs(30),
            },
        }
    }

    /// Constant means for exact reproduction.
    pub fn exact(mut self) -> Ec2Profile {
        self.provisioning_delay = self.provisioning_delay.to_constant();
        self
    }
}

/// Errors from the EC2 control plane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ec2Error {
    /// Unknown instance type.
    UnknownInstanceType(String),
}

impl fmt::Display for Ec2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ec2Error::UnknownInstanceType(t) => write!(f, "unknown instance type: {t}"),
        }
    }
}

impl std::error::Error for Ec2Error {}

struct Ec2State {
    running: Vec<Vm>,
}

/// The EC2-like control plane. Cheap to clone.
#[derive(Clone)]
pub struct Ec2 {
    sim: Sim,
    fabric: Fabric,
    profile: Rc<Ec2Profile>,
    prices: Rc<PriceBook>,
    ledger: Ledger,
    recorder: Recorder,
    /// `ec2.provisioned`, resolved on first use (see [`LazyCounter`]).
    provisioned: LazyCounter,
    state: Rc<RefCell<Ec2State>>,
}

impl Ec2 {
    /// Create the control plane.
    pub fn new(
        sim: &Sim,
        fabric: &Fabric,
        profile: Ec2Profile,
        prices: Rc<PriceBook>,
        ledger: Ledger,
        recorder: Recorder,
    ) -> Ec2 {
        Ec2 {
            sim: sim.clone(),
            fabric: fabric.clone(),
            profile: Rc::new(profile),
            prices,
            ledger,
            recorder,
            provisioned: LazyCounter::new("ec2.provisioned"),
            state: Rc::new(RefCell::new(Ec2State { running: Vec::new() })),
        }
    }

    /// Provision a VM of `type_name` in `rack`, waiting out the boot delay.
    pub async fn provision(&self, type_name: &str, rack: RackId) -> Result<Vm, Ec2Error> {
        // Validate type and pricing up front so experiments fail fast.
        let (itype, hourly) = self.priced(type_name)?;
        let delay = {
            let mut rng = self.sim.rng(&format!("ec2.boot.{}", self.state.borrow().running.len()));
            self.profile.provisioning_delay.sample(&mut rng)
        };
        self.sim.sleep(delay).await;
        Ok(self.boot(itype, hourly, rack))
    }

    /// Provision without boot delay — for experiments that start "with the
    /// fleet already up" (the paper's EC2 baselines are steady-state).
    pub fn provision_ready(&self, type_name: &str, rack: RackId) -> Result<Vm, Ec2Error> {
        let (itype, hourly) = self.priced(type_name)?;
        Ok(self.boot(itype, hourly, rack))
    }

    /// The instance type called `type_name` and its hourly price.
    fn priced(&self, type_name: &str) -> Result<(InstanceType, f64), Ec2Error> {
        let itype = instance_type(type_name)
            .ok_or_else(|| Ec2Error::UnknownInstanceType(type_name.to_owned()))?;
        let hourly = self.prices.ec2_hourly(itype.name);
        Ok((itype, hourly))
    }

    /// Attach a host in `rack` and start the VM's clock now.
    fn boot(&self, itype: InstanceType, hourly: f64, rack: RackId) -> Vm {
        let vm = Vm {
            inner: Rc::new(VmInner {
                sim: self.sim.clone(),
                host: self.fabric.add_host(rack, itype.nic),
                hourly,
                started_at: self.sim.now(),
                terminated_at: Cell::new(None),
                cpu: Semaphore::new(itype.vcpus as usize),
                ebs_read: FairShareLink::new(&self.sim, itype.ebs_read_bandwidth),
                ebs_write: FairShareLink::new(&self.sim, itype.ebs_write_bandwidth),
                ledger: self.ledger.clone(),
                itype,
            }),
        };
        self.state.borrow_mut().running.push(vm.clone());
        self.provisioned.incr(&self.recorder);
        vm
    }

    /// Number of VMs provisioned and not yet terminated.
    pub fn running_count(&self) -> usize {
        self.state
            .borrow()
            .running
            .iter()
            .filter(|vm| !vm.is_terminated())
            .count()
    }

    /// Charge every still-running VM for its uptime so far and mark it
    /// terminated. Call at the end of an experiment so the ledger reflects
    /// serverful costs.
    pub fn terminate_all(&self) {
        let vms: Vec<Vm> = self.state.borrow().running.clone();
        for vm in vms {
            vm.terminate();
        }
    }
}

struct VmInner {
    sim: Sim,
    host: Host,
    itype: InstanceType,
    hourly: f64,
    started_at: SimTime,
    terminated_at: Cell<Option<SimTime>>,
    cpu: Semaphore,
    ebs_read: FairShareLink,
    ebs_write: FairShareLink,
    ledger: Ledger,
}

/// A running (or terminated) VM. Cheap to clone.
#[derive(Clone)]
pub struct Vm {
    inner: Rc<VmInner>,
}

impl fmt::Debug for Vm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("type", &self.inner.itype.name)
            .field("host", &self.inner.host.id())
            .finish()
    }
}

impl Vm {
    /// The network identity of this VM.
    pub fn host(&self) -> &Host {
        &self.inner.host
    }

    /// This VM's instance type.
    pub fn instance_type(&self) -> &InstanceType {
        &self.inner.itype
    }

    /// Occupy one vCPU for `reference_secs` of reference-core work.
    /// Queues behind other work when all vCPUs are busy.
    pub async fn cpu_work(&self, reference_work: SimDuration) {
        let _core: SemPermit = self.inner.cpu.acquire(1).await;
        let scaled = reference_work.mul_f64(1.0 / self.inner.itype.cpu_speed);
        self.inner.sim.sleep(scaled).await;
    }

    /// Run `reference_work` across up to all vCPUs (perfectly parallel
    /// portion of a job).
    pub async fn cpu_work_parallel(&self, reference_work: SimDuration) {
        let n = self.inner.itype.vcpus as u64;
        let _cores: SemPermit = self.inner.cpu.acquire(n as usize).await;
        let scaled = reference_work.mul_f64(1.0 / (self.inner.itype.cpu_speed * n as f64));
        self.inner.sim.sleep(scaled).await;
    }

    /// Read `bytes` from the attached volume (shared fairly with other
    /// concurrent volume reads on this VM).
    pub async fn ebs_read(&self, bytes: u64) {
        self.inner.ebs_read.transfer(bytes, None).await;
    }

    /// Write `bytes` to the attached volume.
    pub async fn ebs_write(&self, bytes: u64) {
        self.inner.ebs_write.transfer(bytes, None).await;
    }

    /// Volume reads currently in flight on this VM. O(1): the link keeps
    /// a live counter, so polling this on a hot path costs nothing.
    pub fn ebs_reads_in_flight(&self) -> usize {
        self.inner.ebs_read.active_flows()
    }

    /// Volume writes currently in flight on this VM. O(1).
    pub fn ebs_writes_in_flight(&self) -> usize {
        self.inner.ebs_write.active_flows()
    }

    /// Bandwidth a new volume read would get right now, bits/sec — the
    /// calibrated EBS read bandwidth divided across concurrent readers.
    /// O(1).
    pub fn ebs_read_share_estimate(&self) -> Bps {
        self.inner.ebs_read.fair_share_estimate()
    }

    /// Uptime so far (or total uptime if terminated).
    pub fn uptime(&self) -> SimDuration {
        let end = self
            .inner
            .terminated_at
            .get()
            .unwrap_or_else(|| self.inner.sim.now());
        end.duration_since(self.inner.started_at)
    }

    /// True once [`Vm::terminate`] has been called.
    pub fn is_terminated(&self) -> bool {
        self.inner.terminated_at.get().is_some()
    }

    /// Stop the VM and charge per-second billing with a 60 s minimum.
    /// Idempotent.
    pub fn terminate(&self) {
        if self.is_terminated() {
            return;
        }
        let now = self.inner.sim.now();
        self.inner.terminated_at.set(Some(now));
        let billed_secs = self.uptime().as_secs_f64().max(60.0);
        let dollars = self.inner.hourly * billed_secs / 3600.0;
        // The line item is named after the instance type and a VM is
        // billed once, so it is resolved here, at its one charge.
        let ledger = &self.inner.ledger;
        let item = ledger.item_id(
            Service::Compute,
            &format!("{}-hours", self.inner.itype.name),
        );
        ledger.charge_id(item, billed_secs / 3600.0, dollars);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasim_net::NetProfile;

    fn setup() -> (Sim, Ec2, Ledger) {
        let sim = Sim::new(31);
        let recorder = Recorder::new();
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
        let ledger = Ledger::new();
        let ec2 = Ec2::new(
            &sim,
            &fabric,
            Ec2Profile::aws_2018().exact(),
            Rc::new(PriceBook::aws_2018()),
            ledger.clone(),
            recorder,
        );
        (sim, ec2, ledger)
    }

    #[test]
    fn handles_resolve_on_first_use() {
        let (_sim, ec2, ledger) = setup();
        assert!(ec2.recorder.counter_names().is_empty());
        assert!(ec2.recorder.histogram_names().is_empty());
        let vm = ec2.provision_ready("m5.large", 0).unwrap();
        assert_eq!(ec2.recorder.counter_names(), ["ec2.provisioned"]);
        assert!(ledger.breakdown().is_empty());
        vm.terminate();
        let items: Vec<_> = ledger
            .breakdown()
            .into_iter()
            .map(|row| (row.0, row.1))
            .collect();
        assert_eq!(items, [(Service::Compute, "m5.large-hours".to_owned())]);
        assert!(ec2.recorder.histogram_names().is_empty());
    }

    #[test]
    fn catalog_contains_papers_instances() {
        assert!(instance_type("m4.large").is_some());
        assert!(instance_type("m5.large").is_some());
        assert!(instance_type("x1e.32xlarge").is_none());
        let m4 = instance_type("m4.large").unwrap();
        assert_eq!(m4.vcpus, 2);
        assert_eq!(m4.mem_mb, 8 * 1024);
    }

    #[test]
    fn provisioning_pays_boot_delay() {
        let (sim, ec2, _) = setup();
        let vm = sim.block_on(async move { ec2.provision("m4.large", 0).await.unwrap() });
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(90));
        assert!(!vm.is_terminated());
    }

    #[test]
    fn provision_ready_is_instant() {
        let (sim, ec2, _) = setup();
        let _vm = ec2.provision_ready("m5.large", 0).unwrap();
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(ec2.running_count(), 1);
    }

    #[test]
    fn unknown_type_rejected() {
        let (sim, ec2, _) = setup();
        let err = sim.block_on(async move { ec2.provision("quantum.large", 0).await });
        assert!(matches!(err, Err(Ec2Error::UnknownInstanceType(_))));
    }

    #[test]
    fn cpu_work_scales_with_speed_and_queues() {
        let (sim, ec2, _) = setup();
        let vm = ec2.provision_ready("m4.large", 0).unwrap(); // 2 vCPUs, speed 1.0
        // 3 jobs of 10 s on 2 cores: two run, one queues => 20 s total.
        for _ in 0..3 {
            let vm = vm.clone();
            sim.spawn(async move { vm.cpu_work(SimDuration::from_secs(10)).await });
        }
        sim.run();
        assert_eq!(sim.now().as_nanos(), 20_000_000_000);
    }

    #[test]
    fn faster_core_finishes_sooner() {
        let (sim, ec2, _) = setup();
        let vm = ec2.provision_ready("c5.large", 0).unwrap(); // speed 1.25
        let vm2 = vm.clone();
        sim.block_on(async move { vm2.cpu_work(SimDuration::from_secs(10)).await });
        assert_eq!(sim.now().as_nanos(), 8_000_000_000);
    }

    #[test]
    fn parallel_work_uses_all_cores() {
        let (sim, ec2, _) = setup();
        let vm = ec2.provision_ready("m4.large", 0).unwrap(); // 2 cores
        let vm2 = vm.clone();
        sim.block_on(async move { vm2.cpu_work_parallel(SimDuration::from_secs(10)).await });
        assert_eq!(sim.now().as_nanos(), 5_000_000_000);
    }

    #[test]
    fn ebs_read_hits_calibrated_bandwidth() {
        // §3.1: 100 MB from the volume in 0.04 s.
        let (sim, ec2, _) = setup();
        let vm = ec2.provision_ready("m4.large", 0).unwrap();
        let vm2 = vm.clone();
        sim.block_on(async move { vm2.ebs_read(100_000_000).await });
        let s = sim.now().as_secs_f64();
        assert!((s - 0.04).abs() < 1e-3, "read took {s}");
    }

    #[test]
    fn ebs_contention_probes_are_live() {
        let (sim, ec2, _) = setup();
        let vm = ec2.provision_ready("m4.large", 0).unwrap();
        let read_bw = vm.instance_type().ebs_read_bandwidth;
        assert_eq!(vm.ebs_reads_in_flight(), 0);
        assert!((vm.ebs_read_share_estimate() - read_bw).abs() < 1.0);
        for _ in 0..4 {
            let v = vm.clone();
            sim.spawn(async move { v.ebs_read(100_000_000).await });
        }
        let v = vm.clone();
        sim.spawn(async move { v.ebs_write(10_000_000).await });
        let probe = vm.clone();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_millis(1)).await;
            assert_eq!(probe.ebs_reads_in_flight(), 4);
            assert_eq!(probe.ebs_writes_in_flight(), 1);
            // A fifth reader would get a 1/5 share.
            let est = probe.ebs_read_share_estimate();
            assert!((est - read_bw / 5.0).abs() < 1.0, "estimate {est}");
        });
        sim.run();
        assert_eq!(vm.ebs_reads_in_flight(), 0);
        assert_eq!(vm.ebs_writes_in_flight(), 0);
    }

    #[test]
    fn billing_per_second_with_minimum() {
        let (sim, ec2, ledger) = setup();
        let vm = ec2.provision_ready("m4.large", 0).unwrap();
        let s = sim.clone();
        let vm2 = vm.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_secs(1300)).await;
            vm2.terminate();
        });
        // $0.10/hr * 1300 s = $0.0361 (the paper's ≈$0.04 EC2 training).
        let total = ledger.total_for(Service::Compute);
        assert!((total - 0.10 * 1300.0 / 3600.0).abs() < 1e-9, "{total}");
        // Terminate is idempotent.
        vm.terminate();
        assert!((ledger.total_for(Service::Compute) - total).abs() < 1e-12);
    }

    #[test]
    fn sub_minute_uptime_bills_one_minute() {
        let (sim, ec2, ledger) = setup();
        let vm = ec2.provision_ready("m5.large", 0).unwrap();
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_secs(10)).await;
            vm.terminate();
        });
        let total = ledger.total_for(Service::Compute);
        assert!((total - 0.096 * 60.0 / 3600.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn terminate_all_charges_fleet() {
        let (sim, ec2, ledger) = setup();
        for _ in 0..290 {
            ec2.provision_ready("m5.large", 0).unwrap();
        }
        let s = sim.clone();
        let ec2b = ec2.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_hours(1)).await;
            ec2b.terminate_all();
        });
        // §3.1 CS-2: 290 m5.large for an hour = $27.84.
        let total = ledger.total_for(Service::Compute);
        assert!((total - 27.84).abs() < 0.01, "{total}");
        assert_eq!(ec2.running_count(), 0);
    }
}
