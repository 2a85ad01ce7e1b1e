//! Cloud composition: one struct wiring every simulated service together,
//! configured by a single [`CloudProfile`].

use std::rc::Rc;

use faasim_blob::{BlobProfile, BlobStore};
use faasim_compute::Ec2;
use faasim_faas::{FaasPlatform, FaasProfile};
use faasim_kv::{KvProfile, KvStore};
use faasim_net::{Fabric, Host, NetProfile, NicConfig};
use faasim_pricing::{Ledger, PriceBook};
use faasim_query::{QueryProfile, QueryService};
use faasim_queue::{QueueProfile, QueueService};
use faasim_simcore::{mbps, Recorder, Sim};

/// Every calibrated constant in one place. See DESIGN.md §5 for the
/// provenance of each number.
#[derive(Clone, Debug)]
pub struct CloudProfile {
    /// Network latency tiers.
    pub net: NetProfile,
    /// Object-store behaviour.
    pub blob: BlobProfile,
    /// KV-store behaviour.
    pub kv: KvProfile,
    /// Queue behaviour.
    pub queue: QueueProfile,
    /// FaaS platform.
    pub faas: FaasProfile,
    /// Autoscaling query service.
    pub query: QueryProfile,
    /// List prices.
    pub prices: PriceBook,
}

impl CloudProfile {
    /// The Fall-2018 AWS calibration used throughout the reproduction.
    pub fn aws_2018() -> CloudProfile {
        CloudProfile {
            net: NetProfile::aws_2018(),
            blob: BlobProfile::aws_2018(),
            kv: KvProfile::aws_2018(),
            queue: QueueProfile::aws_2018(),
            faas: FaasProfile::aws_2018(),
            query: QueryProfile::aws_2018(),
            prices: PriceBook::aws_2018(),
        }
    }

    /// Collapse every latency distribution to its mean — used by the
    /// table-regenerating harnesses so the printed numbers match the
    /// calibration targets exactly.
    pub fn exact(mut self) -> CloudProfile {
        self.net = self.net.exact();
        self.blob = self.blob.exact();
        self.kv = self.kv.exact();
        self.queue = self.queue.exact();
        self.faas = self.faas.exact();
        self.query = self.query.exact();
        self
    }

    /// The Firecracker cold-start ablation (paper footnote 5).
    pub fn firecracker(mut self) -> CloudProfile {
        self.faas = self.faas.firecracker();
        self
    }
}

/// The composed cloud: one simulation, one fabric, every service, one
/// bill.
pub struct Cloud {
    /// The simulation kernel.
    pub sim: Sim,
    /// The datacenter network.
    pub fabric: Fabric,
    /// S3-like object store.
    pub blob: BlobStore,
    /// DynamoDB-like table service.
    pub kv: KvStore,
    /// SQS-like queue service.
    pub queue: QueueService,
    /// EC2-like serverful compute.
    pub ec2: Ec2,
    /// Lambda-like FaaS platform.
    pub faas: FaasPlatform,
    /// Athena-like autoscaling query service.
    pub query: QueryService,
    /// The shared bill.
    pub ledger: Ledger,
    /// The shared metrics registry.
    pub recorder: Recorder,
    /// Shared price book.
    pub prices: Rc<PriceBook>,
}

impl Cloud {
    /// Build a cloud from `profile`, deterministic in `seed`.
    pub fn new(profile: CloudProfile, seed: u64) -> Cloud {
        let sim = Sim::new(seed);
        let recorder = Recorder::new();
        let ledger = Ledger::new();
        let prices = Rc::new(profile.prices.clone());
        let fabric = Fabric::new(&sim, profile.net.clone(), recorder.clone());
        let blob = BlobStore::new(
            &sim,
            profile.blob.clone(),
            prices.clone(),
            ledger.clone(),
            recorder.clone(),
        );
        let kv = KvStore::new(
            &sim,
            profile.kv.clone(),
            prices.clone(),
            ledger.clone(),
            recorder.clone(),
        );
        let queue = QueueService::new(
            &sim,
            profile.queue.clone(),
            prices.clone(),
            ledger.clone(),
            recorder.clone(),
        );
        let ec2 = Ec2::new(
            &sim,
            &fabric,
            prices.clone(),
            ledger.clone(),
            recorder.clone(),
        );
        let faas = FaasPlatform::new(
            &sim,
            &fabric,
            profile.faas.clone(),
            prices.clone(),
            ledger.clone(),
            recorder.clone(),
        );
        let query = QueryService::new(
            &sim,
            &fabric,
            &blob,
            profile.query.clone(),
            prices.clone(),
            ledger.clone(),
            recorder.clone(),
        );
        Cloud {
            sim,
            fabric,
            blob,
            kv,
            queue,
            ec2,
            faas,
            query,
            ledger,
            recorder,
            prices,
        }
    }

    /// A well-connected client host (e.g. the experiment driver's
    /// machine), not subject to Lambda NIC packing.
    pub fn client_host(&self) -> Host {
        self.fabric.add_host(0, NicConfig::simple(mbps(10_000.0)))
    }
}

/// Tasks parked on this cloud's sim (queue triggers, server loops, pending
/// callbacks) hold clones of the sim and of the services, which would keep
/// the whole cloud — buckets, queues, recorder — alive forever. Handles
/// cloned out of a dropped cloud stay readable but nothing runs on them.
impl Drop for Cloud {
    fn drop(&mut self) {
        self.sim.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasim_payload::Payload;

    #[test]
    fn cloud_wires_services_over_one_ledger() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 1);
        cloud.blob.create_bucket("b");
        let host = cloud.client_host();
        let blob = cloud.blob.clone();
        cloud.sim.block_on(async move {
            blob.put(&host, "b", "k", Payload::from_static(b"x"))
                .await
                .unwrap();
        });
        assert!(cloud.ledger.total() > 0.0);
        assert_eq!(cloud.recorder.counter("blob.put"), 1);
    }

    /// The shape every experiment leaves behind: a live queue trigger, a
    /// `loop { recv }` server owning its socket, a pending callback and a
    /// transfer still on the wire. Dropping the cloud must free what those
    /// parked tasks pinned — they hold the sim and the services, which hold
    /// the sim — instead of leaking the whole cloud.
    #[test]
    fn dropping_a_cloud_frees_its_parked_tasks() {
        use faasim_faas::{add_queue_trigger, FunctionSpec};
        use faasim_queue::QueueConfig;
        use faasim_simcore::SimDuration;

        let pinned = Rc::new(());
        let weak = Rc::downgrade(&pinned);
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 3);
        cloud.queue.create_queue("in", QueueConfig::default());
        cloud.blob.create_bucket("results");
        let (blob, p) = (cloud.blob.clone(), pinned.clone());
        cloud.faas.register(FunctionSpec::new(
            "f",
            128,
            SimDuration::from_secs(5),
            move |ctx, payload| {
                let (blob, _p) = (blob.clone(), p.clone());
                async move {
                    blob.put(ctx.host(), "results", "k", payload).await.expect("bucket");
                    Ok(Payload::new())
                }
            },
        ));
        let _trigger = add_queue_trigger(&cloud.faas, &cloud.queue, &cloud.fabric, "f", "in", 10);
        let server = cloud.client_host();
        let sock = cloud.fabric.bind(&server, 7000).expect("bind");
        let p = pinned.clone();
        cloud.sim.spawn(async move {
            let _p = p;
            loop {
                let req = sock.recv().await;
                sock.reply(&req, Payload::new()).await;
            }
        });
        let (sim, p) = (cloud.sim.clone(), pinned.clone());
        cloud.sim.call_after(SimDuration::from_secs(86_400), move || drop((sim, p)));
        let (host, p) = (cloud.client_host(), pinned);
        cloud.sim.spawn(async move {
            host.nic_transfer(1 << 50).await;
            drop(p);
        });
        // One triggered invocation, then stop with everything mid-flight
        // (`block_on` would run the day-long callback to completion).
        let (queue, producer) = (cloud.queue.clone(), cloud.client_host());
        cloud.sim.spawn(async move {
            queue.send(&producer, "in", Payload::from_static(b"doc")).await.expect("send");
        });
        cloud.sim.run_for(SimDuration::from_secs(60));
        assert_eq!(cloud.recorder.counter("blob.put"), 1);
        assert!(cloud.sim.stats().tasks_alive >= 3);
        assert!(weak.strong_count() >= 4);

        let sim = cloud.sim.clone();
        drop(cloud);
        assert_eq!(sim.stats().tasks_alive, 0);
        assert!(weak.upgrade().is_none(), "the dropped cloud is still pinned");
    }

    #[test]
    fn profiles_compose() {
        let p = CloudProfile::aws_2018().exact().firecracker();
        assert_eq!(
            p.faas.cold_start_extra.mean(),
            faasim_simcore::SimDuration::from_micros(125_000)
        );
    }
}
