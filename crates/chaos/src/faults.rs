//! The [`FaultPlan`]: one declarative description of everything that
//! goes wrong, applied to a [`Cloud`] in a single call.

use faasim::{Cloud, CloudProfile};
use faasim_blob::BlobFaults;
use faasim_faas::FaasFaults;
use faasim_kv::KvFaults;
use faasim_net::NetFaults;
use faasim_queue::QueueFaults;
use faasim_simcore::SimDuration;

/// Every fault knob for every service tier, in one struct.
///
/// The default plan is completely calm: all probabilities zero, no
/// scheduled events. Because each service's fault hook only draws from
/// its RNG stream when the relevant probability is non-zero, applying
/// the default plan is byte-for-byte indistinguishable from never
/// applying a plan at all.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Network-tier faults: latency spikes and packet loss.
    pub net: NetFaults,
    /// KV-store faults: transient `Throttled` errors.
    pub kv: KvFaults,
    /// Blob-store faults: transient 503-style `Unavailable` errors.
    pub blob: BlobFaults,
    /// Queue faults: duplicate and delayed deliveries.
    pub queue: QueueFaults,
    /// FaaS faults: mid-flight container kills.
    pub faas: FaasFaults,
    /// Cold-start storms: at each offset, every idle container is
    /// evicted, so the next wave of invocations pays cold starts.
    pub storms: Vec<SimDuration>,
}

impl FaultPlan {
    /// A plan with no faults at all — the control arm of any sweep.
    pub fn calm() -> FaultPlan {
        FaultPlan::default()
    }

    /// A moderately hostile preset touching every tier: 5% network
    /// delay spikes, 2% packet loss, 10% KV throttling, 5% blob 503s,
    /// 10% queue duplicates, 5% queue delays, 3% function kills.
    pub fn hostile() -> FaultPlan {
        let mut plan = FaultPlan::default();
        plan.net.delay_spike_prob = 0.05;
        plan.net.loss_prob = 0.02;
        plan.kv.throttle_prob = 0.10;
        plan.blob.unavailable_prob = 0.05;
        plan.queue.duplicate_prob = 0.10;
        plan.queue.delay_prob = 0.05;
        plan.faas.kill_prob = 0.03;
        plan
    }

    /// Install every knob on `cloud` and schedule the storms relative to
    /// the current virtual time.
    pub fn apply(&self, cloud: &Cloud) {
        cloud.fabric.set_faults(self.net.clone());
        cloud.kv.set_faults(self.kv);
        cloud.blob.set_faults(self.blob);
        cloud.queue.set_faults(self.queue.clone());
        cloud.faas.set_faults(self.faas);

        let t0 = cloud.sim.now();
        for &at in &self.storms {
            let faas = cloud.faas.clone();
            cloud.sim.call_at(t0 + at, move || {
                faas.evict_warm();
            });
        }
    }

    /// Build a fresh cloud from `profile` at `seed` with this plan
    /// already applied.
    pub fn build(&self, profile: CloudProfile, seed: u64) -> Cloud {
        let cloud = Cloud::new(profile, seed);
        self.apply(&cloud);
        cloud
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn digest_of(plan: Option<&FaultPlan>, seed: u64) -> String {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), seed);
        if let Some(p) = plan {
            p.apply(&cloud);
        }
        cloud.blob.create_bucket("b");
        cloud.kv.create_table("t");
        let host = cloud.client_host();
        let blob = cloud.blob.clone();
        let kv = cloud.kv.clone();
        cloud.sim.block_on(async move {
            for i in 0..20u8 {
                // Faults are allowed (and expected) under a hostile plan.
                let _ = blob
                    .put(&host, "b", &format!("k{i}"), Bytes::from(vec![i; 64]))
                    .await;
                let _ = kv.put(&host, "t", &format!("k{i}"), Bytes::from(vec![i])).await;
            }
        });
        cloud.recorder.digest()
    }

    fn stormy() -> FaultPlan {
        let mut plan = FaultPlan::hostile();
        // Crank the storage-tier probabilities so 40 ops are guaranteed
        // to hit faults at any seed.
        plan.kv.throttle_prob = 0.5;
        plan.blob.unavailable_prob = 0.5;
        plan
    }

    #[test]
    fn calm_plan_is_invisible() {
        // Applying an all-zero plan must not perturb the RNG schedule.
        assert_eq!(digest_of(None, 7), digest_of(Some(&FaultPlan::calm()), 7));
    }

    #[test]
    fn hostile_plan_injects_faults_deterministically() {
        let plan = stormy();
        let a = digest_of(Some(&plan), 7);
        let b = digest_of(Some(&plan), 7);
        assert_eq!(a, b, "same seed, same plan => same digest");
        assert!(a.contains("kv.throttled"), "throttling fired:\n{a}");
        assert!(a.contains("blob.unavailable"), "503s fired:\n{a}");
        assert_ne!(
            a,
            digest_of(None, 7),
            "a hostile plan should actually change behaviour"
        );
    }

    #[test]
    fn storms_evict_idle_containers() {
        use faasim_faas::FunctionSpec;
        let mut plan = FaultPlan::calm();
        plan.storms.push(SimDuration::from_secs(30));
        let cloud = plan.build(CloudProfile::aws_2018().exact(), 3);
        cloud.faas.register(FunctionSpec::new(
            "f",
            128,
            SimDuration::from_secs(10),
            |_ctx, _| async move { Ok(Bytes::new()) },
        ));
        let faas = cloud.faas.clone();
        let sim = cloud.sim.clone();
        cloud.sim.block_on(async move {
            faas.invoke("f", Bytes::new()).await.result.unwrap();
            sim.sleep(SimDuration::from_secs(60)).await;
            // The storm at t=30s evicted the idle container, so this
            // invocation is cold again.
            faas.invoke("f", Bytes::new()).await.result.unwrap();
        });
        assert_eq!(cloud.recorder.counter("faas.chaos_evicted"), 1);
        assert_eq!(cloud.recorder.counter("faas.invoke.cold"), 2);
    }
}
