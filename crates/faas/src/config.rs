//! FaaS platform configuration and calibration.

use faasim_net::NicConfig;
use faasim_simcore::{mbps, LatencyModel, SimDuration};

/// Platform-wide knobs, calibrated to AWS Lambda as measured in Fall 2018
/// (the paper's §3 constraints (1)–(4) and Table 1).
#[derive(Clone, Debug)]
pub struct FaasProfile {
    /// End-to-end invocation-path overhead for a warm invocation (request
    /// routing, dispatch, runtime entry/exit). Table 1 measures 303 ms for
    /// a no-op on a 1 KB argument.
    pub invoke_overhead: LatencyModel,
    /// Extra latency when no warm container exists: provisioning a
    /// sandbox VM + language runtime init (2018 Lambda: seconds).
    pub cold_start_extra: LatencyModel,
    /// Additional dispatch latency on the queue-trigger path (event-source
    /// mapping, batching window). Calibrated so §3.1 CS-2's optimized
    /// Lambda pipeline lands at 447 ms/batch.
    pub queue_trigger_overhead: LatencyModel,
    /// Hard cap on a single invocation (§3 constraint (1): 15 minutes).
    pub max_lifetime: SimDuration,
    /// How long an idle container stays warm before the platform reclaims
    /// it (undocumented by AWS; commonly observed tens of minutes).
    pub container_idle_timeout: SimDuration,
    /// Memory that buys one full reference core (AWS documents 1,792 MB ≙
    /// 1 vCPU).
    pub mem_per_vcpu_mb: u64,
    /// CPU efficiency factor relative to a dedicated core (scheduling and
    /// virtualization overhead on the shared function host). Calibrated
    /// with `mem_per_vcpu_mb` to CS-1's 0.59 s/iteration at 640 MB.
    pub cpu_efficiency: f64,
    /// Maximum function memory (§3: "the largest Lambda instance only
    /// allows for 3 GB of RAM").
    pub max_memory_mb: u64,
    /// NIC of each function host VM. §3(2): one function sees 538 Mbps;
    /// twenty co-located functions average 28.7 Mbps ⇒ 574 Mbps shared.
    pub host_nic: NicConfig,
    /// Memory capacity of a function host VM (packing constraint).
    pub host_mem_mb: u64,
    /// Maximum containers packed per host VM regardless of memory —
    /// AWS observably packs a user's functions onto few hosts (§3(2)).
    pub max_containers_per_host: usize,
    /// Account-wide concurrent-execution limit (2018 default: 1,000).
    pub account_concurrency: usize,
    /// Billing granularity (2018: 100 ms, rounded up).
    pub billing_increment: SimDuration,
}

impl FaasProfile {
    /// The Fall-2018 AWS Lambda calibration used by every experiment.
    pub fn aws_2018() -> FaasProfile {
        FaasProfile {
            invoke_overhead: LatencyModel::LogNormal {
                mean: SimDuration::from_micros(302_000),
                cv: 0.15,
                floor: SimDuration::from_millis(50),
            },
            cold_start_extra: LatencyModel::LogNormal {
                mean: SimDuration::from_secs(5),
                cv: 0.3,
                floor: SimDuration::from_millis(500),
            },
            queue_trigger_overhead: LatencyModel::LogNormal {
                mean: SimDuration::from_micros(126_000),
                cv: 0.2,
                floor: SimDuration::from_millis(20),
            },
            max_lifetime: SimDuration::from_secs(900),
            container_idle_timeout: SimDuration::from_mins(10),
            mem_per_vcpu_mb: 1_792,
            cpu_efficiency: 0.95,
            max_memory_mb: 3_008,
            host_nic: NicConfig {
                capacity: mbps(574.0),
                per_flow_cap: Some(mbps(538.0)),
            },
            host_mem_mb: 16 * 1024,
            max_containers_per_host: 20,
            account_concurrency: 1_000,
            billing_increment: SimDuration::from_millis(100),
        }
    }

    /// The Firecracker ablation (§3 footnote 5): microVM startup of
    /// ~125 ms replaces the multi-second cold start. Everything else
    /// unchanged — which is exactly the paper's point.
    pub fn firecracker(mut self) -> FaasProfile {
        self.cold_start_extra = LatencyModel::LogNormal {
            mean: SimDuration::from_micros(125_000),
            cv: 0.2,
            floor: SimDuration::from_millis(50),
        };
        self
    }

    /// Collapse all latency models to their means for exact reproduction.
    pub fn exact(mut self) -> FaasProfile {
        self.invoke_overhead = self.invoke_overhead.to_constant();
        self.cold_start_extra = self.cold_start_extra.to_constant();
        self.queue_trigger_overhead = self.queue_trigger_overhead.to_constant();
        self
    }

    /// The CPU fraction a function of `memory_mb` receives, relative to a
    /// reference core.
    pub fn cpu_fraction(&self, memory_mb: u64) -> f64 {
        (memory_mb as f64 / self.mem_per_vcpu_mb as f64).min(2.0) * self.cpu_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fraction_calibration() {
        let p = FaasProfile::aws_2018();
        // 640 MB: the CS-1 configuration. A 0.2 reference-core-second
        // iteration must take ~0.59 s.
        let frac = p.cpu_fraction(640);
        let secs = 0.2 / frac;
        assert!((secs - 0.59).abs() < 0.01, "iteration {secs}");
        // Fraction is capped: giant memory doesn't buy unbounded CPU.
        assert!(p.cpu_fraction(100_000) <= 2.0);
    }

    #[test]
    fn firecracker_only_changes_cold_start() {
        let base = FaasProfile::aws_2018();
        let fc = FaasProfile::aws_2018().firecracker();
        assert_eq!(
            fc.cold_start_extra.mean(),
            SimDuration::from_micros(125_000)
        );
        assert_eq!(fc.invoke_overhead.mean(), base.invoke_overhead.mean());
        assert_eq!(fc.max_lifetime, base.max_lifetime);
    }

    #[test]
    fn exact_collapses_models() {
        let p = FaasProfile::aws_2018().exact();
        assert!(matches!(p.invoke_overhead, LatencyModel::Constant(_)));
        assert_eq!(p.invoke_overhead.mean(), SimDuration::from_micros(302_000));
    }
}
