//! Experiment E6 — §3's per-function network bandwidth under container
//! packing: "a single Lambda function can achieve on average 538 Mbps ...
//! With 20 Lambda functions, average network bandwidth was 28.7 Mbps".

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use faasim_faas::FunctionSpec;
use faasim_payload::Payload;
use faasim_simcore::{join_all, SimDuration};

use crate::cloud::{Cloud, CloudProfile};
use crate::experiments::clients::{plain, Backend, Invoker, Run};
use crate::experiments::probe::ExperimentProbe;
use crate::report::{PaperRow, Table};

/// Parameters of the bandwidth sweep.
#[derive(Clone, Debug)]
pub struct BandwidthParams {
    /// Concurrency levels to measure.
    pub concurrency_levels: Vec<usize>,
    /// Bytes each function transfers per measurement.
    pub transfer_bytes: u64,
    /// Lambda memory (affects packing only; 640 MB packs 20 per host).
    pub memory_mb: u64,
}

impl Default for BandwidthParams {
    fn default() -> Self {
        BandwidthParams {
            concurrency_levels: vec![1, 2, 4, 8, 12, 16, 20],
            transfer_bytes: 25_000_000, // 200 Mbit per function
            memory_mb: 640,
        }
    }
}

impl BandwidthParams {
    /// Reduced scale for tests.
    pub fn quick() -> BandwidthParams {
        BandwidthParams {
            concurrency_levels: vec![1, 20],
            transfer_bytes: 5_000_000,
            ..BandwidthParams::default()
        }
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct BandwidthPoint {
    /// Concurrent functions.
    pub concurrency: usize,
    /// Mean per-function achieved bandwidth, Mbps.
    pub per_function_mbps: f64,
    /// Aggregate bandwidth, Mbps.
    pub aggregate_mbps: f64,
    /// Hosts the containers landed on.
    pub hosts_used: usize,
}

/// The sweep.
#[derive(Clone, Debug)]
pub struct BandwidthResult {
    /// Points in ascending concurrency.
    pub points: Vec<BandwidthPoint>,
    /// Byte-exact replay probe (one capture per concurrency level).
    pub probe: ExperimentProbe,
}

impl BandwidthResult {
    /// Point at a given concurrency.
    pub fn at(&self, concurrency: usize) -> &BandwidthPoint {
        self.points
            .iter()
            .find(|p| p.concurrency == concurrency)
            .unwrap_or_else(|| panic!("no point at concurrency {concurrency}"))
    }

    /// The paper's §3(2) figures, each beside this run's. Needs the
    /// points at 1 and 20 concurrent functions.
    pub fn paper_rows(&self) -> Vec<PaperRow> {
        let mbps = |n| self.at(n).per_function_mbps;
        vec![
            PaperRow::new("single function Mbps", 538.0, mbps(1), "Mbps"),
            PaperRow::new("20 functions, per-function Mbps", 28.7, mbps(20), "Mbps"),
        ]
    }

    /// Render as the figure's data series.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Per-function network bandwidth under packing (cf. §3(2))",
            &["concurrent fns", "per-fn Mbps", "aggregate Mbps", "hosts"],
        );
        for p in &self.points {
            t.row(&[
                p.concurrency.to_string(),
                format!("{:.1}", p.per_function_mbps),
                format!("{:.1}", p.aggregate_mbps),
                p.hosts_used.to_string(),
            ]);
        }
        t.render()
    }
}

/// What one download may take, retries included.
const DOWNLOAD_BUDGET: SimDuration = SimDuration::from_secs(3_600);

/// `k` concurrent functions of `memory_mb` each pull `bytes` through their
/// host's NIC on a fresh cloud (so placement starts clean). Returns the
/// mean rate a function achieved, in Mbps, and the cloud, closed. A rate
/// is recorded after the transfer's last await, so an invocation that is
/// cut short and retried leaves one rate, not two.
fn measure<B: Backend>(
    run: &mut Run<B>,
    scope: &str,
    seed: u64,
    memory_mb: u64,
    k: usize,
    bytes: u64,
) -> (f64, Cloud) {
    let (cloud, _, invoker) = run.open(CloudProfile::aws_2018().exact(), seed);
    let rates: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
    let r = rates.clone();
    cloud.faas.register(FunctionSpec::new(
        "download",
        memory_mb,
        SimDuration::from_secs(900),
        move |ctx, _| {
            let r = r.clone();
            async move {
                let t0 = ctx.sim().now();
                ctx.host().nic_transfer(bytes).await;
                let secs = (ctx.sim().now() - t0).as_secs_f64();
                r.borrow_mut().push(bytes as f64 * 8.0 / secs / 1e6);
                Ok(Bytes::new())
            }
        },
    ));
    let sim = cloud.sim.clone();
    let failures: Vec<String> = cloud.sim.block_on(async move {
        let (by, nothing) = (sim.now() + DOWNLOAD_BUDGET, Payload::default());
        let downloads = (0..k).map(|_| invoker.call("download", &nothing, by));
        let done = join_all(downloads.collect()).await;
        done.into_iter().filter_map(Result::err).collect()
    });
    let rates = rates.borrow();
    run.check(scope, rates.len() + failures.len() == k, || {
        format!("{} rates recorded for {k} downloads, {} failed", rates.len(), failures.len())
    });
    run.check(scope, rates.iter().all(|&r| r.is_finite() && r > 0.0), || {
        "non-positive rate recorded".to_owned()
    });
    run.fail(scope, failures);
    run.close(scope, &cloud);
    (rates.iter().sum::<f64>() / rates.len().max(1) as f64, cloud)
}

/// Run the sweep.
pub fn run(params: &BandwidthParams, seed: u64) -> BandwidthResult {
    plain(|run| run_on(run, params, seed))
}

/// The sweep on any backend: a download that fails leaves an entry in
/// `run.failures` and no rate.
pub fn run_on<B: Backend>(run: &mut Run<B>, params: &BandwidthParams, seed: u64) -> BandwidthResult {
    let mut points = Vec::new();
    for (i, &k) in params.concurrency_levels.iter().enumerate() {
        let scope = format!("bandwidth/{k}");
        let (per_fn, cloud) =
            measure(run, &scope, seed + i as u64, params.memory_mb, k, params.transfer_bytes);
        points.push(BandwidthPoint {
            concurrency: k,
            per_function_mbps: per_fn,
            aggregate_mbps: per_fn * k as f64,
            hosts_used: cloud.faas.host_count(),
        });
    }
    BandwidthResult {
        points,
        probe: run.probe.clone(),
    }
}

/// A second sweep, after Wang et al. (the source of the paper's §3(2)
/// numbers): per-function bandwidth as a function of *function memory* at
/// saturating concurrency. Memory buys isolation indirectly — a bigger
/// function packs fewer neighbors per host VM, so each one keeps a larger
/// NIC share.
#[derive(Clone, Debug)]
pub struct MemorySweepParams {
    /// Memory sizes to sweep (MB).
    pub memory_mbs: Vec<u64>,
    /// Concurrent functions per point (enough to saturate a host).
    pub concurrency: usize,
    /// Bytes each function transfers.
    pub transfer_bytes: u64,
}

impl Default for MemorySweepParams {
    fn default() -> Self {
        MemorySweepParams {
            memory_mbs: vec![128, 320, 640, 1_024, 1_536, 3_008],
            concurrency: 20,
            transfer_bytes: 25_000_000,
        }
    }
}

impl MemorySweepParams {
    /// Reduced scale for tests.
    pub fn quick() -> MemorySweepParams {
        MemorySweepParams {
            memory_mbs: vec![640, 3_008],
            transfer_bytes: 5_000_000,
            ..MemorySweepParams::default()
        }
    }
}

/// One memory-sweep point.
#[derive(Clone, Debug)]
pub struct MemorySweepPoint {
    /// Function memory (MB).
    pub memory_mb: u64,
    /// Containers that fit on one host VM at this size.
    pub containers_per_host: usize,
    /// Mean per-function bandwidth, Mbps.
    pub per_function_mbps: f64,
}

/// The memory sweep.
#[derive(Clone, Debug)]
pub struct MemorySweepResult {
    /// Points in ascending memory order.
    pub points: Vec<MemorySweepPoint>,
    /// Byte-exact replay probe (one capture per memory size).
    pub probe: ExperimentProbe,
}

impl MemorySweepResult {
    /// Point at a memory size.
    pub fn at(&self, memory_mb: u64) -> &MemorySweepPoint {
        self.points
            .iter()
            .find(|p| p.memory_mb == memory_mb)
            .unwrap_or_else(|| panic!("no point at {memory_mb} MB"))
    }

    /// Render as a table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Per-function bandwidth vs function memory at 20-way concurrency",
            &["memory (MB)", "containers/host", "per-fn Mbps"],
        );
        for p in &self.points {
            t.row(&[
                p.memory_mb.to_string(),
                p.containers_per_host.to_string(),
                format!("{:.1}", p.per_function_mbps),
            ]);
        }
        t.render()
    }
}

/// Run the memory sweep.
pub fn run_memory_sweep(params: &MemorySweepParams, seed: u64) -> MemorySweepResult {
    plain(|run| {
        let mut points = Vec::new();
        for (i, &memory_mb) in params.memory_mbs.iter().enumerate() {
            let scope = format!("bandwidth/{memory_mb}MB");
            let (concurrency, bytes) = (params.concurrency, params.transfer_bytes);
            let (per_function_mbps, cloud) =
                measure(run, &scope, seed + i as u64, memory_mb, concurrency, bytes);
            let profile = cloud.faas.profile();
            let by_mem = (profile.host_mem_mb / memory_mb).max(1) as usize;
            points.push(MemorySweepPoint {
                memory_mb,
                containers_per_host: by_mem.min(profile.max_containers_per_host),
                per_function_mbps,
            });
        }
        MemorySweepResult {
            points,
            probe: run.probe.clone(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_bandwidth_collapse() {
        let r = run(&BandwidthParams::quick(), 42);
        // §3(2): 538 Mbps alone, 28.7 Mbps with 20 co-located functions.
        let solo = r.at(1).per_function_mbps;
        assert!((solo - 538.0).abs() < 5.0, "solo {solo} Mbps");
        let packed = r.at(20).per_function_mbps;
        assert!((packed - 28.7).abs() < 1.0, "packed {packed} Mbps");
        // 2.5 orders of magnitude slower than an SSD, per the paper: the
        // collapse itself is ~18.7x.
        let collapse = solo / packed;
        assert!((15.0..22.0).contains(&collapse), "collapse {collapse}x");
        assert_eq!(r.at(20).hosts_used, 1, "all twenty packed on one host");
        assert!(r.render().contains("per-fn Mbps"));
    }

    #[test]
    fn memory_buys_bandwidth_through_packing() {
        let r = run_memory_sweep(&MemorySweepParams::quick(), 42);
        let small = r.at(640);
        let big = r.at(3_008);
        // 640 MB packs 20/host (count cap); 3,008 MB packs 5/host (memory
        // cap), so each big function keeps ~4x the NIC share.
        assert_eq!(small.containers_per_host, 20);
        assert_eq!(big.containers_per_host, 5);
        assert!((small.per_function_mbps - 28.7).abs() < 1.0, "{small:?}");
        assert!(
            (big.per_function_mbps - 574.0 / 5.0).abs() < 6.0,
            "{big:?}"
        );
        assert!(r.render().contains("containers/host"));
    }

    #[test]
    fn per_function_bandwidth_is_monotonically_nonincreasing() {
        let params = BandwidthParams {
            concurrency_levels: vec![1, 2, 4, 8, 20],
            transfer_bytes: 5_000_000,
            memory_mb: 640,
        };
        let r = run(&params, 7);
        for w in r.points.windows(2) {
            assert!(
                w[1].per_function_mbps <= w[0].per_function_mbps + 1e-6,
                "bandwidth rose from {:?} to {:?}",
                w[0],
                w[1]
            );
        }
    }
}
