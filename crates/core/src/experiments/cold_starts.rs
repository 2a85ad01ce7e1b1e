//! Ablation A6 — §3 constraint (1) quantified: how the request
//! inter-arrival time determines the cold-start fraction (and therefore
//! tail latency), under the 2018 sandbox and under Firecracker
//! (footnote 5).
//!
//! The mechanism: a container stays warm for the platform's keep-alive
//! window; arrivals sparser than the window always cold-start. Bursty
//! concurrency also cold-starts: `k` simultaneous requests need `k`
//! containers no matter how warm one of them is.

use faasim_faas::FunctionSpec;
use faasim_payload::Payload;
use faasim_simcore::{nearest_rank, SimDuration};

use crate::cloud::CloudProfile;
use crate::experiments::clients::{echo, plain, Backend, Run, Trials};
use crate::experiments::probe::ExperimentProbe;
use crate::report::{fmt_latency, Table};

/// Parameters of the cold-start study.
#[derive(Clone, Debug)]
pub struct ColdStartParams {
    /// Inter-arrival times to sweep.
    pub inter_arrivals: Vec<SimDuration>,
    /// Invocations per sweep point.
    pub invocations: usize,
    /// Use Firecracker-era cold starts.
    pub firecracker: bool,
    /// Reserve this many always-warm containers (the §4 "SLO" knob;
    /// AWS's later provisioned concurrency). 0 = off.
    pub provisioned: usize,
    /// How long an invocation holds its container (the study's ping:
    /// not at all).
    pub hold: SimDuration,
}

/// What one arrival may take, retries included.
const ARRIVAL_BUDGET: SimDuration = SimDuration::from_secs(120);

impl Default for ColdStartParams {
    fn default() -> Self {
        ColdStartParams {
            inter_arrivals: vec![
                SimDuration::from_secs(1),
                SimDuration::from_secs(60),
                SimDuration::from_mins(5),
                SimDuration::from_mins(9),
                SimDuration::from_mins(11),
                SimDuration::from_mins(20),
            ],
            invocations: 50,
            firecracker: false,
            provisioned: 0,
            hold: SimDuration::ZERO,
        }
    }
}

impl ColdStartParams {
    /// Reduced scale for tests.
    pub fn quick() -> ColdStartParams {
        ColdStartParams {
            inter_arrivals: vec![SimDuration::from_secs(1), SimDuration::from_mins(20)],
            invocations: 10,
            ..ColdStartParams::default()
        }
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct ColdStartPoint {
    /// Time between requests.
    pub inter_arrival: SimDuration,
    /// Fraction of invocations that cold-started.
    pub cold_fraction: f64,
    /// Mean invocation latency.
    pub mean_latency: SimDuration,
    /// Median invocation latency.
    pub p50_latency: SimDuration,
    /// p99 invocation latency.
    pub p99_latency: SimDuration,
}

/// The sweep.
#[derive(Clone, Debug)]
pub struct ColdStartResult {
    /// Points in ascending inter-arrival order.
    pub points: Vec<ColdStartPoint>,
    /// Byte-exact replay probe (one capture per sweep point).
    pub probe: ExperimentProbe,
}

impl ColdStartResult {
    /// Point for an inter-arrival time.
    pub fn at(&self, inter_arrival: SimDuration) -> &ColdStartPoint {
        self.points
            .iter()
            .find(|p| p.inter_arrival == inter_arrival)
            .unwrap_or_else(|| panic!("no point at {inter_arrival}"))
    }

    /// Render the sweep.
    pub fn render(&self, title: &str) -> String {
        let mut t = Table::new(title, &["inter-arrival", "cold %", "mean", "p50", "p99"]);
        for p in &self.points {
            t.row(&[
                fmt_latency(p.inter_arrival),
                format!("{:.0}%", p.cold_fraction * 100.0),
                fmt_latency(p.mean_latency),
                fmt_latency(p.p50_latency),
                fmt_latency(p.p99_latency),
            ]);
        }
        t.render()
    }
}

/// Run the sweep.
pub fn run(params: &ColdStartParams, seed: u64) -> ColdStartResult {
    plain(|run| run_on(run, params, seed))
}

/// The sweep on any backend: an arrival that fails leaves an entry in
/// `run.failures` where it would have left a sample.
pub fn run_on<B: Backend>(run: &mut Run<B>, params: &ColdStartParams, seed: u64) -> ColdStartResult {
    let mut points = Vec::new();
    for (i, &gap) in params.inter_arrivals.iter().enumerate() {
        let mut profile = CloudProfile::aws_2018().exact();
        if params.firecracker {
            profile = profile.firecracker();
        }
        let (cloud, _, invoker) = run.open(profile, seed + i as u64);
        let hold = params.hold;
        cloud.faas.register(FunctionSpec::new(
            "ping",
            256,
            SimDuration::from_secs(30),
            move |ctx, p| async move {
                if hold > SimDuration::ZERO {
                    ctx.sim().sleep(hold).await;
                }
                Ok(p)
            },
        ));
        if params.provisioned > 0 {
            cloud.faas.set_provisioned_concurrency("ping", params.provisioned);
        }
        let faas = cloud.faas.clone();
        let sim = cloud.sim.clone();
        let n = params.invocations;
        let (colds, mut latencies, Trials { hist, failures }) = cloud.sim.block_on(async move {
            let mut colds = 0usize;
            let mut latencies = Vec::with_capacity(n);
            let mut trials = Trials::default();
            for t in 0..n {
                // Arrivals sparser than the keep-alive window meet a
                // reclaimed container: reap like the platform would.
                faas.reap_idle();
                let out = echo(&invoker, &sim, "ping", &Payload::default(), ARRIVAL_BUDGET).await;
                if let Ok(out) = &out {
                    colds += usize::from(out.cold);
                    latencies.push(out.total.as_secs_f64());
                }
                trials.record(t, out.map(|out| out.total));
                sim.sleep(gap).await;
            }
            (colds, latencies, trials)
        });
        latencies.sort_by(f64::total_cmp);
        // Bill the reservation (a no-op when nothing was reserved).
        cloud.faas.release_provisioned_concurrency("ping");
        let scope = format!("cold_starts/gap{i}");
        run.fail(&scope, failures);
        run.close(&scope, &cloud);
        points.push(ColdStartPoint {
            inter_arrival: gap,
            cold_fraction: colds as f64 / params.invocations as f64,
            mean_latency: SimDuration::from_secs_f64(hist.mean()),
            p50_latency: SimDuration::from_secs_f64(nearest_rank(&latencies, 0.50)),
            p99_latency: SimDuration::from_secs_f64(nearest_rank(&latencies, 0.99)),
        });
    }
    ColdStartResult {
        points,
        probe: run.probe.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_arrivals_always_cold_start() {
        let r = run(&ColdStartParams::quick(), 42);
        let hot = r.at(SimDuration::from_secs(1));
        let cold = r.at(SimDuration::from_mins(20));
        // Back-to-back requests: only the very first is cold.
        assert!(hot.cold_fraction <= 0.11, "hot {}", hot.cold_fraction);
        // Past the keep-alive window: every request is cold.
        assert!((cold.cold_fraction - 1.0).abs() < 1e-9);
        // Cold means ~5.3 s instead of ~0.3 s in 2018; the hot point's
        // *median* is the warm path even though its mean carries the one
        // initial cold start.
        assert!(cold.mean_latency.as_secs_f64() > 5.0);
        assert!(hot.p50_latency.as_secs_f64() < 0.35);
        assert!(hot.mean_latency < cold.mean_latency);
    }

    #[test]
    fn provisioned_concurrency_holds_the_slo() {
        let r = run(
            &ColdStartParams {
                provisioned: 1,
                ..ColdStartParams::quick()
            },
            44,
        );
        // Even 20-minute gaps never cold-start a reserved container.
        let cold_gap = r.at(SimDuration::from_mins(20));
        assert_eq!(cold_gap.cold_fraction, 0.0);
        assert!(cold_gap.mean_latency.as_secs_f64() < 0.35);
    }

    /// The reservation is on the bill: one 256 MB container for the whole
    /// run, which is `invocations` gaps plus their (warm) latencies.
    #[test]
    fn provisioned_container_is_billed_for_the_run() {
        let params = ColdStartParams {
            provisioned: 1,
            ..ColdStartParams::quick()
        };
        let r = run(&params, 44);
        assert_eq!(r.probe.bills.len(), params.inter_arrivals.len());
        for (bill, p) in r.probe.bills.iter().zip(&r.points) {
            let line = bill
                .lines()
                .find(|l| l.contains("provisioned-gb-seconds"))
                .unwrap_or_else(|| panic!("no reservation line in\n{bill}"));
            let gb_s: f64 = line.split_whitespace().nth(2).unwrap()[1..]
                .parse()
                .unwrap();
            let n = params.invocations as f64;
            let run_secs = n * (p.inter_arrival + p.mean_latency).as_secs_f64();
            assert!(
                (gb_s - 0.25 * run_secs).abs() <= 0.1,
                "{gb_s} GB-s for a {run_secs} s run"
            );
        }
    }

    #[test]
    fn firecracker_shrinks_the_cold_penalty_only() {
        let base = run(&ColdStartParams::quick(), 43);
        let fc = run(
            &ColdStartParams {
                firecracker: true,
                ..ColdStartParams::quick()
            },
            43,
        );
        let gap = SimDuration::from_mins(20);
        // Same cold *fraction* — Firecracker doesn't change the lifecycle.
        assert_eq!(base.at(gap).cold_fraction, fc.at(gap).cold_fraction);
        // Much smaller cold *penalty*: ~0.43 s vs ~5.3 s.
        assert!(fc.at(gap).mean_latency.as_secs_f64() < 0.6);
        assert!(base.at(gap).mean_latency.as_secs_f64() > 5.0);
        // Warm latency unchanged: the invocation path still dominates.
        let hot = SimDuration::from_secs(1);
        assert_eq!(base.at(hot).p50_latency, fc.at(hot).p50_latency);
    }
}
