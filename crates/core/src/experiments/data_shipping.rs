//! Ablation A5 — the paper's central architectural claim, quantified:
//! "FaaS routinely 'ships data to code' rather than 'shipping code to
//! data.' This is a recurring architectural anti-pattern among system
//! designers, which database aficionados seem to need to point out each
//! generation."
//!
//! The same log-aggregation job (count HTTP statuses across a dataset)
//! is executed two ways:
//!
//! - **data-to-code**: a Lambda function pulls every object through its
//!   own (shared, capped) NIC and aggregates in the handler, chaining
//!   executions when the 15-minute guillotine hits;
//! - **code-to-data**: the same Lambda merely *orchestrates* — it calls
//!   the autoscaling query service, which scans next to the data (§2's
//!   orchestration pattern, §4's "fluid code and data placement").
//!
//! Swept over dataset size there is a crossover: below ~100 MB the query
//! service's ~1 s planning latency makes pulling the data directly
//! *faster* — but the data-shipping tax grows linearly with the data
//! while the pushed-down scan grows with `size / parallelism`, so the
//! gap widens without bound. The bench prints the crossover and the
//! per-size ratio.
//!
//! Log bodies are [`Payload::synthetic`]: the simulator transfers, bills,
//! and scans them by *length*, while the aggregation kernels count lines
//! analytically (per-pattern cost, multiplied by repeats). The
//! code-to-data arm runs the query service's streaming scan pipeline —
//! partition-parallel workers issuing chunked ranged reads and folding
//! each chunk as it arrives, transfer overlapped with scan — so the
//! default sweep's 30 GB point (where the real 15-minute guillotine
//! forces execution chaining) exercises the paper-scale streaming path
//! end to end yet takes milliseconds of wall-clock, never materializing
//! 30 GB of RAM.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use faasim_faas::{FnError, FunctionSpec};
use faasim_payload::Payload;
use faasim_query::{Aggregate, QuerySpec};
use faasim_simcore::SimDuration;

use crate::cloud::{Cloud, CloudProfile};
use crate::experiments::clients::{chain, plain, Backend, Clients, Plain, Run, UNBOUNDED};
use crate::experiments::probe::ExperimentProbe;
use crate::report::{fmt_latency, fmt_ratio, Table};

/// Parameters of the data-shipping comparison.
#[derive(Clone, Debug)]
pub struct DataShippingParams {
    /// Dataset sizes (MB) to sweep.
    pub dataset_mbs: Vec<u64>,
    /// Object size in MB.
    pub object_mb: u64,
    /// Override the platform's 15-minute execution cap (used by tests to
    /// exercise execution chaining without simulating tens of GB).
    pub lifetime_cap: Option<SimDuration>,
}

impl Default for DataShippingParams {
    fn default() -> Self {
        DataShippingParams {
            dataset_mbs: vec![10, 100, 1_000, 10_000, 30_000],
            object_mb: 10,
            lifetime_cap: None,
        }
    }
}

impl DataShippingParams {
    /// Reduced scale for tests.
    pub fn quick() -> DataShippingParams {
        DataShippingParams {
            dataset_mbs: vec![10, 250],
            object_mb: 10,
            lifetime_cap: None,
        }
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct DataShippingPoint {
    /// Dataset size in MB.
    pub dataset_mb: u64,
    /// Latency of the Lambda-pulls-everything variant.
    pub data_to_code: SimDuration,
    /// Lambda executions the data-to-code variant needed (15-min cap).
    pub data_to_code_executions: u64,
    /// Cost of the data-to-code variant (Lambda GB-s + storage requests).
    pub data_to_code_cost: f64,
    /// Latency of the orchestrated query variant.
    pub code_to_data: SimDuration,
    /// Cost of the code-to-data variant (Lambda + query TB scanned).
    pub code_to_data_cost: f64,
}

impl DataShippingPoint {
    /// How much faster shipping code to data is at this size.
    pub fn speedup(&self) -> f64 {
        self.data_to_code.as_secs_f64() / self.code_to_data.as_secs_f64()
    }
}

/// The sweep.
#[derive(Clone, Debug)]
pub struct DataShippingResult {
    /// Points in ascending dataset size.
    pub points: Vec<DataShippingPoint>,
    /// Byte-exact replay probe (two captures per sweep point: the
    /// data-to-code cloud, then the code-to-data cloud).
    pub probe: ExperimentProbe,
}

impl DataShippingResult {
    /// Point at a given size.
    pub fn at(&self, dataset_mb: u64) -> &DataShippingPoint {
        self.points
            .iter()
            .find(|p| p.dataset_mb == dataset_mb)
            .unwrap_or_else(|| panic!("no point at {dataset_mb} MB"))
    }

    /// Render the sweep.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Data-to-code (Lambda pulls) vs code-to-data (pushed-down query)",
            &[
                "dataset",
                "data-to-code",
                "execs",
                "cost",
                "code-to-data",
                "cost",
                "speedup",
            ],
        );
        for p in &self.points {
            t.row(&[
                format!("{} MB", p.dataset_mb),
                fmt_latency(p.data_to_code),
                p.data_to_code_executions.to_string(),
                format!("${:.4}", p.data_to_code_cost),
                fmt_latency(p.code_to_data),
                format!("${:.4}", p.code_to_data_cost),
                fmt_ratio(p.speedup()),
            ]);
        }
        t.render()
    }
}

const LOG_LINE: &str = "GET /assets/app.js 200\n";

/// Open a cloud of `profile` holding the dataset in bucket `logs`.
/// Returns it with its clients, the object count and the lines per object.
fn populate<B: Backend>(
    run: &mut Run<B>,
    profile: CloudProfile,
    seed: u64,
    dataset_mb: u64,
    object_mb: u64,
) -> (Cloud, B::Clients, usize, u64) {
    let (cloud, clients, _) = run.open(profile, seed);
    cloud.blob.create_bucket("logs");
    let objects = (dataset_mb / object_mb).max(1) as usize;
    let lines_per_object = (object_mb * 1_000_000) / LOG_LINE.len() as u64;
    // Symbolic body: one 23-byte pattern repeated; O(1) to build and put,
    // regardless of object size.
    let body = Payload::synthetic(LOG_LINE, lines_per_object);
    let (c, host) = (clients.clone(), cloud.client_host());
    let failures: Vec<String> = cloud.sim.block_on(async move {
        let mut failures = Vec::new();
        for i in 0..objects {
            let key = format!("part-{i:05}");
            let put = c.blob(UNBOUNDED, |blob| blob.put(&host, "logs", &key, body.clone())).await;
            failures.extend(put.err().map(|e| format!("populate {key}: {e}")));
        }
        failures
    });
    run.fail("data_shipping", failures);
    cloud.ledger.reset(); // setup isn't part of either variant's bill
    (cloud, clients, objects, lines_per_object)
}

/// Run the sweep.
pub fn run(params: &DataShippingParams, seed: u64) -> DataShippingResult {
    plain(|run| {
        let mut points = Vec::new();
        for (i, &dataset_mb) in params.dataset_mbs.iter().enumerate() {
            let seed = seed + i as u64;
            let (d2c, execs, d2c_cost, expected) = data_to_code(run, params, dataset_mb, seed);
            let (c2d, c2d_cost) =
                run_code_to_data(run, dataset_mb, params.object_mb, seed + 1000, expected);
            points.push(DataShippingPoint {
                dataset_mb,
                data_to_code: d2c,
                data_to_code_executions: execs,
                data_to_code_cost: d2c_cost,
                code_to_data: c2d,
                code_to_data_cost: c2d_cost,
            });
        }
        DataShippingResult {
            points,
            probe: run.probe.clone(),
        }
    })
}

/// Variant 1, on any backend: the function pulls every object and counts
/// lines itself, chained across executions. Returns latency, executions,
/// cost and the line count the dataset holds; a count that differs from
/// it is an entry in `run.failures`. The cursor and the count advance
/// together between awaits, so an execution cut short mid-object counts
/// nothing twice.
pub fn data_to_code<B: Backend>(
    run: &mut Run<B>,
    params: &DataShippingParams,
    dataset_mb: u64,
    seed: u64,
) -> (SimDuration, u64, f64, u64) {
    let mut profile = CloudProfile::aws_2018().exact();
    if let Some(cap) = params.lifetime_cap {
        profile.faas.max_lifetime = cap;
    }
    let (cloud, clients, objects, lines_per_object) =
        populate(run, profile, seed, dataset_mb, params.object_mb);
    let expected = objects as u64 * lines_per_object;

    let progress = Rc::new(RefCell::new((0usize, 0u64))); // (next object, count)
    let p = progress.clone();
    cloud.faas.register(FunctionSpec::new(
        "aggregate",
        1_024,
        SimDuration::from_secs(900),
        move |ctx, payload| {
            let clients = clients.clone();
            let p = p.clone();
            async move {
                if payload.eq_bytes(b"warmup") {
                    return Ok(Bytes::new());
                }
                loop {
                    let next = p.borrow().0;
                    if next >= objects {
                        return Ok(Bytes::new());
                    }
                    let key = format!("part-{next:05}");
                    let body = clients
                        .blob(UNBOUNDED, |blob| blob.get(ctx.host(), "logs", &key))
                        .await
                        .map_err(FnError::Handler)?;
                    // Real aggregation semantics, analytic cost: a
                    // synthetic body counts its pattern's lines once and
                    // multiplies by repeats; inline bytes are scanned.
                    // Simulated time still charges ~1.6 Gbps over every
                    // byte either way.
                    let count = body.line_count();
                    ctx.cpu(SimDuration::from_secs_f64(
                        body.len() as f64 * 8.0 / faasim_simcore::gbps(1.6),
                    ))
                    .await;
                    let mut st = p.borrow_mut();
                    st.0 += 1;
                    st.1 += count;
                }
            }
        },
    ));
    // Steady state: the one-time container cold start is not part of the
    // data-movement comparison.
    let warm = cloud.faas.clone();
    cloud
        .sim
        .block_on(async move { warm.invoke("aggregate", Bytes::from_static(b"warmup")).await });
    let t0 = cloud.sim.now();
    let p = progress.clone();
    let left = move || (objects - p.borrow().0) as u64;
    let chained = chain(cloud.faas.clone(), "aggregate", left, |_| Payload::default());
    let executions = cloud.sim.block_on(chained).unwrap_or_else(|e| {
        run.fail("data_shipping", [e]);
        0
    });
    let counted = progress.borrow().1;
    run.check("data_shipping", counted == expected, || {
        format!("counted {counted} lines, expected {expected}")
    });
    let took = cloud.sim.now() - t0;
    run.close("data_shipping", &cloud);
    (took, executions, cloud.ledger.total(), expected)
}

/// Variant 2: the function orchestrates the query service.
fn run_code_to_data(
    run: &mut Run<Plain>,
    dataset_mb: u64,
    object_mb: u64,
    seed: u64,
    expected: u64,
) -> (SimDuration, f64) {
    let profile = CloudProfile::aws_2018().exact();
    let (cloud, ..) = populate(run, profile, seed, dataset_mb, object_mb);

    let query = cloud.query.clone();
    cloud.faas.register(FunctionSpec::new(
        "orchestrate",
        256, // tiny: it does no heavy lifting
        SimDuration::from_secs(900),
        move |ctx, payload| {
            let query = query.clone();
            async move {
                if payload.eq_bytes(b"warmup") {
                    return Ok(Bytes::new());
                }
                let out = query
                    .run(
                        ctx.host(),
                        QuerySpec::new("logs", "part-", Aggregate::CountAll),
                    )
                    .await
                    .expect("query");
                Ok(Bytes::from(
                    (out.rows[0].1 as u64).to_le_bytes().to_vec(),
                ))
            }
        },
    ));
    let faas = cloud.faas.clone();
    let warm = cloud.faas.clone();
    cloud
        .sim
        .block_on(async move { warm.invoke("orchestrate", Bytes::from_static(b"warmup")).await });
    let t0 = cloud.sim.now();
    let got = cloud.sim.block_on(async move {
        let out = faas.invoke("orchestrate", Bytes::new()).await;
        u64::from_le_bytes(
            out.result.expect("query result").bytes()[..8]
                .try_into()
                .unwrap(),
        )
    });
    assert_eq!(got, expected, "wrong aggregate");
    run.close("data_shipping", &cloud);
    (cloud.sim.now() - t0, cloud.ledger.total())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_to_data_wins_and_gap_grows() {
        let r = run(&DataShippingParams::quick(), 4242);
        let small = r.at(10);
        let large = r.at(250);
        // Both variants computed the same count (asserted inside run).
        // At 10 MB, the query service's planning latency makes
        // data-to-code outright faster (the crossover)...
        assert!(
            (0.1..1.2).contains(&small.speedup()),
            "small speedup {}",
            small.speedup()
        );
        // ...but already at 250 MB the pushed-down scan wins decisively,
        // and the gap keeps growing with the data (the tax is linear).
        assert!(large.speedup() > 3.0, "large speedup {}", large.speedup());
        assert!(
            large.speedup() > small.speedup() * 2.5,
            "gap did not grow: {} -> {}",
            small.speedup(),
            large.speedup()
        );
        assert!(r.render().contains("speedup"));
    }

    #[test]
    fn lifetime_cap_forces_chaining() {
        // With the platform cap shrunk to 10 s, pulling 500 MB cannot fit
        // in one execution: the data-to-code variant must chain. (At the
        // real 15-minute cap the same happens beyond ~20 GB — the bench
        // sweep's largest point shows the mechanism at paper scale.)
        let r = run(
            &DataShippingParams {
                dataset_mbs: vec![500],
                object_mb: 10,
                lifetime_cap: Some(SimDuration::from_secs(10)),
            },
            77,
        );
        let p = r.at(500);
        assert!(
            p.data_to_code_executions >= 2,
            "executions {}",
            p.data_to_code_executions
        );
    }

    #[test]
    fn real_cap_forces_chaining_at_paper_scale() {
        // At the *real* 900 s cap, pulling the default sweep's 30 GB
        // through a Lambda's NIC (~41 MB/s per blob connection) plus the
        // in-handler scan takes ~1000 s of simulated time: the guillotine
        // falls and the aggregation must chain across executions.
        // Symbolic payloads make this paper-scale point cheap enough to
        // assert in a unit test.
        let paper_mb = *DataShippingParams::default().dataset_mbs.last().unwrap();
        assert!(paper_mb >= 20_000, "paper-scale point shrank: {paper_mb} MB");
        let r = run(
            &DataShippingParams {
                dataset_mbs: vec![paper_mb],
                object_mb: 10,
                lifetime_cap: None,
            },
            7,
        );
        let p = r.at(paper_mb);
        assert!(
            p.data_to_code_executions >= 2,
            "executions {}",
            p.data_to_code_executions
        );
        assert!(
            p.data_to_code > SimDuration::from_secs(900),
            "d2c {:?}",
            p.data_to_code
        );
    }
}
