//! Experiment E1 — the paper's **Table 1**: the latency of
//! "communicating" 1 KB six different ways.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use faasim_faas::{FnError, FunctionSpec};
use faasim_kv::Consistency;
use faasim_net::Host;
use faasim_payload::Payload;
use faasim_simcore::{Histogram, SimDuration, SimTime};

use crate::cloud::{Cloud, CloudProfile};
use crate::experiments::clients::{
    chain, echo, plain, Backend, Clients, Run, Trials, UNBOUNDED,
};
use crate::experiments::probe::ExperimentProbe;
use crate::report::{fmt_latency, fmt_ratio, PaperRow, Table};

/// Parameters of the Table 1 reproduction (defaults match the paper's
/// trial counts).
#[derive(Clone, Debug)]
pub struct Table1Params {
    /// No-op Lambda invocations averaged (paper: 1,000).
    pub invocations: usize,
    /// Write+read pairs per storage medium (paper: 5,000).
    pub io_trials: usize,
    /// Socket roundtrips (paper: 10,000).
    pub rtt_trials: usize,
    /// Time limit of the long-running I/O functions (paper: the platform's
    /// 15-minute cap).
    pub lambda_time_limit: SimDuration,
    /// Payload size (paper: 1 KB).
    pub payload_bytes: usize,
    /// Use constant (mean) latencies so the table is exact.
    pub exact: bool,
    /// Override the platform profile (e.g. the Firecracker ablation).
    pub firecracker: bool,
}

impl Default for Table1Params {
    fn default() -> Self {
        Table1Params {
            invocations: 1_000,
            io_trials: 5_000,
            rtt_trials: 10_000,
            lambda_time_limit: SimDuration::from_secs(900),
            payload_bytes: 1_024,
            exact: true,
            firecracker: false,
        }
    }
}

impl Table1Params {
    /// A reduced-scale variant for unit/integration tests.
    pub fn quick() -> Table1Params {
        Table1Params {
            invocations: 50,
            io_trials: 100,
            rtt_trials: 200,
            ..Table1Params::default()
        }
    }
}

/// One Table 1 column.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Column label, e.g. `"Lambda I/O (S3)"`.
    pub label: &'static str,
    /// Mean latency.
    pub mean: SimDuration,
    /// Number of samples.
    pub samples: usize,
}

/// The reproduced table.
#[derive(Clone, Debug)]
pub struct Table1Result {
    /// The six columns, in the paper's order.
    pub rows: Vec<Table1Row>,
    /// Byte-exact replay probe (the single cloud, captured at the end).
    pub probe: ExperimentProbe,
}

impl Table1Result {
    /// Latency of a row by label.
    pub fn mean_of(&self, label: &str) -> SimDuration {
        self.rows
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.mean)
            .unwrap_or_else(|| panic!("no row {label:?}"))
    }

    /// The best (lowest) mean.
    pub fn best(&self) -> SimDuration {
        self.rows.iter().map(|r| r.mean).min().expect("rows")
    }

    /// Ratio of a row to the best row (the paper's second line).
    pub fn ratio_of(&self, label: &str) -> f64 {
        self.mean_of(label).as_secs_f64() / self.best().as_secs_f64()
    }

    /// The paper's means, then its ratios, each beside this run's.
    pub fn paper_rows(&self) -> Vec<PaperRow> {
        let ms = |&(label, paper, _)| {
            PaperRow::new(label, paper, self.mean_of(label).as_secs_f64() * 1e3, "ms")
        };
        let ratio = |&(label, _, paper)| PaperRow::new(label, paper, self.ratio_of(label), "x");
        PAPER.iter().map(ms).chain(PAPER.iter().map(ratio)).collect()
    }

    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let best = self.best().as_secs_f64();
        let headers: Vec<&str> = std::iter::once("")
            .chain(self.rows.iter().map(|r| r.label))
            .collect();
        let mut t = Table::new("Table 1: Latency of communicating 1KB", &headers);
        let mut latency = vec!["Latency".to_owned()];
        latency.extend(self.rows.iter().map(|r| fmt_latency(r.mean)));
        t.row(&latency);
        let mut ratio = vec!["Compared to best".to_owned()];
        ratio.extend(
            self.rows
                .iter()
                .map(|r| fmt_ratio(r.mean.as_secs_f64() / best)),
        );
        t.row(&ratio);
        t.render()
    }
}

/// The paper's Table 1: column, mean latency in ms, ratio to the best.
const PAPER: [(&str, f64, f64); 6] = [
    ("Func. Invoc. (1KB)", 303.0, 1045.0),
    ("Lambda I/O (S3)", 108.0, 372.0),
    ("Lambda I/O (DynamoDB)", 11.0, 37.9),
    ("EC2 I/O (S3)", 106.0, 365.0),
    ("EC2 I/O (DynamoDB)", 11.0, 37.9),
    ("EC2 NW (0MQ)", 0.29, 1.0),
];

#[derive(Copy, Clone)]
enum Medium {
    Blob,
    Kv,
}

/// What one trial may take, retries included (the bare clients of
/// [`run`] never fail and ignore it).
const INVOKE_BUDGET: SimDuration = SimDuration::from_secs(120);
const IO_BUDGET: SimDuration = SimDuration::from_secs(60);
const RTT_BUDGET: SimDuration = SimDuration::from_secs(30);

/// One write of `body` under `key`, then one read of it, both by `by`.
async fn write_read<C: Clients>(
    clients: &C,
    medium: Medium,
    host: &Host,
    key: &str,
    body: &Payload,
    by: SimTime,
) -> Result<(), String> {
    match medium {
        Medium::Blob => {
            clients.blob(by, |blob| blob.put(host, "bench", key, body.clone())).await?;
            clients.blob(by, |blob| blob.get(host, "bench", key)).await?;
        }
        Medium::Kv => {
            clients.kv(by, |kv| kv.put(host, "bench", key, body.clone())).await?;
            clients.kv(by, |kv| kv.get(host, "bench", key, Consistency::Strong)).await?;
        }
    }
    Ok(())
}

/// Run the experiment.
pub fn run(params: &Table1Params, seed: u64) -> Table1Result {
    plain(|run| run_on(run, params, seed))
}

/// The experiment on any backend: a trial that fails leaves an entry in
/// `run.failures` where it would have left a sample.
pub fn run_on<B: Backend>(run: &mut Run<B>, params: &Table1Params, seed: u64) -> Table1Result {
    let mut profile = CloudProfile::aws_2018();
    if params.exact {
        profile = profile.exact();
    }
    if params.firecracker {
        profile = profile.firecracker();
    }
    let (cloud, clients, invoker) = run.open(profile, seed);
    let payload = Payload::from(Bytes::from(vec![0u8; params.payload_bytes]));
    cloud.blob.create_bucket("bench");
    cloud.kv.create_table("bench");

    let mut rows = Vec::new();
    let mut column = |run: &mut Run<B>, label: &'static str, trials: Trials| {
        run.fail(label, trials.failures);
        rows.push(Table1Row {
            label,
            mean: SimDuration::from_secs_f64(trials.hist.mean()),
            samples: trials.hist.count(),
        });
    };

    // --- Column 1: no-op function invocation on a 1KB argument ----------
    {
        cloud.faas.register(FunctionSpec::new(
            "noop",
            128,
            SimDuration::from_secs(60),
            |_ctx, payload| async move { Ok(payload) },
        ));
        let (sim, p, n) = (cloud.sim.clone(), payload.clone(), params.invocations);
        let trials = cloud.sim.block_on(async move {
            let mut trials = Trials::default();
            // Warm the container outside the measurement; across the
            // paper's 1,000-call average the one cold start washes out.
            if let Err(e) = echo(&invoker, &sim, "noop", &p, INVOKE_BUDGET).await {
                trials.failures.push(format!("warm-up: {e}"));
            }
            for i in 0..n {
                let out = echo(&invoker, &sim, "noop", &p, INVOKE_BUDGET).await;
                trials.record(i, out.map(|out| out.total));
            }
            trials
        });
        column(run, "Func. Invoc. (1KB)", trials);
    }

    // --- Columns 2 & 3: explicit I/O from a long-running Lambda ---------
    for (label, medium) in [
        ("Lambda I/O (S3)", Medium::Blob),
        ("Lambda I/O (DynamoDB)", Medium::Kv),
    ] {
        let trials = lambda_io(&cloud, &clients, medium, params, payload.clone());
        column(run, label, trials);
    }

    // --- Columns 4 & 5: the same I/O from an EC2 instance ---------------
    for (label, medium) in [
        ("EC2 I/O (S3)", Medium::Blob),
        ("EC2 I/O (DynamoDB)", Medium::Kv),
    ] {
        let vm = cloud.ec2.provision_ready("m5.large", 0).expect("m5.large");
        let host = vm.host().clone();
        let (c, sim, p, n) = (clients.clone(), cloud.sim.clone(), payload.clone(), params.io_trials);
        let key = format!("ec2-{label}");
        let trials = cloud.sim.block_on(async move {
            let mut trials = Trials::default();
            for i in 0..n {
                let t0 = sim.now();
                let done = write_read(&c, medium, &host, &key, &p, t0 + IO_BUDGET).await;
                trials.record(i, done.map(|()| sim.now() - t0));
            }
            trials
        });
        vm.terminate();
        column(run, label, trials);
    }

    // --- Column 6: direct messaging between two EC2 instances -----------
    {
        let a = cloud.ec2.provision_ready("m5.large", 0).expect("m5.large");
        let b = cloud.ec2.provision_ready("m5.large", 0).expect("m5.large");
        let sa = cloud.fabric.bind(a.host(), 5555).expect("bind");
        let sb = cloud.fabric.bind(b.host(), 5555).expect("bind");
        let to = sb.addr();
        cloud.sim.spawn(async move {
            loop {
                let req = sb.recv().await;
                sb.reply(&req, req.payload.clone()).await;
            }
        });
        let (c, sim, p, n) = (clients.clone(), cloud.sim.clone(), payload.clone(), params.rtt_trials);
        let trials = cloud.sim.block_on(async move {
            let mut trials = Trials::default();
            for i in 0..n {
                let t0 = sim.now();
                let reply = c.request(&sa, to, p.clone(), t0 + RTT_BUDGET).await;
                trials.record(i, reply.map(|_| sim.now() - t0));
            }
            trials
        });
        column(run, "EC2 NW (0MQ)", trials);
    }

    run.close("table1", &cloud);
    Table1Result {
        rows,
        probe: run.probe.clone(),
    }
}

/// Issue `params.io_trials` write+read pairs from inside Lambda function
/// bodies, re-invoking as the function's time limit runs out (the paper's
/// "long-running function" driver). A pair is a sample once both halves
/// are done, so an execution cut short mid-pair loses it and counts
/// nothing twice.
fn lambda_io<C: Clients>(
    cloud: &Cloud,
    clients: &C,
    medium: Medium,
    params: &Table1Params,
    payload: Payload,
) -> Trials {
    let results: Rc<RefCell<Histogram>> = Rc::new(RefCell::new(Histogram::new()));
    let fn_name = match medium {
        Medium::Blob => "io-blob",
        Medium::Kv => "io-kv",
    };
    let c = clients.clone();
    let res = results.clone();
    cloud.faas.register(FunctionSpec::new(
        fn_name,
        1_024,
        params.lambda_time_limit,
        move |ctx, payload| {
            let c = c.clone();
            let res = res.clone();
            async move {
                let want = u64::from_le_bytes(payload.bytes()[..8].try_into().expect("8-byte count"));
                let body = payload.slice(8..);
                let margin = SimDuration::from_secs(2);
                let key = format!("lambda-io-{}", ctx.container_id());
                let mut done: u64 = 0;
                while done < want && ctx.remaining() > margin {
                    let t0 = ctx.sim().now();
                    write_read(&c, medium, ctx.host(), &key, &body, UNBOUNDED)
                        .await
                        .map_err(FnError::Handler)?;
                    res.borrow_mut().record_duration(ctx.sim().now() - t0);
                    done += 1;
                }
                Ok(Bytes::from(done.to_le_bytes().to_vec()))
            }
        },
    ));
    let (trials, res) = (params.io_trials as u64, results.clone());
    let left = move || trials.saturating_sub(res.borrow().count() as u64);
    let request = move |left: u64| {
        let mut req = Vec::with_capacity(8 + payload.len());
        req.extend_from_slice(&left.to_le_bytes());
        req.extend_from_slice(&payload.bytes());
        Payload::from(req)
    };
    let chained = cloud.sim.block_on(chain(cloud.faas.clone(), fn_name, left, request));
    let hist = *results.borrow();
    Trials {
        hist,
        failures: chained.err().into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_paper_shape() {
        let result = run(&Table1Params::quick(), 42);
        assert_eq!(result.rows.len(), 6);

        // Paper's means (ms): 303, 108, 11, 106, 11, 0.29.
        let invoc = result.mean_of("Func. Invoc. (1KB)").as_secs_f64() * 1e3;
        assert!((invoc - 303.0).abs() < 10.0, "invoc {invoc} ms");
        let ls3 = result.mean_of("Lambda I/O (S3)").as_secs_f64() * 1e3;
        assert!((ls3 - 107.0).abs() < 4.0, "lambda s3 {ls3} ms");
        let lkv = result.mean_of("Lambda I/O (DynamoDB)").as_secs_f64() * 1e3;
        assert!((lkv - 11.0).abs() < 1.0, "lambda kv {lkv} ms");
        let es3 = result.mean_of("EC2 I/O (S3)").as_secs_f64() * 1e3;
        assert!((es3 - 107.0).abs() < 4.0, "ec2 s3 {es3} ms");
        let ekv = result.mean_of("EC2 I/O (DynamoDB)").as_secs_f64() * 1e3;
        assert!((ekv - 11.0).abs() < 1.0, "ec2 kv {ekv} ms");
        let rtt = result.mean_of("EC2 NW (0MQ)").as_secs_f64() * 1e6;
        assert!((rtt - 290.0).abs() < 10.0, "rtt {rtt} µs");

        // The paper's ratios: 1,045x / 372x / 37.9x / 365x / 37.9x / 1x.
        assert!((result.ratio_of("Func. Invoc. (1KB)") - 1045.0).abs() < 60.0);
        assert!((result.ratio_of("Lambda I/O (DynamoDB)") - 37.9).abs() < 3.0);
        assert!((result.ratio_of("EC2 NW (0MQ)") - 1.0).abs() < 1e-9);

        let rendered = result.render();
        assert!(rendered.contains("Func. Invoc."));
        assert!(rendered.contains("Compared to best"));
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(&Table1Params::quick(), 7);
        let b = run(&Table1Params::quick(), 7);
        for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
            assert_eq!(ra.mean, rb.mean, "{} differs", ra.label);
        }
    }
}
